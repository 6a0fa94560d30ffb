//! Cross-impl framing equivalence: the NDJSON framing rules live once in
//! `rfjson_jsonstream::frame`, and every consumer — the slice iterator,
//! the byte-serial framer behind the oracle stream driver, the stream
//! drivers behind [`FilterBackend`], and the shard splitter — must agree
//! on **which** records a stream contains, for any input.

use proptest::prelude::*;
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend};
use rfjson_jsonstream::frame::{
    shard_ranges, split_records, trim_cr, IngestLimits, LimitedAction, LimitedFramer,
};

/// Record contents via the byte-serial framer (what the oracle driver
/// `run_verdict_driver` consumes), with no limits set.
fn framer_records(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut framer = LimitedFramer::new(IngestLimits::UNLIMITED);
    let (mut line, mut got) = (Vec::new(), Vec::new());
    for &b in stream {
        match framer.on_byte(b) {
            LimitedAction::Feed { .. } => line.push(b),
            LimitedAction::EndRecord(_) => got.push(trim_cr(&line).to_vec()),
            LimitedAction::EndBlank => {}
        }
        if b == b'\n' {
            line.clear();
        }
    }
    if framer.finish().is_some() {
        got.push(trim_cr(&line).to_vec());
    }
    got
}

/// Asserts that every framing view agrees on `stream`.
fn assert_framing_agreement(stream: &[u8]) {
    let split: Vec<Vec<u8>> = split_records(stream).map(<[u8]>::to_vec).collect();

    // Byte-serial framer.
    assert_eq!(
        framer_records(stream),
        split,
        "LimitedFramer vs split_records on {:?}",
        String::from_utf8_lossy(stream)
    );

    // Backend stream drivers: one decision per record, both backends.
    let expr = Expr::int_range(1, 5);
    for decisions in [
        CompiledFilter::compile(&expr).filter_stream(stream),
        Engine::compile(&expr).filter_stream(stream),
    ] {
        assert_eq!(
            decisions.len(),
            split.len(),
            "filter_stream decision count vs split_records on {:?}",
            String::from_utf8_lossy(stream)
        );
    }

    // Shard splitter: concatenated shard records == serial records.
    for shards in [1, 2, 3, 8] {
        let sharded: Vec<Vec<u8>> = shard_ranges(stream, shards)
            .into_iter()
            .flat_map(|r| split_records(&stream[r]).map(<[u8]>::to_vec))
            .collect();
        assert_eq!(
            sharded,
            split,
            "shard_ranges({shards}) vs split_records on {:?}",
            String::from_utf8_lossy(stream)
        );
    }
}

#[test]
fn framing_views_agree_on_edge_streams() {
    let streams: Vec<&[u8]> = vec![
        b"",
        b"\n",
        b"\r\n",
        b"\r\r\n",
        b"\r",
        b"a",
        b"a\n",
        b"a\r\n",
        b"a\r\r\n",
        b"a\rb\nc",
        b"\n\na\n\n\nb\n\n",
        b"{\"a\":3}\r\n\r\n{\"a\":9}\n\n{\"a\":2}",
        b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}",
        b"trailing-no-newline",
    ];
    for stream in &streams {
        assert_framing_agreement(stream);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random mixtures of content bytes, CR, LF — the full framing
    /// state space.
    #[test]
    fn framing_views_agree_on_random_streams(
        soup in proptest::collection::vec(
            prop_oneof![
                Just(b'\n'), Just(b'\r'), Just(b'a'), Just(b'{'),
                Just(b'}'), Just(b'"'), Just(b'1'), Just(b','),
            ],
            0..200,
        ),
    ) {
        assert_framing_agreement(&soup);
    }
}
