//! Cross-impl framing equivalence: the NDJSON framing rules live once in
//! `rfjson_jsonstream::frame`, and every consumer — the slice iterator,
//! the record driver, the engine's stream path gated and ungated, the
//! fused batch and the
//! sharded runner at every shard count — must agree with one reference
//! model, built here on std `split`, on **which** records a stream holds
//! and which of them are quarantined, for any input and any limits.

use proptest::prelude::*;
use rfjson_core::backend::run_verdict_driver;
use rfjson_core::multi::MultiBackend;
use rfjson_core::{
    CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, MultiEngine, PrefilterStatus,
    SkipReason, Verdict,
};
use rfjson_jsonstream::frame::split_records;
use rfjson_runtime::ShardedRunner;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The reference framing: `\n` separates lines; a line of nothing but
/// CRs (an empty one too) is no record; one CR before the `\n` is not
/// content; the text after the last `\n` is a record if it is not blank;
/// record-count quarantine wins over length quarantine.
fn model(stream: &[u8], limits: IngestLimits) -> Vec<(&[u8], Option<SkipReason>)> {
    stream
        .split(|&b| b == b'\n')
        .filter(|line| line.iter().any(|&b| b != b'\r'))
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .enumerate()
        .map(|(index, content)| {
            let skip = match (limits.max_records, limits.max_record_bytes) {
                (Some(limit), _) if index >= limit => Some(SkipReason::RecordLimit { limit }),
                (_, Some(limit)) if content.len() > limit => Some(SkipReason::TooLong {
                    limit,
                    actual: content.len(),
                }),
                _ => None,
            };
            (content, skip)
        })
        .collect()
}

/// A query on the engine's stream path: no literal, so no prefilter.
fn stream_query() -> Expr {
    Expr::int_range(1, 5)
}

/// A query whose literal prefilter is live on a fresh engine, so the
/// engine gates records in front of the kernel.
fn prefilter_query() -> Expr {
    Expr::and([
        Expr::substring(b"a1", 1).expect("needle"),
        Expr::int_range(1, 5),
    ])
}

fn oracle(expr: &Expr, stream: &[u8], limits: IngestLimits) -> Vec<Verdict> {
    let mut out = Vec::new();
    run_verdict_driver(&mut CompiledFilter::compile(expr), stream, limits, &mut out);
    out
}

fn runners() -> Vec<ShardedRunner<Engine>> {
    SHARD_COUNTS
        .iter()
        .map(|&shards| ShardedRunner::with_shards(&stream_query(), shards))
        .collect()
}

/// Asserts that every framing consumer agrees with the model on `stream`:
/// the byte-serial oracle on the record count and the skip reason of each
/// record, every other path on the oracle's verdicts.
fn assert_framing_agreement(
    stream: &[u8],
    limits: IngestLimits,
    runners: &mut [ShardedRunner<Engine>],
) {
    let shown = String::from_utf8_lossy(stream);
    let want = model(stream, limits);
    let unlimited: Vec<&[u8]> = model(stream, IngestLimits::UNLIMITED)
        .into_iter()
        .map(|(content, _)| content)
        .collect();
    assert_eq!(
        split_records(stream).collect::<Vec<_>>(),
        unlimited,
        "split_records on {shown:?}"
    );

    let (stream_expr, prefilter_expr) = (stream_query(), prefilter_query());
    let want_stream = oracle(&stream_expr, stream, limits);
    let want_prefilter = oracle(&prefilter_expr, stream, limits);
    for verdicts in [&want_stream, &want_prefilter] {
        let skips: Vec<Option<SkipReason>> = verdicts
            .iter()
            .map(|v| match v {
                Verdict::Skipped(reason) => Some(*reason),
                _ => None,
            })
            .collect();
        let model_skips: Vec<Option<SkipReason>> = want.iter().map(|(_, skip)| *skip).collect();
        assert_eq!(
            skips, model_skips,
            "byte-serial oracle on {shown:?} under {limits:?}"
        );
    }

    let mut engine = Engine::compile(&stream_expr);
    assert_eq!(engine.prefilter_status(), PrefilterStatus::Absent);
    assert_eq!(
        engine.filter_stream_verdicts(stream, limits),
        want_stream,
        "engine stream path on {shown:?} under {limits:?}"
    );

    let mut engine = Engine::compile(&prefilter_expr);
    assert_eq!(engine.prefilter_status(), PrefilterStatus::Probation);
    assert_eq!(
        engine.filter_stream_verdicts(stream, limits),
        want_prefilter,
        "engine gated stream path on {shown:?} under {limits:?}"
    );

    let fused = MultiEngine::compile_batch(&[stream_expr, prefilter_expr])
        .filter_stream_verdicts(stream, limits);
    for (query, want) in [&want_stream, &want_prefilter].into_iter().enumerate() {
        assert_eq!(
            &fused.query_verdicts(query),
            want,
            "MultiEngine query {query} on {shown:?} under {limits:?}"
        );
    }

    for (runner, shards) in runners.iter_mut().zip(SHARD_COUNTS) {
        assert_eq!(
            &runner
                .filter_stream_verdicts(stream, limits)
                .expect("no faults injected"),
            &want_stream,
            "ShardedRunner({shards}) on {shown:?} under {limits:?}"
        );
    }
}

const EDGE_LIMITS: [IngestLimits; 6] = [
    IngestLimits::UNLIMITED,
    IngestLimits {
        max_record_bytes: Some(0),
        max_records: None,
    },
    IngestLimits {
        max_record_bytes: None,
        max_records: Some(0),
    },
    IngestLimits {
        max_record_bytes: Some(3),
        max_records: None,
    },
    IngestLimits {
        max_record_bytes: None,
        max_records: Some(2),
    },
    IngestLimits {
        max_record_bytes: Some(3),
        max_records: Some(2),
    },
];

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
        b"{\"a1\":3}\r\n{\"a1\":9,\"pad\":\"xxxxxxxx\"}\r\n\r\r\n{\"a1\":4}\r",
        b"trailing-no-newline",
    ];
    let mut runners = runners();
    for stream in &streams {
        for limits in EDGE_LIMITS {
            assert_framing_agreement(stream, limits, &mut runners);
        }
    }
}

/// Random limits, zero included, each sometimes unset.
fn limits() -> impl Strategy<Value = IngestLimits> {
    (0usize..14, 0usize..10).prop_map(|(bytes, records)| IngestLimits {
        max_record_bytes: (bytes < 12).then_some(bytes),
        max_records: (records < 8).then_some(records),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random mixtures of content bytes, CR, LF — the full framing
    /// state space — shifted by 0–7 bytes so every separator lands at
    /// every word offset, under random limits.
    #[test]
    fn framing_views_agree_on_random_streams(
        soup in proptest::collection::vec(
            prop_oneof![
                Just(b'\n'), Just(b'\r'), Just(b'a'), Just(b'{'), Just(b'}'),
                Just(b'"'), Just(b'1'), Just(b'3'), Just(b':'), Just(b','),
            ],
            0..200,
        ),
        limits in limits(),
    ) {
        let mut runners = runners();
        for shift in 0..8 {
            let stream = [&b"{\"a1\":3,"[..shift], &soup].concat();
            assert_framing_agreement(&stream, limits, &mut runners);
        }
    }
}
