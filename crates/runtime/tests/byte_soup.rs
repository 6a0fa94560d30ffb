//! Arbitrary-byte-soup robustness properties for the sharded runtime:
//! invalid UTF-8, NUL bytes, empty and huge records — no panic may
//! escape any public driver, and sharded decisions/verdicts must match
//! the serial path of the same backend at shard counts {1, 2, 3, 8}.
//!
//! Two expressions: one whose fresh engines have a live prefilter that
//! gates records in front of the word kernel, and one with an `Or` root —
//! no prefilter — whose lanes run the kernel over each whole shard, the
//! record separator a kernel event.

use proptest::prelude::*;
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend};
use rfjson_runtime::{IngestLimits, ShardedRunner};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn exprs() -> [Expr; 2] {
    let temp = Expr::substring(b"temp", 1).unwrap();
    [
        Expr::and([temp.clone(), Expr::int_range(0, 99)]),
        Expr::or([
            Expr::context([temp, Expr::int_range(0, 99)]),
            Expr::int_range(1000, 2000),
        ]),
    ]
}

/// Sharded output must equal the serial reference, for decisions and
/// for verdicts under limits, without any panic escaping.
fn assert_resilient(stream: &[u8], limits: IngestLimits) {
    for expr in exprs() {
        let serial_decisions = Engine::compile(&expr).filter_stream(stream);
        let serial_verdicts = Engine::compile(&expr).filter_stream_verdicts(stream, limits);
        let model_verdicts = CompiledFilter::compile(&expr).filter_stream_verdicts(stream, limits);
        assert_eq!(serial_verdicts, model_verdicts, "serial paths agree first");
        for shards in [1usize, 2, 3, 8] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut engine: ShardedRunner<Engine> =
                    ShardedRunner::try_with_shards(&expr, shards).unwrap();
                let mut model: ShardedRunner<CompiledFilter> =
                    ShardedRunner::try_with_shards(&expr, shards).unwrap();
                (
                    engine.try_filter_stream(stream).unwrap(),
                    engine.filter_stream_verdicts(stream, limits).unwrap(),
                    model.filter_stream_verdicts(stream, limits).unwrap(),
                )
            }));
            let (decisions, verdicts, model) = outcome.expect("no panic may escape the runtime");
            assert_eq!(
                decisions, serial_decisions,
                "`{expr}` decisions, shards={shards}"
            );
            assert_eq!(
                verdicts, serial_verdicts,
                "`{expr}` verdicts, shards={shards}"
            );
            assert_eq!(
                model, serial_verdicts,
                "`{expr}` model verdicts, shards={shards}"
            );
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_and_match_serial(
        bytes in prop::collection::vec(any::<u8>(), 0..1500),
    ) {
        assert_resilient(&bytes, IngestLimits::UNLIMITED);
    }

    #[test]
    fn arbitrary_bytes_with_limits_match_serial(
        bytes in prop::collection::vec(any::<u8>(), 0..1500),
        max_len in 0usize..64,
        max_recs in 0usize..12,
    ) {
        assert_resilient(
            &bytes,
            IngestLimits {
                max_record_bytes: Some(max_len),
                max_records: Some(max_recs),
            },
        );
    }

    #[test]
    fn newline_heavy_soup_matches_serial(
        lines in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..40),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        // Force plenty of record boundaries (the interesting framing
        // surface) out of otherwise-arbitrary content bytes.
        let mut stream = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            stream.extend_from_slice(line);
            if i + 1 < lines.len() || trailing_newline {
                if crlf {
                    stream.push(b'\r');
                }
                stream.push(b'\n');
            }
        }
        assert_resilient(&stream, IngestLimits::max_record_bytes(20));
    }
}

#[test]
fn zero_byte_records_and_nul_heavy_streams() {
    // Blank lines everywhere, NUL-only records, empty stream.
    assert_resilient(b"", IngestLimits::UNLIMITED);
    assert_resilient(b"\n\n\n\r\n\n", IngestLimits::max_records(1));
    assert_resilient(
        b"\x00\n\x00\x00\x00\n\x00",
        IngestLimits::max_record_bytes(2),
    );
    let soup: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
    assert_resilient(&soup, IngestLimits::max_record_bytes(100));
}

#[test]
fn multi_mb_record_is_quarantined_not_fatal() {
    // One 3 MiB record sandwiched between normal records: the lane must
    // skip-and-report it under a byte limit, identically at every shard
    // count, and filter it normally without limits.
    let mut stream = Vec::new();
    stream.extend_from_slice(b"{\"n\":\"temp\",\"v\":3}\n");
    stream.extend_from_slice(b"{\"n\":\"temp\",\"pad\":\"");
    stream.extend(std::iter::repeat_n(b'x', 3 * 1024 * 1024));
    stream.extend_from_slice(b"\",\"v\":7}\n");
    stream.extend_from_slice(b"{\"n\":\"temp\",\"v\":200}\n");
    assert_resilient(&stream, IngestLimits::max_record_bytes(1024));
    assert_resilient(&stream, IngestLimits::UNLIMITED);
}
