//! Fault-injection suite for the resilient sharded runtime.
//!
//! Proves the degradation ladder end to end with deterministic injected
//! faults ([`rfjson_runtime::fault`]):
//!
//! 1. an injected shard panic completes the stream with decisions
//!    byte-identical to the serial path (model-backend retry);
//! 2. a wrong-length shard output is detected and retried the same way;
//! 3. a **double fault** (primary lane and retry lane both faulty)
//!    returns [`RuntimeError::ShardFailed`] with the shard index and
//!    global record range — the process never aborts — for a single
//!    query and for a batch;
//! 4. oversized records are quarantined with [`Verdict::Skipped`]
//!    byte-identically to the serial quarantine path at shard counts
//!    {1, 2, 3, 8};
//! 5. no public rfjson-runtime constructor or stream driver panics on
//!    user-supplied expressions or input bytes (catch_unwind negative
//!    tests).

use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend, MultiLanes};
use rfjson_jsonstream::frame::split_records;
use rfjson_runtime::fault::{
    silence_injected_panics, FaultKind, FaultPlan, FaultyBackend, Trigger,
};
use rfjson_runtime::{
    CompileError, IngestLimits, RuntimeError, ShardedRunner, SkipReason, Verdict,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The poison byte the fault plans trigger on; planted inside a JSON
/// string so the record is otherwise ordinary content.
const POISON: u8 = 0x07;

fn expr() -> Expr {
    Expr::int_range(1, 5)
}

/// A 12-record stream with the poison byte inside record `poison_idx`.
fn poisoned_stream(poison_idx: usize) -> Vec<u8> {
    let mut stream = Vec::new();
    for i in 0..12 {
        let tag = if i == poison_idx {
            format!("\"p{}\"", POISON as char)
        } else {
            format!("\"r{i}\"")
        };
        stream.extend_from_slice(format!("{{\"a\":{},\"tag\":{tag}}}\n", i % 7).as_bytes());
    }
    stream
}

#[test]
fn injected_shard_panic_is_healed_by_model_retry() {
    silence_injected_panics();
    let stream = poisoned_stream(5);
    let serial = Engine::compile(&expr()).filter_stream(&stream);
    let _armed = FaultPlan::new(Trigger::OnByteValue(POISON), FaultKind::Panic).arm();
    for shards in [1, 2, 3, 8] {
        // Primary lanes are faulty engines; the retry lane is the
        // (clean) reference model — the default `R`.
        let mut runner: ShardedRunner<FaultyBackend<Engine>> =
            ShardedRunner::try_with_shards(&expr(), shards).unwrap();
        let decisions = runner
            .try_filter_stream(&stream)
            .expect("single fault must be absorbed by the retry lane");
        assert_eq!(decisions, serial, "shards={shards}");
        // The runner stays serviceable: a second pass over the same
        // stream faults and heals again.
        assert_eq!(runner.try_filter_stream(&stream).unwrap(), serial);
    }
}

#[test]
fn wrong_length_output_is_detected_and_healed() {
    let stream = poisoned_stream(2);
    let serial = Engine::compile(&expr()).filter_stream(&stream);
    for kind in [FaultKind::TruncateOutput, FaultKind::DuplicateOutput] {
        let _armed = FaultPlan::new(Trigger::OnByteValue(POISON), kind).arm();
        for shards in [1, 2, 3, 8] {
            let mut runner: ShardedRunner<FaultyBackend<Engine>> =
                ShardedRunner::try_with_shards(&expr(), shards).unwrap();
            assert_eq!(
                runner.try_filter_stream(&stream).unwrap(),
                serial,
                "kind={kind:?} shards={shards}"
            );
        }
    }
}

#[test]
fn double_fault_returns_shard_failed_with_shard_and_record_range() {
    silence_injected_panics();
    let poison_idx = 7;
    let stream = poisoned_stream(poison_idx);
    let _armed = FaultPlan::new(Trigger::OnByteValue(POISON), FaultKind::Panic).arm();
    for shards in [1, 2, 3, 8] {
        // Primary lanes *and* the retry lane are faulty: the ladder is
        // exhausted and the error must be structured, not a crash.
        let mut runner: ShardedRunner<FaultyBackend<Engine>, FaultyBackend<CompiledFilter>> =
            ShardedRunner::try_with_shards(&expr(), shards).unwrap();
        let err = runner
            .try_filter_stream(&stream)
            .expect_err("double fault must surface");
        let RuntimeError::ShardFailed { shard, records } = &err else {
            panic!("expected ShardFailed, got {err:?}");
        };
        // The failed shard is exactly the one whose byte range holds
        // the poison record, and its record range covers it.
        let poison_offset = stream
            .iter()
            .position(|&b| b == POISON)
            .expect("stream is poisoned");
        let plan = runner.plan(&stream);
        let expected_shard = plan
            .iter()
            .position(|r| r.contains(&poison_offset))
            .expect("poison lands in some shard");
        assert_eq!(*shard, expected_shard, "shards={shards}");
        assert!(
            records.contains(&poison_idx),
            "record range {records:?} must cover poison record {poison_idx} (shards={shards})"
        );
        assert!(records.end <= 12, "range stays within the stream");
        let msg = err.to_string();
        assert!(msg.contains(&format!("shard {expected_shard}")), "{msg}");
        // No partial output leaks through the error path.
        let mut out = vec![true];
        assert!(runner.try_filter_stream_into(&stream, &mut out).is_err());
        assert_eq!(out, vec![true], "out restored on error");
        // The process (and the runner) survive: a clean stream filters
        // fine on the very next call.
        let clean: &[u8] = b"{\"a\":3}\n{\"a\":9}\n";
        assert_eq!(runner.try_filter_stream(clean).unwrap(), vec![true, false]);
    }
}

#[test]
fn batch_double_fault_returns_shard_failed_with_the_global_record_range() {
    silence_injected_panics();
    let stream = poisoned_stream(10);
    let poison_offset = stream.iter().position(|&b| b == POISON).unwrap();
    let batch = [expr(), Expr::int_range(3, 6)];
    let _armed = FaultPlan::new(Trigger::OnByteValue(POISON), FaultKind::Panic).arm();
    for shards in [1, 2, 3, 8] {
        let mut runner: ShardedRunner<
            MultiLanes<FaultyBackend<Engine>>,
            MultiLanes<FaultyBackend<CompiledFilter>>,
        > = ShardedRunner::try_with_shards(&batch[..], shards).unwrap();
        let plan = runner.plan(&stream);
        let failed = plan
            .iter()
            .position(|r| r.contains(&poison_offset))
            .expect("poison lands in some shard");
        assert!(
            shards == 1 || failed > 0,
            "a clean shard precedes the poison"
        );
        let count = |r: &std::ops::Range<usize>| split_records(&stream[r.clone()]).count();
        let base: usize = plan[..failed].iter().map(count).sum();
        let records = base..base + count(&plan[failed]);

        let mut out = runner
            .filter_stream_verdicts(b"{\"a\":3}\n", IngestLimits::UNLIMITED)
            .unwrap();
        let entry = out.clone();
        let before = rfjson_telemetry::registry().snapshot();
        let err = runner
            .filter_stream_verdicts_into(&stream, IngestLimits::UNLIMITED, &mut out)
            .expect_err("double fault must surface");
        let d = rfjson_telemetry::registry().snapshot().delta(&before);
        assert_eq!(
            err,
            RuntimeError::ShardFailed {
                shard: failed,
                records
            },
            "shards={shards}"
        );
        if rfjson_telemetry::ENABLED {
            assert_eq!(d.counter("runtime.double_faults"), 1, "shards={shards}");
        }
        assert_eq!(out, entry, "out restored on error (shards={shards})");
    }
}

#[test]
fn oversized_record_quarantined_identically_at_all_shard_counts() {
    let long = format!("{{\"a\":3,\"pad\":\"{}\"}}", "x".repeat(200));
    let mut stream = Vec::new();
    for i in 0..9 {
        if i == 4 {
            stream.extend_from_slice(long.as_bytes());
            stream.push(b'\n');
        } else {
            stream.extend_from_slice(format!("{{\"a\":{i}}}\n").as_bytes());
        }
    }
    let limits = IngestLimits::max_record_bytes(64);
    let serial = Engine::compile(&expr()).filter_stream_verdicts(&stream, limits);
    assert_eq!(
        serial[4],
        Verdict::Skipped(SkipReason::TooLong {
            limit: 64,
            actual: long.len()
        })
    );
    for shards in [1, 2, 3, 8] {
        let mut runner: ShardedRunner<Engine> =
            ShardedRunner::try_with_shards(&expr(), shards).unwrap();
        let verdicts = runner.filter_stream_verdicts(&stream, limits).unwrap();
        assert_eq!(verdicts, serial, "shards={shards}");
    }
}

#[test]
fn record_budget_applies_globally_across_shards() {
    let stream: Vec<u8> = (0..10)
        .flat_map(|i| format!("{{\"a\":{i}}}\n").into_bytes())
        .collect();
    let limits = IngestLimits::max_records(4);
    let serial = Engine::compile(&expr()).filter_stream_verdicts(&stream, limits);
    assert_eq!(
        serial.iter().filter(|v| v.decision().is_some()).count(),
        4,
        "only the first four records are filtered"
    );
    for shards in [1, 2, 3, 8] {
        let mut runner: ShardedRunner<Engine> =
            ShardedRunner::try_with_shards(&expr(), shards).unwrap();
        assert_eq!(
            runner.filter_stream_verdicts(&stream, limits).unwrap(),
            serial,
            "shards={shards}"
        );
    }
}

#[test]
fn quarantine_with_unterminated_trailing_record() {
    // EOF without a newline + a byte limit: the degenerate case must
    // agree serially and sharded (the trailing record is metered too).
    let stream: &[u8] = b"{\"a\":3}\n{\"a\":4,\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}";
    let limits = IngestLimits::max_record_bytes(16);
    let serial = Engine::compile(&expr()).filter_stream_verdicts(stream, limits);
    assert!(matches!(
        serial[1],
        Verdict::Skipped(SkipReason::TooLong { .. })
    ));
    for shards in [1, 2, 3, 8] {
        let mut runner: ShardedRunner<Engine> =
            ShardedRunner::try_with_shards(&expr(), shards).unwrap();
        assert_eq!(
            runner.filter_stream_verdicts(stream, limits).unwrap(),
            serial,
            "shards={shards}"
        );
    }
}

#[test]
fn transient_fault_heals_after_fuel_is_spent() {
    silence_injected_panics();
    let stream = poisoned_stream(3);
    let serial = Engine::compile(&expr()).filter_stream(&stream);
    let _armed = FaultPlan::new(Trigger::OnByteValue(POISON), FaultKind::Panic)
        .with_fuel(1)
        .arm();
    let mut runner: ShardedRunner<FaultyBackend<Engine>> =
        ShardedRunner::try_with_shards(&expr(), 3).unwrap();
    // First call burns the fuel on the primary lane, retry absorbs it;
    // the second call runs entirely clean.
    assert_eq!(runner.try_filter_stream(&stream).unwrap(), serial);
    assert_eq!(runner.try_filter_stream(&stream).unwrap(), serial);
}

#[test]
fn no_public_constructor_panics_on_ill_formed_expressions() {
    let bad_exprs = [
        Expr::And(vec![]),
        Expr::Or(vec![]),
        Expr::And(vec![Expr::Or(vec![])]),
    ];
    for bad in &bad_exprs {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let a = ShardedRunner::<Engine>::try_new(bad).err();
            let b = ShardedRunner::<Engine>::try_with_shards(bad, 4).err();
            let c = ShardedRunner::<CompiledFilter>::try_new(bad).err();
            (a, b, c)
        }));
        let (a, b, c) = outcome.expect("try_ constructors must not panic");
        for err in [a, b, c] {
            assert!(
                matches!(err, Some(CompileError::InvalidExpr(_))),
                "ill-formed expression must surface as CompileError"
            );
        }
    }
}

#[test]
fn no_stream_driver_panics_on_arbitrary_input_bytes() {
    let soups: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 257],
        (0u8..=255).collect(),
        b"\x00\n\x00\x00\n\xff\xfe\n".to_vec(),
        b"\xf0\x9f\x92\xa9 not json at all \n{{{{\n".to_vec(),
        b"\r\r\r\n\r\n\n".to_vec(),
        [b"{\"a\":".to_vec(), vec![b'9'; 100_000], b"}".to_vec()].concat(),
    ];
    let limits = IngestLimits {
        max_record_bytes: Some(50),
        max_records: Some(3),
    };
    for soup in &soups {
        for shards in [1, 2, 3, 8] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut runner: ShardedRunner<Engine> =
                    ShardedRunner::try_with_shards(&expr(), shards).unwrap();
                let decisions = runner.try_filter_stream(soup).unwrap();
                let verdicts = runner.filter_stream_verdicts(soup, limits).unwrap();
                (decisions, verdicts)
            }));
            let (decisions, verdicts) = outcome.expect("drivers must not panic on byte soup");
            // Sharded must agree with the serial paths on the same soup.
            let mut serial = Engine::compile(&expr());
            assert_eq!(decisions, serial.filter_stream(soup), "shards={shards}");
            assert_eq!(
                verdicts,
                serial.filter_stream_verdicts(soup, limits),
                "shards={shards}"
            );
        }
    }
}

#[test]
fn runtime_error_taxonomy_contract() {
    // Display and source() are the stable surface structured tooling
    // matches on; pin them.
    let compile_err = RuntimeError::Compile(CompileError::InvalidExpr(
        Expr::And(vec![]).validate().unwrap_err(),
    ));
    assert!(compile_err.to_string().contains("lane compilation failed"));
    assert!(std::error::Error::source(&compile_err).is_some());
    let shard_err = RuntimeError::ShardFailed {
        shard: 2,
        records: 10..20,
    };
    assert!(shard_err.to_string().contains("shard 2"));
    assert!(shard_err.to_string().contains("10..20"));
    assert!(std::error::Error::source(&shard_err).is_none());
}
