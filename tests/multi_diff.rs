//! Differential tests for the fused multi-query engine: for any query
//! batch, [`MultiEngine`] must be **byte-identical** to running N
//! independent [`Engine`]s — on the per-byte latched accept signal, at
//! arbitrary byte/block split seams, at every shard count, and under
//! quarantine limits. Fusing is allowed to be faster, never different.

use proptest::prelude::*;
use rfjson_core::engine::{FallbackReason, ScanPath};
use rfjson_core::multi::{MultiBackend, MultiEngine, MultiLanes};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, StructScope};
use rfjson_riotbench::{smartcity, taxi, twitter, Query};
use rfjson_runtime::fault::{
    silence_injected_panics, FaultKind, FaultPlan, FaultyBackend, Trigger,
};
use rfjson_runtime::MultiShardedRunner;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Query batches covering every primitive technique, shared units across
/// lanes, both structural scopes, and the paper's Table VIII queries.
///
/// All but the last batch run the fused SWAR loop — the wide-block
/// (B = 9) one and the mixed-B one, whose twelve pooled B ≥ 2 units
/// span two banks of lanes, included; the last carries a run target
/// past the packed counters so the fused byte-serial fallback is
/// exercised too ([`zoo_batches_take_the_expected_scan_path`]).
fn batch_zoo() -> Vec<Vec<Expr>> {
    vec![
        vec![
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::window(b"light").unwrap(),
            Expr::dfa_string(b"humidity").unwrap(),
            Expr::int_range(12, 49),
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"tolls_amount", 2).unwrap(),
                    Expr::float_range("2.50", "18.00").unwrap(),
                ],
            ),
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qt(), 2).unwrap(),
        ],
        vec![
            Expr::substring(b"airquality_raw", 9).unwrap(),
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("-12.5", "43.1").unwrap(),
        ],
        // Duplicate lanes: dedup must not entangle their verdicts.
        vec![
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qs0(), 1).unwrap(),
            query_to_exprs(&Query::qs1(), 1).unwrap(),
        ],
        // Mixed block lengths, more than eight B ≥ 2 units in one pool.
        vec![
            query_to_exprs(&Query::qt(), 2).unwrap(),
            query_to_exprs(&Query::qt(), 3).unwrap(),
            Expr::substring(b"tolls_amount", 2).unwrap(), // shared with QT b=2
            Expr::substring(b"airquality_raw", 9).unwrap(),
            Expr::substring(b"favourites_count", 9).unwrap(),
        ],
        vec![
            Expr::substring(&[b'k'; 130], 2).unwrap(), // run target 129
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::substring(b"temperature", 1).unwrap(),
        ],
    ]
}

#[test]
fn zoo_batches_take_the_expected_scan_path() {
    let zoo = batch_zoo();
    let (fallback, block) = zoo.split_last().unwrap();
    for exprs in block {
        assert_eq!(
            MultiEngine::compile_batch(exprs).scan_path(),
            ScanPath::Block
        );
    }
    let pool = MultiEngine::compile_batch(&zoo[3]).share_stats().pool;
    assert_eq!(
        (pool.subp, pool.wide),
        (10, 2),
        "QT's five keys twice, two wide"
    );
    assert_eq!(
        MultiEngine::compile_batch(fallback).scan_path(),
        ScanPath::ByteSerial(FallbackReason::RunTargetTooLong { target: 129 })
    );
}

fn bit(out: &[u64], q: usize) -> bool {
    out[q / 64] >> (q % 64) & 1 == 1
}

/// Steps the fused engine and N independent engines over `record + '\n'`
/// and asserts every lane's latched accept matches on **every byte**.
fn assert_bytewise(exprs: &[Expr], record: &[u8]) {
    let mut fused = MultiEngine::compile_batch(exprs);
    let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
    let mut out = vec![0u64; exprs.len().div_ceil(64)];
    for (i, &b) in record.iter().chain(b"\n").enumerate() {
        fused.on_byte(b);
        out.fill(0);
        fused.write_accepts(&mut out);
        for (q, engine) in engines.iter_mut().enumerate() {
            let want = engine.on_byte(b);
            assert_eq!(
                bit(&out, q),
                want,
                "lane {q} (`{}`) diverges at byte {i} ({:?}) of record {:?}",
                exprs[q],
                b as char,
                String::from_utf8_lossy(record)
            );
        }
    }
}

/// Feeds the record through both sides split at several points into a
/// byte-serial prefix plus **one** block remainder (the packed-state
/// sync-in/sync-out seams of the fused SWAR loop), asserting the record
/// decision of every lane matches the lane's own engine under the same
/// split.
fn assert_blockwise(exprs: &[Expr], record: &[u8]) {
    let mut fused = MultiEngine::compile_batch(exprs);
    let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
    let words = exprs.len().div_ceil(64);
    let mut splits = vec![0, record.len()];
    for s in [1, 7, 8, 9, 15, 16, record.len() / 2] {
        if s <= record.len() {
            splits.push(s);
        }
    }
    for split in splits {
        fused.reset();
        for &b in &record[..split] {
            fused.on_byte(b);
        }
        if split < record.len() {
            fused.on_block(&record[split..]);
        }
        let mut out = vec![0u64; words];
        fused.write_accepts(&mut out);
        fused.on_byte(b'\n');
        let mut post = vec![0u64; words];
        fused.write_accepts(&mut post);
        for (q, engine) in engines.iter_mut().enumerate() {
            engine.reset();
            let mut last = false;
            for &b in &record[..split] {
                last = engine.on_byte(b);
            }
            if split < record.len() {
                last = engine.on_block(&record[split..]);
            }
            let want = engine.on_byte(b'\n') || last;
            assert_eq!(
                bit(&out, q) || bit(&post, q),
                want,
                "lane {q} (`{}`) diverges at split {split} of record {:?}",
                exprs[q],
                String::from_utf8_lossy(record)
            );
        }
    }
}

/// Stream-level agreement: the fused serial driver, the [`MultiLanes`]
/// references (engines, and the byte-serial model that shares no kernel
/// with the fused pool), every independent engine's verdict vector, and
/// the sharded runner at every shard count must all agree — skips
/// included.
fn assert_streamwise(exprs: &[Expr], stream: &[u8], limits: IngestLimits) {
    let fused = MultiEngine::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    let lanes = MultiLanes::<Engine>::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    let model =
        MultiLanes::<CompiledFilter>::compile_batch(exprs).filter_stream_verdicts(stream, limits);
    assert_eq!(fused, model, "fused vs byte-serial model lanes");
    for (q, expr) in exprs.iter().enumerate() {
        assert_eq!(
            fused.query_verdicts(q),
            lanes.query_verdicts(q),
            "fused vs multi-lanes diverge on lane {q} (`{expr}`)"
        );
        let single = Engine::compile(expr).filter_stream_verdicts(stream, limits);
        assert_eq!(
            fused.query_verdicts(q),
            single,
            "fused vs independent engine diverge on lane {q} (`{expr}`)"
        );
    }
    for shards in SHARD_COUNTS {
        let mut runner: MultiShardedRunner<MultiEngine> =
            MultiShardedRunner::with_shards(exprs, shards);
        let sharded = runner
            .filter_stream_verdicts(stream, limits)
            .expect("healthy lanes never double fault");
        assert_eq!(sharded.num_records(), fused.num_records());
        for (q, expr) in exprs.iter().enumerate() {
            assert_eq!(
                sharded.query_verdicts(q),
                fused.query_verdicts(q),
                "sharded fused diverges on lane {q} (`{expr}`), shards {shards}"
            );
        }
    }
}

#[test]
fn fused_bytewise_equals_independent_engines() {
    let datasets = [
        smartcity::generate(41, 6),
        taxi::generate(42, 6),
        twitter::generate(43, 4),
    ];
    for exprs in batch_zoo() {
        for ds in &datasets {
            for record in ds.records() {
                assert_bytewise(&exprs, record);
            }
        }
    }
}

#[test]
fn fused_blockwise_equals_independent_engines_at_split_seams() {
    let datasets = [smartcity::generate(44, 6), taxi::generate(45, 6)];
    for exprs in batch_zoo() {
        for ds in &datasets {
            for record in ds.records() {
                assert_blockwise(&exprs, record);
            }
        }
    }
}

#[test]
fn fused_stream_equals_independent_engines_at_every_shard_count() {
    let streams = [
        smartcity::generate(46, 40).stream(),
        taxi::generate(47, 40).stream(),
        b"\r\n{\"a\":3}\r\n\n{\"temperature\":21.5}".to_vec(),
    ];
    for exprs in batch_zoo() {
        for stream in &streams {
            assert_streamwise(&exprs, stream, IngestLimits::UNLIMITED);
        }
    }
}

#[test]
fn quarantine_agrees_across_all_paths() {
    let limits = IngestLimits {
        max_record_bytes: Some(90),
        max_records: Some(25),
    };
    let streams = [
        smartcity::generate(48, 40).stream(),
        taxi::generate(49, 40).stream(),
    ];
    for exprs in batch_zoo() {
        for stream in &streams {
            assert_streamwise(&exprs, stream, limits);
        }
    }
}

/// A healed multi-runner lane must stay byte-identical when **reused**:
/// the first call faults a lane mid-stream, the heal recompiles it, and
/// the second call over the same runner must run the healed lane clean
/// — the batch twin of `reset_regression.rs`'s reuse contract (this was
/// previously untested: every other multi test used a fresh runner per
/// call).
#[test]
fn healed_multi_lane_is_reused_cleanly_on_second_call() {
    silence_injected_panics();
    // Poison one mid-stream record with a byte no RiotBench corpus
    // emits, so the fault lands in the same record at every shard count.
    let ds = smartcity::generate(50, 30);
    let mut stream = Vec::new();
    for (i, record) in ds.records().iter().enumerate() {
        if i == 13 {
            stream.extend_from_slice(b"{\"poison\":\"\x07\"}\n");
        }
        stream.extend_from_slice(record);
        stream.push(b'\n');
    }

    for exprs in batch_zoo() {
        let fused = MultiEngine::compile_batch(&exprs)
            .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        for shards in SHARD_COUNTS {
            // Primary lanes are faulty batches; the retry lane is the
            // clean `MultiLanes<CompiledFilter>` default. Fuel 1: the
            // fault fires once on the first call, then the healed lane
            // must carry the second call without the retry path.
            let armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::Panic)
                .with_fuel(1)
                .arm();
            let mut runner: MultiShardedRunner<MultiLanes<FaultyBackend<Engine>>> =
                MultiShardedRunner::try_with_shards(&exprs, shards).unwrap();
            let first = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("single fault must be absorbed by the retry lane");
            let second = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("healed lane must run clean");
            drop(armed);
            assert_eq!(first.num_records(), fused.num_records());
            for (q, expr) in exprs.iter().enumerate() {
                assert_eq!(
                    first.query_verdicts(q),
                    fused.query_verdicts(q),
                    "faulted+retried call diverges on lane {q} (`{expr}`), shards {shards}"
                );
                assert_eq!(
                    second.query_verdicts(q),
                    fused.query_verdicts(q),
                    "healed reused lane diverges on lane {q} (`{expr}`), shards {shards}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpora × random zoo batch × every shard count, with and
    /// without quarantine limits.
    #[test]
    fn fused_equals_independent_on_random_corpora(
        seed in 0u64..1_000_000,
        n in 1usize..24,
        which in 0usize..3,
        batch_idx in 0usize..5,
        limited in any::<bool>(),
    ) {
        let ds = match which {
            0 => smartcity::generate(seed, n),
            1 => taxi::generate(seed, n),
            _ => twitter::generate(seed, n),
        };
        let zoo = batch_zoo();
        let exprs = &zoo[batch_idx % zoo.len()];
        let limits = if limited {
            IngestLimits {
                max_record_bytes: Some(100),
                max_records: Some(n / 2 + 1),
            }
        } else {
            IngestLimits::UNLIMITED
        };
        let stream = ds.stream();
        let fused = MultiEngine::compile_batch(exprs).filter_stream_verdicts(&stream, limits);
        for (q, expr) in exprs.iter().enumerate() {
            let single = Engine::compile(expr).filter_stream_verdicts(&stream, limits);
            prop_assert_eq!(&fused.query_verdicts(q), &single);
        }
        for shards in SHARD_COUNTS {
            let mut runner: MultiShardedRunner<MultiEngine> =
                MultiShardedRunner::with_shards(exprs, shards);
            let sharded = runner
                .filter_stream_verdicts(&stream, limits)
                .expect("healthy lanes never double fault");
            for q in 0..exprs.len() {
                prop_assert_eq!(sharded.query_verdicts(q), fused.query_verdicts(q));
            }
        }
    }
}
