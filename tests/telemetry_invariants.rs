//! Conservation laws of the telemetry counters across the whole
//! pipeline.
//!
//! The metrics are only trustworthy if they balance: every record the
//! framing layer reports must be reported exactly once as a runtime
//! verdict (matched, unmatched, or skipped), every stream byte must be
//! attributed to exactly one engine scan path, and every injected lane
//! fault must show up as exactly one heal. These tests pin those laws
//! at shard counts {1, 2, 3, 8}, with and without fault injection.
//!
//! Telemetry counters are process-global, so every test serialises on
//! one lock and measures deltas between registry snapshots.

mod zoo;

use rfjson_core::backend::run_verdict_driver;
use rfjson_core::prefilter::Prefilter;
use rfjson_core::query::query_to_exprs;
use rfjson_core::{
    CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, MultiEngine, PrefilterStatus,
    StructScope, Verdict,
};
use rfjson_riotbench::{smartcity_corpus, taxi, taxi_corpus, twitter, twitter_corpus, Query};
use rfjson_runtime::fault::{
    silence_injected_panics, FaultKind, FaultPlan, FaultyBackend, Trigger,
};
use rfjson_runtime::ShardedRunner;
use rfjson_telemetry::Snapshot;
use std::sync::{Mutex, MutexGuard, PoisonError};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its result plus the telemetry delta it caused.
fn window<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = rfjson_telemetry::registry().snapshot();
    let out = f();
    (out, rfjson_telemetry::registry().snapshot().delta(&before))
}

/// Total records the runtime reported, summed over every outcome.
fn runtime_reported(d: &Snapshot) -> u64 {
    d.counter("runtime.matched")
        + d.counter("runtime.unmatched")
        + d.counter("runtime.skipped.too_long")
        + d.counter("runtime.skipped.record_limit")
}

/// `engine.bytes.*` summed over one call.
fn engine_bytes(d: &Snapshot) -> u64 {
    d.counter("engine.bytes.block") + d.counter("engine.bytes.prefilter_skipped")
}

/// `multi.bytes.*` summed over one call.
fn multi_bytes(d: &Snapshot) -> u64 {
    d.counter("multi.bytes.block") + d.counter("multi.bytes.prefilter_skipped")
}

#[test]
fn records_are_conserved_across_shard_counts() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    let corpus = smartcity_corpus(120);
    let stream = corpus.stream();
    let records = corpus.len() as u64;
    let expr = query_to_exprs(&Query::qs0(), 1).expect("query converts");
    // Limits that actually trigger both quarantine reasons: the record
    // budget cuts the stream in half, and a length cap inside the
    // 215–220-byte record distribution quarantines the longer records.
    let limits = IngestLimits {
        max_record_bytes: Some(217),
        max_records: Some(60),
    };

    for shards in SHARD_COUNTS {
        let mut runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&expr, shards);
        let (verdicts, d) = window(|| {
            runner
                .filter_stream_verdicts(&stream, limits)
                .expect("no faults injected")
        });
        assert_eq!(verdicts.len() as u64, records);
        // Law 1: the framing layer saw every record exactly once.
        assert_eq!(
            d.counter("framing.records"),
            records,
            "framing.records at {shards} shards"
        );
        // Law 2: every framed record became exactly one runtime verdict.
        assert_eq!(
            runtime_reported(&d),
            records,
            "verdict outcomes at {shards} shards"
        );
        assert_eq!(d.counter("runtime.records"), records);
        assert_eq!(d.counter("runtime.streams"), 1);
        // The limits were actually exercised: the budget overwrites
        // every verdict from index 60 on, and at least one of the first
        // 60 records exceeds the length cap.
        assert_eq!(d.counter("runtime.skipped.record_limit"), records - 60);
        assert!(d.counter("runtime.skipped.too_long") >= 1);
        assert_eq!(d.counter("runtime.lane_heals"), 0);
        // Law 3: per-shard record histogram sums back to the total
        // (prefix shards see all records; the budget is applied later).
        let shard_records = d
            .histogram("runtime.shard_records")
            .expect("recorded per shard");
        assert_eq!(shard_records.sum, records);
    }
}

#[test]
fn multi_records_are_conserved_across_shard_counts() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    let corpus = smartcity_corpus(90);
    let stream = corpus.stream();
    let records = corpus.len() as u64;
    let batch = [
        query_to_exprs(&Query::qs0(), 1).expect("query converts"),
        query_to_exprs(&Query::qs1(), 1).expect("query converts"),
    ];
    let limits = IngestLimits {
        max_record_bytes: None,
        max_records: Some(70),
    };

    for shards in SHARD_COUNTS {
        let mut runner: ShardedRunner<MultiEngine> = ShardedRunner::with_shards(&batch[..], shards);
        let (verdicts, d) = window(|| {
            runner
                .filter_stream_verdicts(&stream, limits)
                .expect("no faults injected")
        });
        assert_eq!(verdicts.num_records() as u64, records);
        assert_eq!(d.counter("framing.records"), records);
        assert_eq!(runtime_reported(&d), records);
        assert_eq!(d.counter("runtime.records"), records);
        assert_eq!(d.counter("runtime.skipped.record_limit"), records - 70);
        // The fused engines scored every record on some lane.
        assert_eq!(d.counter("multi.records"), records);
    }
}

/// The five `framing.*` counters of one call, in table order.
fn framing(d: &Snapshot) -> [u64; 5] {
    [
        "framing.records",
        "framing.blank_lines",
        "framing.cr_records",
        "framing.quarantined.too_long",
        "framing.quarantined.record_limit",
    ]
    .map(|name| d.counter(name))
}

#[test]
fn framing_counters_are_conserved_across_drivers() {
    let _guard = serialize();
    // CRLF and LF records, empty and CR-only blank lines, records over
    // the length cap, more records than the budget, and a trailing CR
    // record without a separator.
    let debris: &[u8] = b"{\"a\":3}\r\n\r\n\n{\"a\":9,\"pad\":\"xxxxxxxxxxxxxxxx\"}\r\n\r\r\n\
        {\"a\":4}\n{\"a\":2}\r\n{\"a\":1,\"pad\":\"yyyyyyyyyyyyyyyyy\"}\n\r\n";
    let mut stream = debris.repeat(5);
    stream.extend_from_slice(b"{\"a\":5}\r");
    let limits = IngestLimits {
        max_record_bytes: Some(24),
        max_records: Some(20),
    };
    let stream_expr = Expr::int_range(1, 5);
    let prefilter_expr = Expr::and([Expr::substring(b"\"a\"", 1).unwrap(), Expr::int_range(1, 5)]);
    let skipped = |v: &[Verdict]| v.iter().filter(|v| v.decision().is_none()).count() as u64;

    // Every serial driver: (name, skipped verdicts, framing deltas).
    let mut serial = Vec::new();
    let mut run = |name: &'static str, f: &mut dyn FnMut() -> u64| {
        let (skips, d) = window(f);
        serial.push((name, skips, framing(&d)));
    };
    run("byte-serial oracle", &mut || {
        let mut out = Vec::new();
        let mut lane = CompiledFilter::compile(&stream_expr);
        run_verdict_driver(&mut lane, &stream, limits, &mut out);
        skipped(&out)
    });
    run("engine record API", &mut || {
        let mut out = Vec::new();
        let mut lane = Engine::compile(&stream_expr);
        run_verdict_driver(&mut lane, &stream, limits, &mut out);
        skipped(&out)
    });
    run("engine stream path", &mut || {
        let mut engine = Engine::compile(&stream_expr);
        assert_eq!(engine.prefilter_status(), PrefilterStatus::Absent);
        skipped(&engine.filter_stream_verdicts(&stream, limits))
    });
    run("engine gated stream path", &mut || {
        let mut engine = Engine::compile(&prefilter_expr);
        assert_eq!(engine.prefilter_status(), PrefilterStatus::Probation);
        skipped(&engine.filter_stream_verdicts(&stream, limits))
    });
    run("fused batch", &mut || {
        let batch = [stream_expr.clone(), prefilter_expr.clone()];
        let v = rfjson_core::MultiBackend::filter_stream_verdicts(
            &mut MultiEngine::compile_batch(&batch),
            &stream,
            limits,
        );
        (0..v.num_records())
            .filter(|&r| v.skip(r).is_some())
            .count() as u64
    });

    let (_, skips, want) = serial[0];
    let [records, blank_lines, cr_records, too_long, record_limit] = want;
    if rfjson_telemetry::ENABLED {
        // The debris exercises every counter.
        assert!(want.iter().all(|&n| n > 0), "{want:?}");
        assert_eq!(records, 26);
    }
    for &(name, driver_skips, got) in &serial {
        assert_eq!(got, want, "{name}: framing.* deltas");
        assert_eq!(driver_skips, skips, "{name}: skipped verdicts");
    }
    // The quarantine counters account for every skipped verdict.
    let counted = if rfjson_telemetry::ENABLED { skips } else { 0 };
    assert_eq!(too_long + record_limit, counted);

    // The runner frames shard by shard and applies the record budget
    // after reassembly, so only the per-line counters must agree.
    for shards in SHARD_COUNTS {
        let mut runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&stream_expr, shards);
        let (verdicts, d) = window(|| {
            runner
                .filter_stream_verdicts(&stream, limits)
                .expect("no faults injected")
        });
        assert_eq!(skipped(&verdicts), skips, "skipped at {shards} shards");
        assert_eq!(
            framing(&d)[..3],
            [records, blank_lines, cr_records],
            "framing.{{records,blank_lines,cr_records}} at {shards} shards"
        );
    }
}

#[test]
fn bytes_are_conserved_on_serial_engine_streams() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    // RiotBench streams are pure `record\n` sequences (no CRs, no blank
    // lines). On the stream path every stream byte lands in exactly one
    // scan-path bucket, whether the prefilter is live or not: the word
    // kernel or a prefilter-rejected record with its separator. The
    // stream path pads the last word with separators instead of stepping
    // a tail. QS0's prefilter is live here (150 records, inside
    // probation) and rejects nothing.
    let corpus = smartcity_corpus(150);
    let stream = corpus.stream();
    let expr = query_to_exprs(&Query::qs0(), 1).expect("query converts");

    let mut engine = Engine::compile(&expr);
    let (decisions, d) = window(|| engine.filter_stream(&stream));
    assert_eq!(engine.prefilter_status(), PrefilterStatus::Probation);
    assert_eq!(decisions.len(), corpus.len());
    assert_eq!(
        engine_bytes(&d),
        stream.len() as u64,
        "single-query byte paths"
    );
    assert_eq!(d.counter("engine.prefilter.checked"), corpus.len() as u64);

    // A fused batch is a set of group engines over the records framed
    // once per call, each of which either scans a record or has its
    // prefilter reject it, separator included: the same two buckets,
    // once per group. Here the two SmartCity queries share a group that
    // scans everything and the Taxi query's group rejects everything.
    let batch = vec![
        expr,
        query_to_exprs(&Query::qs1(), 1).expect("query converts"),
        query_to_exprs(&Query::qt(), 2).expect("query converts"),
    ];
    let mut fused = MultiEngine::compile_batch(&batch);
    let groups = fused.groups().len() as u64;
    assert_eq!(groups, 2);
    let (verdicts, d) = window(|| {
        rfjson_core::MultiBackend::filter_stream_verdicts(
            &mut fused,
            &stream,
            IngestLimits::UNLIMITED,
        )
    });
    assert_eq!(verdicts.num_records(), corpus.len());
    assert_eq!(
        multi_bytes(&d),
        groups * stream.len() as u64,
        "fused byte paths"
    );
    assert_eq!(
        d.counter("multi.bytes.prefilter_skipped"),
        stream.len() as u64,
        "one group rejects every record"
    );
    // Every group disposes of every scored record one way or the other,
    // and the call is framed once, not once per group.
    let records = d.counter("multi.records");
    assert_eq!(records, corpus.len() as u64);
    assert_eq!(d.counter("framing.records"), records);
    assert_eq!(d.counter("multi.group_rejects"), records);
    assert_eq!(
        d.counter("multi.group_scans") + d.counter("multi.group_rejects"),
        groups * records
    );
    assert_eq!(d.gauge("multi.groups"), Some(2.0));
}

#[test]
fn the_stream_path_counts_every_byte_once_and_the_record_path_what_it_feeds() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    // A trailing record without its `\n`: the separator that closes it is
    // the driver's, not a stream byte.
    let trailing: &[u8] = br#"{"e":[{"v":"21.0","n":"temperature"}]}
{"e":[{"v":"99.0","n":"temperature"}]}
{"v":3,"n":"light"}"#;
    assert_eq!(trailing.len(), 97);
    // Blank and CR-only lines between records: 2 + 1 + 3 bytes with their
    // separators.
    let blanks: &[u8] = b"{\"v\":3}\n\r\n{\"v\":4}\r\n\n\r\r\n{\"v\":5}\n";
    let blank_bytes = 6;
    let temperature = Expr::context([
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::float_range("0.7", "35.1").unwrap(),
    ]);

    // The stream path, with or without a live prefilter: every stream
    // byte is counted once, by the line that owns it — a rejected line
    // and its separator as `prefilter_skipped`, every other byte (blank
    // lines and the sub-word tail included) as `block`. An `Or` root has
    // no prefilter; a fresh engine's `temperature` prefilter is live and
    // rejects the `light` record and all of `blanks`' records, so the
    // word the second record's separator shares with the third is
    // counted as the third's.
    let or_root = Expr::or([temperature.clone(), Expr::int_range(3, 4)]);
    let cases = [
        (&or_root, trailing, 0, 0),
        (&or_root, blanks, 0, 0),
        (&temperature, trailing, 1, 19),
        (&temperature, blanks, 3, blanks.len() - blank_bytes),
    ];
    for (expr, stream, rejected, rejected_bytes) in cases {
        let mut engine = Engine::compile(expr);
        let (decisions, d) = window(|| engine.filter_stream(stream));
        assert_eq!(decisions.len(), 3);
        assert_eq!(engine_bytes(&d), stream.len() as u64);
        assert_eq!(d.counter("engine.prefilter.rejected"), rejected);
        assert_eq!(
            d.counter("engine.bytes.prefilter_skipped"),
            rejected_bytes as u64
        );
        assert_eq!(d.counter("engine.records"), 3);
    }

    // The record path — the byte-serial record driver, which the engine
    // itself never takes, run on it directly — feeds the engine's model,
    // which counts nothing: the driver adds no `engine.*` counter.
    let mut engine = Engine::compile(&or_root);
    for stream in [trailing, blanks] {
        let (records, d) = window(|| {
            let mut out = Vec::new();
            run_verdict_driver(&mut engine, stream, IngestLimits::UNLIMITED, &mut out);
            out.len()
        });
        assert_eq!(records, 3);
        let engine_counters = d.filtered(&["engine."]).counters;
        assert!(engine_counters.is_empty(), "{engine_counters:?}");
        assert_eq!(d.counter("framing.records"), 3);
    }

    // A fused batch frames each call once and runs every group over the
    // framed records on the stream path: each group counts every stream
    // byte once, and disposes of every record by a scan or a reject.
    let batch = [temperature, Expr::int_range(3, 4)];
    let mut fused = MultiEngine::compile_batch(&batch);
    let groups = fused.groups().len() as u64;
    assert_eq!(groups, 2);
    for stream in [trailing, blanks] {
        let (_, d) = window(|| {
            rfjson_core::MultiBackend::filter_stream_verdicts(
                &mut fused,
                stream,
                IngestLimits::UNLIMITED,
            )
        });
        assert_eq!(multi_bytes(&d), groups * stream.len() as u64);
        assert_eq!(d.counter("multi.records"), 3);
        assert_eq!(
            d.counter("multi.group_scans") + d.counter("multi.group_rejects"),
            groups * 3
        );
        assert_eq!(d.counter("framing.records"), 3);
        let blank_lines = if stream == blanks { 3 } else { 0 };
        assert_eq!(d.counter("framing.blank_lines"), blank_lines);
    }
}

#[test]
fn a_stream_path_call_is_block_scanned_whole() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    // The resident queries on their own corpora. Each prefilter rejects
    // nothing there and disables itself after probation; from then on the
    // engine runs the stream path. The B = 2 queries (QT-B2, QTW) pool
    // their units in a block-hit automaton whose blocks are at most two
    // bytes, so it is definite and b = 2 runs the b = 1 word kernel.
    let table = |q: Query, b| query_to_exprs(&q, b).expect("query converts");
    let qtw = Expr::context_scoped(
        StructScope::Member,
        [
            Expr::substring(b"favourites_count", 2).unwrap(),
            Expr::int_range(100, 50_000),
        ],
    );
    let smartcity = smartcity_corpus(150);
    let taxi = taxi_corpus(150);
    let twitter = twitter_corpus(150);
    let cases = [
        ("QS0", table(Query::qs0(), 1), &smartcity, false),
        ("QS1", table(Query::qs1(), 1), &smartcity, false),
        ("QT", table(Query::qt(), 1), &taxi, false),
        ("QT-B2", table(Query::qt(), 2), &taxi, true),
        ("QTW", qtw, &twitter, true),
    ];
    for (name, expr, corpus, pooled) in cases {
        let stream = corpus.stream();
        let mut engine = Engine::compile(&expr);
        for _ in 0..4 {
            engine.filter_stream(&stream);
        }
        assert_eq!(
            engine.prefilter_status(),
            PrefilterStatus::Disabled,
            "{name}"
        );
        let (decisions, d) = window(|| engine.filter_stream(&stream));
        assert_eq!(decisions.len(), corpus.len(), "{name}");
        assert_eq!(engine_bytes(&d), stream.len() as u64, "{name}");
        assert_eq!(d.counter("engine.records"), corpus.len() as u64, "{name}");
        assert_eq!(d.counter("engine.prefilter.checked"), 0, "{name}");
        let automata: Vec<_> = engine.block_automaton_views().collect();
        assert_eq!(automata.len(), usize::from(pooled), "{name}");
        assert!(
            automata.iter().all(|a| a.definite && a.banks == 1),
            "{name}"
        );
    }
}

/// Every program runs the word kernel on every stream call, which counts
/// every stream byte once for an engine and once per group for a batch —
/// the wide programs of the zoo, alone and as one batch, and the five
/// resident queries, which group by shared needle.
#[test]
fn every_program_runs_the_kernel_on_every_stream_call() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    let stream: Vec<u8> = zoo::wide_program_records().join(&b'\n');
    let stream = [&stream[..], b"\n"].concat();
    let exprs = zoo::wide_programs();
    for expr in &exprs {
        let mut engine = Engine::compile(expr);
        for _ in 0..2 {
            let (verdicts, d) = window(|| engine.filter_stream(&stream));
            assert_eq!(verdicts.len(), zoo::wide_program_records().len());
            assert_eq!(engine_bytes(&d), stream.len() as u64, "`{expr}`");
        }
    }
    let resident: Vec<Expr> = [Query::qs0(), Query::qs1(), Query::qt()]
        .iter()
        .map(|q| query_to_exprs(q, 1).expect("query converts"))
        .chain([
            query_to_exprs(&Query::qt(), 2).expect("query converts"),
            Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"favourites_count", 2).unwrap(),
                    Expr::int_range(100, 50_000),
                ],
            ),
        ])
        .collect();
    let mixed = [
        smartcity_corpus(40).stream(),
        taxi_corpus(40).stream(),
        twitter_corpus(40).stream(),
    ]
    .concat();
    for (batch, stream) in [(&exprs, &stream), (&resident, &mixed)] {
        let mut fused = MultiEngine::compile_batch(batch);
        let groups = fused.groups().len() as u64;
        let (_, d) = window(|| {
            rfjson_core::MultiBackend::filter_stream_verdicts(
                &mut fused,
                stream,
                IngestLimits::UNLIMITED,
            )
        });
        assert_eq!(multi_bytes(&d), groups * stream.len() as u64);
    }
    let fused = MultiEngine::compile_batch(&resident);
    let groups: Vec<&[usize]> = fused
        .groups()
        .iter()
        .map(rfjson_core::multi::Group::members)
        .collect();
    assert_eq!(groups, [&[0, 1][..], &[2, 3], &[4]]);
}

#[test]
fn prefilter_probes_are_bounded_and_sublinear_on_a_miss_stream() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    let corpus = smartcity_corpus(150);
    let stream = corpus.stream();
    let content = (stream.len() - corpus.len()) as u64; // minus separators

    // Law 1: the prefilter looks at each byte of a record it checks at
    // most once per required unit. QS0's five attribute names occur in
    // every record, so this is the expensive side: nothing is rejected
    // and all five units are probed, widened and found.
    let qs0 = query_to_exprs(&Query::qs0(), 1).expect("query converts");
    let units = Prefilter::build(&qs0)
        .expect("required units")
        .required_units();
    assert_eq!(units, 5);
    let mut engine = Engine::compile(&qs0);
    let (_, d) = window(|| engine.filter_stream(&stream));
    assert_eq!(d.counter("engine.prefilter.checked"), corpus.len() as u64);
    assert_eq!(d.counter("engine.prefilter.rejected"), 0);
    let probed = d.counter("engine.prefilter.probed_bytes");
    assert!(probed > 0 && probed <= units as u64 * content, "{probed}");

    // Law 2, the sub-linear claim: SmartCity never reports `wind_speed`,
    // every record is rejected, and rejecting them took reading well
    // under half of the bytes the scan was spared.
    let q_miss = Expr::context([
        Expr::substring(b"wind_speed", 1).unwrap(),
        Expr::float_range("0.0", "99.0").unwrap(),
    ]);
    let mut engine = Engine::compile(&q_miss);
    let (decisions, d) = window(|| engine.filter_stream(&stream));
    assert!(decisions.iter().all(|m| !m));
    assert_eq!(d.counter("engine.prefilter.rejected"), corpus.len() as u64);
    // A rejected record costs nothing further: its separator is skipped
    // with it, so the whole stream is.
    let skipped = d.counter("engine.bytes.prefilter_skipped");
    assert_eq!(skipped, stream.len() as u64);
    let probed = d.counter("engine.prefilter.probed_bytes");
    assert!(probed > 0 && probed < skipped / 2, "{probed} of {skipped}");
}

#[test]
fn block_path_covers_wide_and_mixed_block_units() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    // A wide (B = 9) unit rides the block path: all but the records the
    // prefilter skips land in `engine.bytes.block`, separators included.
    let tweets = twitter::generate(7, 60).stream();
    let mut wide = Engine::compile(&Expr::substring(b"favourites_count", 9).unwrap());
    let (_, d) = window(|| wide.filter_stream(&tweets));
    assert_eq!(engine_bytes(&d), tweets.len() as u64);
    assert!(d.counter("engine.bytes.block") * 10 > tweets.len() as u64 * 9);

    // A batch of B ≥ 2 units of three block lengths, one group each (no
    // shared needle): every group that scans a record does so on the
    // block path, and the per-group books balance.
    let batch: Vec<Expr> = [
        (&b"tolls_amount"[..], 2),
        (b"total_amount", 3),
        (b"passenger_count", 9),
    ]
    .iter()
    .map(|(needle, b)| Expr::substring(needle, *b).unwrap())
    .collect();
    let rides = taxi::generate(8, 60).stream();
    let mut fused = MultiEngine::compile_batch(&batch);
    let groups = fused.groups().len() as u64;
    assert_eq!(groups, 3);
    let (_, d) = window(|| {
        rfjson_core::MultiBackend::filter_stream_verdicts(
            &mut fused,
            &rides,
            IngestLimits::UNLIMITED,
        )
    });
    assert_eq!(multi_bytes(&d), groups * rides.len() as u64);
    assert!(d.counter("multi.bytes.block") > 0);
    assert_eq!(
        d.counter("multi.group_scans") + d.counter("multi.group_rejects"),
        groups * d.counter("multi.records")
    );
    assert!(d.counter("multi.group_scans") > 0);
}

#[test]
fn bytes_and_records_are_conserved_under_panic_faults() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    silence_injected_panics();
    // One poison record: \x07 never occurs in the RiotBench corpora, so
    // the fault lands in the same record at every shard count. Panic
    // faults unwind before any driver flush, so the failed pass
    // contributes nothing and the model retry counts the shard once.
    let corpus = smartcity_corpus(80);
    let mut stream = corpus.stream();
    let insert_at = stream
        .iter()
        .position(|&b| b == b'\n')
        .expect("NDJSON stream")
        + 1;
    let mut poison = b"{\"bad\":\"\x07\"}\n".to_vec();
    let mut tail = stream.split_off(insert_at);
    stream.append(&mut poison);
    stream.append(&mut tail);
    let records = (corpus.len() + 1) as u64;

    let expr = query_to_exprs(&Query::qs0(), 1).expect("query converts");
    let mut reference = Engine::compile(&expr);
    let expected = reference.filter_stream(&stream);
    assert_eq!(expected.len() as u64, records);

    for shards in SHARD_COUNTS {
        let mut runner: ShardedRunner<FaultyBackend<Engine>> =
            ShardedRunner::with_shards(&expr, shards);
        let armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::Panic)
            .with_fuel(1)
            .arm();
        let (decisions, d) = window(|| runner.filter_stream(&stream));
        drop(armed);

        assert_eq!(decisions, expected, "verdicts survive the fault");
        // Exactly one injected fault: one heal, one retry, no double
        // fault — and the record/byte books still balance because only
        // the passes that completed flushed their tallies.
        assert_eq!(d.counter("runtime.lane_heals"), 1, "at {shards} shards");
        assert_eq!(d.counter("runtime.retries"), 1);
        assert_eq!(d.counter("runtime.double_faults"), 0);
        assert_eq!(d.counter("framing.records"), records);
        assert_eq!(runtime_reported(&d), records);
        assert_eq!(d.counter("runtime.bytes"), stream.len() as u64);
    }
}

#[test]
fn heal_count_equals_injected_fault_count() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    silence_injected_panics();
    let corpus = smartcity_corpus(60);
    let stream = corpus.stream();
    let expr = query_to_exprs(&Query::qs0(), 1).expect("query converts");

    // `{` opens every record, so an unlimited-fuel plan would fire on
    // every shard; fuel k bounds the process-wide injection count and
    // the heal counter must land on exactly k.
    for k in [1u64, 2, 3] {
        let mut runner: ShardedRunner<FaultyBackend<Engine>> = ShardedRunner::with_shards(&expr, 3);
        let armed = FaultPlan::new(Trigger::OnByteValue(b'{'), FaultKind::Panic)
            .with_fuel(k as usize)
            .arm();
        let (decisions, d) = window(|| runner.filter_stream(&stream));
        drop(armed);
        assert_eq!(decisions.len(), corpus.len());
        assert_eq!(d.counter("runtime.lane_heals"), k, "fuel {k}");
        assert_eq!(d.counter("runtime.retries"), k);
        assert_eq!(d.counter("runtime.double_faults"), 0);
        assert_eq!(d.counter("framing.records"), corpus.len() as u64);
        assert_eq!(runtime_reported(&d), corpus.len() as u64);
    }
}
