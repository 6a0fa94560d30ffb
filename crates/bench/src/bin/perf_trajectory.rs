//! Performance trajectory: software filtering throughput (MB/s) of the
//! cosim-faithful byte-serial model, the flat batch engine, and the
//! sharded parallel runtime, on the paper's query workloads, written as
//! machine-readable JSON.
//!
//! Each PR that touches a hot path reruns this and checks in a
//! `BENCH_PR<N>.json` at the repo root; the sequence of files is the
//! repo's perf trajectory and future PRs are held to it.
//!
//! ```text
//! cargo run -p rfjson-bench --bin perf_trajectory --release -- \
//!     [--quick] [--telemetry] [--pr N] [--threads N] [--shards N] \
//!     [--out BENCH_PRN.json]
//! ```
//!
//! `--quick` shrinks the corpora and iteration count for CI smoke use;
//! `--telemetry` embeds a per-workload `rfjson-telemetry` snapshot delta
//! (the pipeline counters accumulated across that workload's passes);
//! `--pr N` stamps the measurement (and the default output filename) for
//! PR N; `--threads N` overrides the detected hardware parallelism (the
//! reported `threads_available` and the default lane count — the knob
//! that makes parallel numbers meaningful on a 1-core container);
//! `--shards N` pins the parallel runner's lane count directly and wins
//! over `--threads`. The binary always cross-checks that engine, model,
//! sharded runner, and the fused multi-query plan produce identical
//! per-record decisions and exits non-zero on any divergence.
//!
//! Besides the PR 2 workloads (QS0/QS1/QT/QTW at standard corpus size),
//! a multi-MB inflated workload (`QT-XL`, the paper's §IV-B "inflated
//! JSON data" construction) exercises the sharded path at the stream
//! sizes where fan-out matters, and the `MQ-*` multi-query workloads run
//! **all five RiotBench query expressions as one fused batch** against
//! five independent serial engine passes — the scan-sharing measurement
//! of the subscription-serving deployment model. `MQ-MIX` runs them over
//! the three sources interleaved record by record, where every record
//! concerns one group of the batch and the others route it away.

use rfjson_core::engine::Engine;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::multi::{MultiBackend, MultiEngine};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{FilterBackend, IngestLimits};
use rfjson_jsonstream::frame::split_records;
use rfjson_riotbench::{smartcity_corpus, taxi_corpus, twitter_corpus, Dataset, Query};
use rfjson_runtime::ShardedRunner;
use rfjson_telemetry::Snapshot;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Schema identifier for `BENCH_*.json` consumers (v5 adds the
/// top-level `telemetry_enabled` flag and, under `--telemetry`, a
/// per-workload `telemetry` object: the `rfjson-telemetry` snapshot
/// *delta* accumulated across that workload's cross-checks and timed
/// passes — pipeline counters riding along with the throughput numbers).
const SCHEMA: &str = "rfjson-perf-trajectory/v5";
/// Default `--pr` value: the PR that last reran the trajectory.
const DEFAULT_PR: u32 = 10;

struct WorkloadResult {
    name: String,
    dataset: String,
    records: usize,
    stream_bytes: usize,
    expr: String,
    accepted: usize,
    model_mbps: f64,
    engine_mbps: f64,
    block_mbps: f64,
    prefilter_hit_rate: f64,
    prefilter_state: String,
    parallel_mbps: f64,
    shards: usize,
    /// Telemetry snapshot delta across this workload's passes
    /// (`--telemetry` only).
    telemetry: Option<Snapshot>,
}

struct MultiWorkloadResult {
    name: String,
    dataset: String,
    records: usize,
    stream_bytes: usize,
    queries: usize,
    /// All queries served by N independent engine passes (stream bytes
    /// over the *total* time of the N passes — the cost fused execution
    /// is up against).
    serial_mbps: f64,
    /// All queries served by one fused pass.
    fused_mbps: f64,
    parallel_fused_mbps: f64,
    shards: usize,
    units_total: usize,
    units_pool: usize,
    units_shared: usize,
    /// Telemetry snapshot delta across this workload's passes
    /// (`--telemetry` only).
    telemetry: Option<Snapshot>,
}

impl MultiWorkloadResult {
    /// How much cheaper one fused scan is than N serial scans.
    fn scan_sharing_factor(&self) -> f64 {
        ratio(self.fused_mbps, self.serial_mbps)
    }

    fn parallel_speedup(&self) -> f64 {
        ratio(self.parallel_fused_mbps, self.fused_mbps)
    }
}

impl WorkloadResult {
    fn engine_speedup(&self) -> f64 {
        ratio(self.engine_mbps, self.model_mbps)
    }

    fn parallel_speedup(&self) -> f64 {
        ratio(self.parallel_mbps, self.engine_mbps)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Best-of-`iters` throughput of one closure over `bytes` input bytes.
fn best_mbps(bytes: usize, iters: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    bytes as f64 / best / 1e6
}

/// Snapshot-the-world entry hook for `--telemetry`: the per-workload
/// delta is everything the whole pipeline recorded while the workload
/// ran (cross-checks and timed passes included).
fn telemetry_before(enabled: bool) -> Option<Snapshot> {
    enabled.then(|| rfjson_telemetry::registry().snapshot())
}

fn telemetry_delta(before: Option<Snapshot>) -> Option<Snapshot> {
    before.map(|b| rfjson_telemetry::registry().snapshot().delta(&b))
}

fn measure(
    name: &str,
    expr: &Expr,
    dataset: &Dataset,
    iters: usize,
    shards: usize,
    telemetry: bool,
) -> WorkloadResult {
    let tele_before = telemetry_before(telemetry);
    let stream = dataset.stream();
    let mut model = CompiledFilter::compile(expr);
    let mut engine = Engine::compile(expr);
    let mut runner: ShardedRunner<Engine> = ShardedRunner::with_shards(expr, shards);

    let model_decisions = model.filter_stream(&stream);
    let engine_decisions = engine.filter_stream(&stream);
    let parallel_decisions = runner.filter_stream(&stream);
    if model_decisions != engine_decisions {
        eprintln!("FATAL: engine and model decisions diverge on {name}");
        std::process::exit(1);
    }
    if parallel_decisions != engine_decisions {
        eprintln!("FATAL: sharded runner and engine decisions diverge on {name}");
        std::process::exit(1);
    }

    // Prefilter hit rate: fraction of records the literal prefilter
    // proved NoMatch on the first (decision-checked) pass above.
    let (checked, rejected) = engine.prefilter_stats();
    let prefilter_hit_rate = if checked > 0 {
        rejected as f64 / checked as f64
    } else {
        0.0
    };

    let model_mbps = best_mbps(stream.len(), iters, || {
        black_box(model.filter_stream(black_box(&stream)));
    });
    let mut out = Vec::new();
    let engine_mbps = best_mbps(stream.len(), iters, || {
        out.clear();
        engine.filter_stream_into(black_box(&stream), &mut out);
        black_box(out.len());
    });
    // The block-scan kernel with framing excluded: records pre-split,
    // one `on_block` + separator byte + reset per record.
    let recs: Vec<&[u8]> = split_records(&stream).collect();
    let block_mbps = best_mbps(stream.len(), iters, || {
        let mut accepted = 0usize;
        for r in &recs {
            let last = engine.on_block(black_box(r));
            accepted += usize::from(engine.on_byte(b'\n') || last);
            engine.reset();
        }
        black_box(accepted);
    });
    let parallel_mbps = best_mbps(stream.len(), iters, || {
        out.clear();
        runner.filter_stream_into(black_box(&stream), &mut out);
        black_box(out.len());
    });

    WorkloadResult {
        name: name.to_string(),
        dataset: dataset.name().to_string(),
        records: dataset.len(),
        stream_bytes: stream.len(),
        expr: expr.to_string(),
        accepted: engine_decisions.iter().filter(|m| **m).count(),
        model_mbps,
        engine_mbps,
        block_mbps,
        prefilter_hit_rate,
        // Captured after every timed pass: with enough records the
        // prefilter has left probation and settled on live (it keeps
        // rejecting) or disabled (the stream proved unselective).
        prefilter_state: engine.prefilter_status().to_string(),
        parallel_mbps,
        shards,
        telemetry: telemetry_delta(tele_before),
    }
}

/// Measures one fused multi-query workload: the whole `exprs` batch over
/// `dataset`, serial N-pass engines vs the fused [`MultiEngine`] vs the
/// sharded fused runner, with full decision cross-checks.
fn measure_multi(
    name: &str,
    exprs: &[Expr],
    dataset: &Dataset,
    iters: usize,
    shards: usize,
    telemetry: bool,
) -> MultiWorkloadResult {
    let tele_before = telemetry_before(telemetry);
    let stream = dataset.stream();
    let mut engines: Vec<Engine> = exprs.iter().map(Engine::compile).collect();
    let mut fused = MultiEngine::compile_batch(exprs);
    let mut runner: ShardedRunner<MultiEngine> = ShardedRunner::with_shards(exprs, shards);

    // Cross-check: every fused per-query verdict vector must be
    // byte-identical to the single-query engine's, and the sharded fused
    // plan to the serial fused plan.
    let fused_verdicts = fused.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
    for (q, engine) in engines.iter_mut().enumerate() {
        let single = engine.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        if fused_verdicts.query_verdicts(q) != single {
            eprintln!("FATAL: fused and single-query decisions diverge on {name} query {q}");
            std::process::exit(1);
        }
    }
    match runner.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED) {
        Ok(v) if v == fused_verdicts => {}
        _ => {
            eprintln!("FATAL: sharded fused and serial fused decisions diverge on {name}");
            std::process::exit(1);
        }
    }

    // Serial baseline: the same N queries as N independent full passes
    // (reusing one decision buffer — the honest cost of serving the
    // batch without scan sharing).
    let mut out = Vec::new();
    let serial_mbps = best_mbps(stream.len(), iters, || {
        for engine in &mut engines {
            out.clear();
            engine.filter_stream_into(black_box(&stream), &mut out);
            black_box(out.len());
        }
    });
    let mut batch_out = fused_verdicts.clone();
    let fused_mbps = best_mbps(stream.len(), iters, || {
        batch_out.clear();
        fused.filter_stream_verdicts_into(
            black_box(&stream),
            IngestLimits::UNLIMITED,
            &mut batch_out,
        );
        black_box(batch_out.num_records());
    });
    let parallel_fused_mbps = best_mbps(stream.len(), iters, || {
        let v = runner
            .filter_stream_verdicts(black_box(&stream), IngestLimits::UNLIMITED)
            .expect("no faults injected");
        black_box(v.num_records());
    });

    let stats = fused.share_stats();
    MultiWorkloadResult {
        name: name.to_string(),
        dataset: dataset.name().to_string(),
        records: dataset.len(),
        stream_bytes: stream.len(),
        queries: exprs.len(),
        serial_mbps,
        fused_mbps,
        parallel_fused_mbps,
        shards,
        units_total: stats.total_units(),
        units_pool: stats.pool.total(),
        units_shared: stats.shared_units(),
        telemetry: telemetry_delta(tele_before),
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Re-indents a multi-line JSON value so it nests at `pad` (the first
/// line stays in place after its `"key": ` prefix).
fn indent_json(json: &str, pad: &str) -> String {
    let mut lines = json.lines();
    let mut s = lines.next().unwrap_or("{}").to_string();
    for line in lines {
        s.push('\n');
        s.push_str(pad);
        s.push_str(line);
    }
    s
}

fn to_json(
    pr: u32,
    quick: bool,
    threads: usize,
    telemetry: bool,
    results: &[WorkloadResult],
    multi: &[MultiWorkloadResult],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"pr\": {pr},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"telemetry_enabled\": {telemetry},");
    let _ = writeln!(s, "  \"threads_available\": {threads},");
    s.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", json_escape(&r.name));
        let _ = writeln!(s, "      \"dataset\": \"{}\",", json_escape(&r.dataset));
        let _ = writeln!(s, "      \"records\": {},", r.records);
        let _ = writeln!(s, "      \"stream_bytes\": {},", r.stream_bytes);
        let _ = writeln!(s, "      \"expr\": \"{}\",", json_escape(&r.expr));
        let _ = writeln!(s, "      \"accepted\": {},", r.accepted);
        let _ = writeln!(s, "      \"model_mbps\": {:.3},", r.model_mbps);
        let _ = writeln!(s, "      \"engine_mbps\": {:.3},", r.engine_mbps);
        let _ = writeln!(s, "      \"block_mbps\": {:.3},", r.block_mbps);
        let _ = writeln!(
            s,
            "      \"prefilter_hit_rate\": {:.4},",
            r.prefilter_hit_rate
        );
        let _ = writeln!(
            s,
            "      \"prefilter_state\": \"{}\",",
            json_escape(&r.prefilter_state)
        );
        let _ = writeln!(s, "      \"speedup\": {:.3},", r.engine_speedup());
        let _ = writeln!(s, "      \"parallel_mbps\": {:.3},", r.parallel_mbps);
        let _ = writeln!(s, "      \"parallel_shards\": {},", r.shards);
        let _ = writeln!(
            s,
            "      \"parallel_speedup\": {:.3},",
            r.parallel_speedup()
        );
        if let Some(t) = &r.telemetry {
            let _ = writeln!(
                s,
                "      \"telemetry\": {},",
                indent_json(&t.to_json(), "      ")
            );
        }
        s.push_str("      \"decisions_agree\": true\n");
        s.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"multi_workloads\": [\n");
    for (i, r) in multi.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", json_escape(&r.name));
        let _ = writeln!(s, "      \"dataset\": \"{}\",", json_escape(&r.dataset));
        let _ = writeln!(s, "      \"records\": {},", r.records);
        let _ = writeln!(s, "      \"stream_bytes\": {},", r.stream_bytes);
        let _ = writeln!(s, "      \"queries\": {},", r.queries);
        let _ = writeln!(s, "      \"serial_mbps\": {:.3},", r.serial_mbps);
        let _ = writeln!(s, "      \"fused_mbps\": {:.3},", r.fused_mbps);
        let _ = writeln!(
            s,
            "      \"scan_sharing_factor\": {:.3},",
            r.scan_sharing_factor()
        );
        let _ = writeln!(
            s,
            "      \"parallel_fused_mbps\": {:.3},",
            r.parallel_fused_mbps
        );
        let _ = writeln!(s, "      \"parallel_shards\": {},", r.shards);
        let _ = writeln!(
            s,
            "      \"parallel_speedup\": {:.3},",
            r.parallel_speedup()
        );
        let _ = writeln!(s, "      \"units_total\": {},", r.units_total);
        let _ = writeln!(s, "      \"units_pool\": {},", r.units_pool);
        let _ = writeln!(s, "      \"units_shared\": {},", r.units_shared);
        if let Some(t) = &r.telemetry {
            let _ = writeln!(
                s,
                "      \"telemetry\": {},",
                indent_json(&t.to_json(), "      ")
            );
        }
        s.push_str("      \"decisions_agree\": true\n");
        s.push_str(if i + 1 == multi.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    arg_value(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("FATAL: {flag} expects a number, got {v:?}");
            std::process::exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let pr: u32 = parse_flag(&args, "--pr").unwrap_or(DEFAULT_PR);
    // `--threads` overrides the detected parallelism (and thereby the
    // default lane count); `--shards` pins the lane count directly.
    let threads: usize = parse_flag(&args, "--threads")
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .max(1);
    let shards: usize = parse_flag(&args, "--shards").unwrap_or(threads).max(1);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| format!("BENCH_PR{pr}.json"));

    // Best-of-N timing needs enough iterations to catch a clean
    // scheduling window on a shared box: transient neighbour load
    // throttles multi-second spans, so the XL workloads get extra
    // repetitions rather than longer single passes.
    let (records, iters, xl_bytes, xl_iters) = if quick {
        (300, 3, 512 * 1024, 3)
    } else {
        (1500, 9, 6 * 1024 * 1024, 7)
    };
    let smartcity = smartcity_corpus(records);
    let taxi = taxi_corpus(records);
    let twitter = twitter_corpus(records);
    // The §IV-B "inflated JSON data" construction: the multi-MB stream
    // where sharding matters.
    let taxi_xl = taxi.inflated_to(xl_bytes);
    // One resident batch serving three sources at once.
    let sources = [&smartcity, &taxi, &twitter];
    let interleaved =
        (0..records).flat_map(|i| sources.iter().map(move |d| d.records()[i].clone()));
    let mixed = Dataset::new("mixed", interleaved.collect());

    // The paper's Table VIII queries in their most accurate structural
    // form, plus a string-heavy Twitter workload (no Table VIII query
    // exists for Twitter; favourites_count is a flat member, so the
    // member-scoped pair mirrors the taxi construction).
    let qtw = Expr::context_scoped(
        StructScope::Member,
        [
            Expr::substring(b"favourites_count", 2).expect("valid needle"),
            Expr::int_range(100, 50_000),
        ],
    );
    let qs0 = query_to_exprs(&Query::qs0(), 1).expect("query converts");
    let qs1 = query_to_exprs(&Query::qs1(), 1).expect("query converts");
    let qt_b1 = query_to_exprs(&Query::qt(), 1).expect("query converts");
    let qt_b2 = query_to_exprs(&Query::qt(), 2).expect("query converts");
    // A query whose required literal never occurs in the corpus
    // (smartcity sensors report temperature/humidity/light/dust/
    // airquality_raw — never wind_speed): the literal prefilter proves
    // every record NoMatch and stays live, demonstrating the fast-reject
    // path the RiotBench queries can never trigger (their attribute
    // names appear in every record, so their prefilters self-disable).
    let q_miss = Expr::context([
        Expr::substring(b"wind_speed", 1).expect("valid needle"),
        Expr::float_range("0.0", "99.0").expect("valid range"),
    ]);
    // All five RiotBench query expressions as one resident batch — the
    // fused multi-query workload.
    let batch = vec![
        qs0.clone(),
        qs1.clone(),
        qt_b1.clone(),
        qt_b2.clone(),
        qtw.clone(),
    ];
    let workloads: Vec<(&str, Expr, &Dataset, usize)> = vec![
        ("QS0", qs0, &smartcity, iters),
        ("QS1", qs1, &smartcity, iters),
        ("QT", qt_b1, &taxi, iters),
        ("QT-B2", qt_b2.clone(), &taxi, iters),
        ("QTW", qtw, &twitter, iters),
        ("QT-XL", qt_b2, &taxi_xl, xl_iters),
        ("Q-MISS", q_miss, &smartcity, iters),
    ];

    println!(
        "perf trajectory (PR {pr}){} — model vs engine vs sharded runner ({shards} shards, {threads} threads available)\n",
        if quick { " [quick]" } else { "" }
    );
    println!(
        "{:<6} {:<10} {:>8} {:>12} {:>13} {:>12} {:>8} {:>9} {:>15} {:>10}",
        "query",
        "dataset",
        "records",
        "model MB/s",
        "engine MB/s",
        "block MB/s",
        "prefilt",
        "speedup",
        "parallel MB/s",
        "par/eng"
    );
    let mut results = Vec::new();
    for (name, expr, dataset, w_iters) in &workloads {
        let r = measure(name, expr, dataset, *w_iters, shards, telemetry);
        println!(
            "{:<6} {:<10} {:>8} {:>12.1} {:>13.1} {:>12.1} {:>7.1}% {:>8.2}x {:>15.1} {:>9.2}x  [prefilter {}]",
            r.name,
            r.dataset,
            r.records,
            r.model_mbps,
            r.engine_mbps,
            r.block_mbps,
            r.prefilter_hit_rate * 100.0,
            r.engine_speedup(),
            r.parallel_mbps,
            r.parallel_speedup(),
            r.prefilter_state
        );
        results.push(r);
    }

    println!(
        "\nfused multi-query ({} resident queries) — serial N passes vs one fused scan\n",
        batch.len()
    );
    println!(
        "{:<9} {:<10} {:>8} {:>13} {:>12} {:>9} {:>15} {:>10} {:>16}",
        "workload",
        "dataset",
        "records",
        "serial MB/s",
        "fused MB/s",
        "sharing",
        "par-fused MB/s",
        "par/fused",
        "units (pool/Σ)"
    );
    let multi_workloads: Vec<(&str, &Dataset, usize)> = vec![
        ("MQ-QS0", &smartcity, iters),
        ("MQ-QT", &taxi, iters),
        ("MQ-QT-XL", &taxi_xl, xl_iters),
        ("MQ-MIX", &mixed, iters),
    ];
    let mut multi_results = Vec::new();
    for (name, dataset, w_iters) in &multi_workloads {
        let r = measure_multi(name, &batch, dataset, *w_iters, shards, telemetry);
        println!(
            "{:<9} {:<10} {:>8} {:>13.1} {:>12.1} {:>8.2}x {:>15.1} {:>9.2}x {:>11}/{}",
            r.name,
            r.dataset,
            r.records,
            r.serial_mbps,
            r.fused_mbps,
            r.scan_sharing_factor(),
            r.parallel_fused_mbps,
            r.parallel_speedup(),
            r.units_pool,
            r.units_total
        );
        multi_results.push(r);
    }

    let json = to_json(pr, quick, threads, telemetry, &results, &multi_results);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("FATAL: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out_path}");
}
