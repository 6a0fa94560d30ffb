//! Tour of the telemetry subsystem: run the pipeline, snapshot the
//! registry, diff snapshots, and read the conservation invariants.
//!
//! ```text
//! cargo run --example telemetry_tour
//! ```
//!
//! Everything here is `rfjson-telemetry`'s public surface: global
//! counters the engines/runtime flush into, [`Snapshot`] as the stable
//! JSON export, and [`Snapshot::delta`] for before/after windows.
//! Compile with `--no-default-features --features telemetry-off` and the
//! same program runs with every metric reading zero.

use rfjson_core::{Expr, IngestLimits};
use rfjson_riotbench::{smartcity_corpus, Query};
use rfjson_runtime::ShardedRunner;
use rfjson_telemetry::Snapshot;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "telemetry compiled {}\n",
        if rfjson_telemetry::ENABLED {
            "IN (default)"
        } else {
            "OUT (feature telemetry-off): every value below reads zero"
        }
    );

    // A small deterministic RiotBench corpus and the paper's QS0 query.
    let corpus = smartcity_corpus(200);
    let stream = corpus.stream();
    let expr = rfjson_core::query::query_to_exprs(&Query::qs0(), 1)?;

    // --- Window 1: sharded single-query filtering -------------------
    let before = rfjson_telemetry::registry().snapshot();
    let mut runner: ShardedRunner<rfjson_core::Engine> = ShardedRunner::with_shards(&expr, 3);
    let verdicts = runner.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)?;
    let window = rfjson_telemetry::registry().snapshot().delta(&before);

    println!("--- one sharded pass over {} records ---", verdicts.len());
    print_counters(&window, &["engine.", "framing.", "runtime."]);

    // The conservation law the invariant tests pin: every record framed
    // is reported exactly once.
    let reported = window.counter("runtime.matched")
        + window.counter("runtime.unmatched")
        + window.counter("runtime.skipped.too_long")
        + window.counter("runtime.skipped.record_limit");
    println!(
        "\nconservation: framing.records = {}, runtime verdicts = {}",
        window.counter("framing.records"),
        reported
    );
    assert!(!rfjson_telemetry::ENABLED || reported == window.counter("runtime.records"));

    // --- Window 2: a fused multi-query batch ------------------------
    let before = rfjson_telemetry::registry().snapshot();
    let batch: Vec<Expr> = vec![
        expr.clone(),
        rfjson_core::query::query_to_exprs(&Query::qs1(), 1)?,
    ];
    let mut multi: ShardedRunner<rfjson_core::MultiEngine> =
        ShardedRunner::with_shards(&batch[..], 2);
    let batch_verdicts = multi.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)?;
    let window = rfjson_telemetry::registry().snapshot().delta(&before);

    println!(
        "\n--- one fused pass: {} queries x {} records ---",
        batch.len(),
        batch_verdicts.num_records()
    );
    print_counters(&window, &["multi.", "framing.", "runtime."]);

    // --- The export surface -----------------------------------------
    println!("\n--- snapshot JSON (runtime.* only) ---");
    let full = rfjson_telemetry::registry().snapshot();
    println!("{}", full.filtered(&["runtime."]).to_json());
    Ok(())
}

/// Prints the counters of `snap` under any of `prefixes`, sorted.
fn print_counters(snap: &Snapshot, prefixes: &[&str]) {
    let filtered = snap.filtered(prefixes);
    for (name, value) in &filtered.counters {
        println!("  {name:<32} {value}");
    }
    if filtered.counters.is_empty() {
        println!("  (no counters recorded — telemetry-off build)");
    }
}
