//! Lints the built-in RiotBench queries through the static verification
//! passes, and reports how each compiled query lays out its lanes.
//!
//! ```text
//! verify [--verbose] [--telemetry] [--b LIST] [QUERY...]
//! ```
//!
//! * `QUERY…` — query names (`QS0`, `QS1`, `QT`); default: all of them.
//! * `--b LIST` — comma-separated substring block lengths to lint each
//!   query at (default `1,2`, the configurations the paper evaluates).
//! * `--verbose` — also print info-severity diagnostics (automaton sink
//!   structure, netlist statistics).
//! * `--telemetry` — after the passes, print the `verify.*` telemetry
//!   snapshot (lint counts) as JSON.
//!
//! Every verdict line ends with the lane layout the word kernel runs for
//! that compiled query — `[lanes: s1 banks 1, automaton banks 1+2,
//! reference 0]`: the banks of eight B = 1 lanes, the banks of each
//! block-hit automaton (`-` for none) and the reference lanes stepped by
//! their matchers — and with what pooling its number ranges came to:
//! `[numbers: 6 anchored units → 66 rows]`, the technique of the units
//! and the rows of one product automaton for all of them (`3 token units
//! → 20 rows, 2 anchored units → 14 rows` where both techniques meet).
//!
//! After the per-query passes, every expressible (query, b) expression
//! of the selection is fused into one batch and linted through the
//! `M0xx` multi-program pass (lane invariants against the group's shared
//! units, independent dedup-census recomputation), the `B0xx` pass over
//! each group's block-hit automaton and the `N02x` pass over its number
//! automata. The batch's verdict line is followed by one line per group
//! the batch was partitioned into: its member queries, its node count,
//! its units, its lane layout and its number pooling.
//!
//! Exits with status 1 if any error-severity diagnostic is reported, or
//! 2 on usage errors.

#![forbid(unsafe_code)]

use rfjson_core::query::query_to_exprs;
use rfjson_core::{Engine, MultiEngine, NumberTechnique};
use rfjson_riotbench::Query;
use rfjson_verify::{multi::verify_batch, verify_query, Severity};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: verify [--verbose] [--telemetry] [--b LIST] [QUERY...]");
    ExitCode::from(2)
}

/// `N anchored units → R rows` of an engine's number automata, per
/// technique (`R+R'` where the row cap split them), or `none`.
fn number_pooling(engine: &Engine) -> String {
    let mut parts = Vec::new();
    for technique in [NumberTechnique::Token, NumberTechnique::Anchored] {
        let views = || {
            engine
                .number_automaton_views()
                .filter(move |v| v.technique == technique)
        };
        let units: usize = views().map(|v| v.units.len()).sum();
        if units > 0 {
            let rows: Vec<String> = views()
                .map(|v| (v.fires.len() / v.words).to_string())
                .collect();
            let name = format!("{technique:?}").to_lowercase();
            parts.push(format!("{units} {name} units → {} rows", rows.join("+")));
        }
    }
    if parts.is_empty() {
        return "none".to_string();
    }
    parts.join(", ")
}

/// `s1 banks S, automaton banks A+B, reference R`: an engine's lane
/// layout.
fn lane_layout(engine: &Engine) -> String {
    let banks: Vec<String> = engine
        .block_automaton_views()
        .map(|v| v.banks.to_string())
        .collect();
    let banks = if banks.is_empty() {
        "-".to_string()
    } else {
        banks.join("+")
    };
    format!(
        "s1 banks {}, automaton banks {banks}, reference {}",
        engine.sub1_banks(),
        engine.reference_lanes().count()
    )
}

fn main() -> ExitCode {
    let mut verbose = false;
    let mut telemetry = false;
    let mut blocks: Vec<usize> = vec![1, 2];
    let mut queries: Vec<Query> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--telemetry" => telemetry = true,
            "--b" => {
                let Some(list) = args.next() else {
                    return usage();
                };
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(str::trim).map(str::parse).collect();
                match parsed {
                    Ok(bs) if !bs.is_empty() => blocks = bs,
                    _ => return usage(),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            name => match Query::by_name(name) {
                Some(q) => queries.push(q),
                None => {
                    eprintln!("unknown query {name:?} (built-ins: QS0, QS1, QT)");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if queries.is_empty() {
        queries = Query::all();
    }

    let min_shown = if verbose {
        Severity::Info
    } else {
        Severity::Warning
    };
    let mut failed = false;
    let mut batch = Vec::new();
    for query in &queries {
        for &b in &blocks {
            let expr = match query_to_exprs(query, b) {
                Ok(expr) => expr,
                Err(e) => {
                    // A block length inapplicable to this query (e.g. a
                    // needle shorter than B) is a skip, not a failure.
                    println!("skip {} (b={b}): {e}", query.name);
                    continue;
                }
            };
            let engine = Engine::compile(&expr);
            let (lanes, numbers) = (lane_layout(&engine), number_pooling(&engine));
            batch.push(expr);
            let report = verify_query(query, b).expect("the expression was just derived");
            rfjson_telemetry::counter("verify.queries.linted").incr();
            let verdict = if report.has_errors() {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{:4} {} [lanes: {lanes}] [numbers: {numbers}]",
                verdict,
                report.summary()
            );
            for d in report.at_least(min_shown) {
                println!("       {d}");
            }
        }
    }

    // Fused batch lint: all expressible selections as one multi-query
    // plan through the M0xx pass.
    if !batch.is_empty() {
        let name = format!("fused batch ({} queries)", batch.len());
        match verify_batch(&batch, &name) {
            Ok(report) => {
                let fused = MultiEngine::compile_batch(&batch);
                rfjson_telemetry::counter("verify.batches.linted").incr();
                let verdict = if report.has_errors() {
                    failed = true;
                    "FAIL"
                } else {
                    "ok"
                };
                println!("{:4} {}", verdict, report.summary());
                for (g, group) in fused.groups().iter().enumerate() {
                    let engine = group.engine();
                    println!(
                        "       group {g}: queries {:?}, {} nodes, {} units [lanes: {}] [numbers: {}]",
                        group.members(),
                        engine.num_nodes(),
                        engine.unit_counts().total(),
                        lane_layout(engine),
                        number_pooling(engine)
                    );
                }
                for d in report.at_least(min_shown) {
                    println!("       {d}");
                }
            }
            Err(e) => {
                eprintln!("FAIL fused batch failed to compile: {e}");
                failed = true;
            }
        }
    }

    if telemetry {
        let snapshot = rfjson_telemetry::registry()
            .snapshot()
            .filtered(&["verify."]);
        println!("{}", snapshot.to_json());
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
