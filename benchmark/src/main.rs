//! The repo's benchmark: calibration-normalised end-to-end throughput,
//! filtered share and set-up time on six workloads, and a per-layer
//! ladder timed from outside. README.md has the method and the tables.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--seed S] [--workload NAME]... [--seconds N] [--trace 0|1] [--out DIR]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare <a> <b>
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each runs
//! untraced (end-to-end metrics) and then traced (per-layer metrics).

#![forbid(unsafe_code)]

mod calib;
mod compare;
mod corpus;
mod endtoend;
mod host;
mod ladder;
mod report;
mod stats;
mod workloads;

use calib::Calibrator;
use report::{num, text, Metric, RunFacts, WorkloadResult};
use rfjson_jsonstream::{parse, Value};
use stats::throughput_summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Spec};

const DEFAULT_SEED: u64 = 2022;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// `out/` next to this package's manifest, wherever the command runs.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug)]
struct RunArgs {
    seed: u64,
    workloads: Vec<String>,
    seconds: f64,
    /// `None`: untraced, then traced.
    trace: Option<bool>,
    out: PathBuf,
}

#[derive(Debug)]
enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn usage() -> String {
    format!(
        "usage: benchmark [--seed S] [--workload NAME]... [--seconds N] [--trace 0|1] [--out DIR]\n\
         \x20      benchmark compare <a.json|dir> <b.json|dir>\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two result files or directories".into()),
        };
    }
    let mut run = RunArgs {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: DEFAULT_OUT.into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--workload" => {
                let v = value()?;
                if Spec::by_name(v).is_none() {
                    return Err(format!("unknown workload: {v}"));
                }
                run.workloads.push(v.clone());
            }
            "--seconds" => {
                let v = value()?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: not a positive number: {v}"))?;
            }
            "--trace" => {
                run.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                });
            }
            "--out" => run.out = value()?.into(),
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = workloads::NAMES.iter().map(ToString::to_string).collect();
    }
    Ok(Command::Run(run))
}

/// Counts and identities recorded next to a workload's metrics.
fn facts(
    spec: &Spec,
    corpus: &corpus::Corpus,
    e2e: &endtoend::EndToEnd,
) -> Vec<(&'static str, Value)> {
    let hashes = corpus
        .segment_hashes()
        .iter()
        .map(|h| text(&format!("{h:016x}")))
        .collect();
    let queries = spec.queries.iter().map(|q| text(q.name)).collect();
    let mut facts = vec![
        ("queries", Value::Array(queries)),
        ("passes", num(e2e.cost.n as f64)),
        ("setup_reps", num(e2e.setup_s.n as f64)),
        ("records", num(corpus.records as f64)),
        ("bytes", num(corpus.bytes() as f64)),
        ("segment_hashes", Value::Array(hashes)),
    ];
    if spec.kind == Kind::SenmlPipeline {
        facts.push(("pipeline_hits", num(e2e.hits.0 as f64)));
        facts.push(("parse_everything_hits", num(e2e.hits.1 as f64)));
    }
    facts
}

fn untraced_result(
    spec: &Spec,
    corpus: &corpus::Corpus,
    e2e: &endtoend::EndToEnd,
    lanes: usize,
) -> WorkloadResult {
    let throughput = throughput_summary(&e2e.cost);
    // One lane: the cheap decile of the samples (the p90 of the
    // throughputs). Several lanes: their median. README, "Which statistic
    // of the samples".
    let (mbps_norm, setup_s) = if lanes > 1 {
        (throughput.p50, e2e.setup_s.p50)
    } else {
        (throughput.p90, e2e.setup_s.p10)
    };
    WorkloadResult {
        workload: spec.name,
        traced: false,
        ops: e2e.ops,
        metrics: vec![
            Metric::sampled("mbps_norm", "MB/s", mbps_norm, throughput),
            // The paper's "share of raw data filtered"; `pass_ratio` is
            // its complement (0 on miss_prefilter, so not the gated one).
            Metric::exact("filtered_share", "share", 1.0 - e2e.pass_ratio),
            Metric::sampled("setup_s", "s", setup_s, e2e.setup_s),
        ],
        detail: std::iter::once(Metric::exact("pass_ratio", "share", e2e.pass_ratio))
            .chain(e2e.run_quality())
            .collect(),
        facts: facts(spec, corpus, e2e),
    }
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let nproc = workloads::nproc();
    let threads = workloads::lane_count(nproc);
    let cal = Calibrator::new();
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for name in &args.workloads {
        let spec = Spec::by_name(name).expect("validated while parsing the flags");
        let corpus = corpus::build(spec.source, args.seed);
        let xl = if spec.kind == Kind::ShardedXl {
            corpus.segments.concat()
        } else {
            Vec::new()
        };
        if args.trace != Some(true) {
            let lanes = spec.lanes(threads);
            let e2e = endtoend::run(&spec, &corpus, &xl, &cal, lanes, args.seconds);
            results.push(untraced_result(&spec, &corpus, &e2e, lanes));
        }
        if args.trace != Some(false) {
            let traced = ladder::run(&spec, &corpus, &xl, &cal, threads, args.seconds);
            let mut facts = facts(&spec, &corpus, &traced.untraced);
            facts.push(("rounds", num(traced.rounds as f64)));
            results.push(WorkloadResult {
                workload: spec.name,
                traced: true,
                ops: traced.ops,
                metrics: traced.metrics,
                detail: Vec::new(),
                facts,
            });
            spans.extend(traced.spans);
        }
    }

    for r in &results {
        report::print_table(r);
    }
    let facts = RunFacts {
        seed: args.seed,
        seconds: args.seconds,
        lanes: threads,
        nproc,
        rustc: host::rustc_version(),
    };
    let write = |file: &str, content: String| {
        let path = args.out.join(file);
        std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    write("result.json", report::result_json(&facts, &results))?;
    if !spans.is_empty() {
        write("trace.json", report::trace_json(&spans))?;
    }
    println!("\nwrote {}", args.out.display());
    println!("{}", report::final_line(&results));
    Ok(results.iter().all(WorkloadResult::correct))
}

/// `BENCHMARK.json` sits at the root of the checkout: where the command
/// is run from, or one up from this package.
fn read_bounds() -> Result<std::collections::BTreeMap<String, compare::Bound>, String> {
    let beside = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = [PathBuf::from("BENCHMARK.json"), beside]
        .into_iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found in the current directory or beside benchmark/")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::bounds_from(&json)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = read_bounds()?;
    let rows = compare::compare(&compare::load_side(a)?, &compare::load_side(b)?, &bounds);
    if rows.is_empty() {
        return Err("the two sides share no (workload, metric) pair".into());
    }
    compare::print_rows(&rows);
    let count = |s| rows.iter().filter(|r| r.status == s).count();
    println!(
        "\n{} ok, {} unresolved, {} regressed",
        count(compare::Status::Ok),
        count(compare::Status::Unresolved),
        count(compare::Status::Regression)
    );
    Ok(count(compare::Status::Regression) == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(run_args)) => run(&run_args),
        Ok(Command::Compare(a, b)) => run_compare(&a, &b),
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Command, String> {
        parse_args(&list.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_unknown_ones_are_errors() {
        let Ok(Command::Run(run)) = args(&[
            "--workload",
            "taxi_b2",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--workload",
            "sharded_xl",
        ]) else {
            panic!("valid flags");
        };
        assert_eq!(run.workloads, ["taxi_b2", "sharded_xl"]);
        assert_eq!((run.seed, run.seconds, run.trace), (9, 3.0, Some(true)));

        let Ok(Command::Run(all)) = args(&[]) else {
            panic!("no flags is valid");
        };
        assert_eq!(all.workloads, workloads::NAMES);
        assert_eq!((all.seed, all.trace), (DEFAULT_SEED, None));

        assert!(args(&["--workload", "taxi"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args(&["--quick"]).unwrap_err().contains("unknown flag"));
        assert!(args(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(usage().contains("sharded_burst"));
        assert!(matches!(
            args(&["compare", "a", "b"]),
            Ok(Command::Compare(..))
        ));
        assert!(args(&["compare", "a"]).is_err());
    }
}
