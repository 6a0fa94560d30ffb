//! `benchmark compare <a> <b>`: two sets of result files, metric by
//! metric, against the bounds `BENCHMARK.json` fixes.
//!
//! A side is one `result.json` or a directory of runs (`*.json` files, or
//! the `--out` directories of the runs).
//! With several runs a side's figure is the median of the runs' values
//! and its quartiles are taken across runs; with one run they are the
//! quartiles the run itself recorded across its passes.

use crate::report::RESULT_SCHEMA;
use crate::stats::Summary;
use rfjson_jsonstream::{parse, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` table of `BENCHMARK.json`, by metric name.
pub fn bounds_from(benchmark_json: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok((
                    name.to_string(),
                    Bound {
                        higher_is_better: better == "higher",
                        bound,
                    },
                )),
                _ => Err(format!("malformed end_to_end entry: {m:?}")),
            }
        })
        .collect()
}

/// One run's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Quartiles across the run's own passes, where it recorded them.
    pub quartiles: Option<(f64, f64)>,
}

/// (workload, metric) → one reading per run.
pub type Readings = BTreeMap<(String, String), Vec<Reading>>;

/// Adds every workload entry of one parsed `result.json`. Untraced and
/// traced entries of a workload carry disjoint metric names.
pub fn add_run(readings: &mut Readings, result: &Value) -> Result<(), String> {
    if result.get("schema").and_then(Value::as_str) != Some(RESULT_SCHEMA) {
        return Err(format!("not a {RESULT_SCHEMA} file"));
    }
    let workloads = result
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("no workloads list")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("unnamed workload")?;
        let metrics = w
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("workload without metrics")?;
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            let quartile = |k| m.get(k).and_then(Value::as_f64);
            readings
                .entry((name.to_string(), metric.clone()))
                .or_default()
                .push(Reading {
                    value,
                    quartiles: quartile("p25").zip(quartile("p75")),
                });
        }
    }
    Ok(())
}

/// Reads one side: a result file, or a directory holding one run per
/// `*.json` file or per subdirectory with a `result.json` (what `--out`
/// writes).
pub fn load_side(path: &Path) -> Result<Readings, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .map(|p| if p.is_dir() { p.join("result.json") } else { p })
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    let mut readings = Readings::new();
    let mut runs = 0;
    for file in &files {
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let value = parse(&bytes).map_err(|e| format!("{}: {e}", file.display()))?;
        match add_run(&mut readings, &value) {
            Ok(()) => runs += 1,
            // A directory may hold trace.json next to the results.
            Err(_) if path.is_dir() => {}
            Err(e) => return Err(format!("{}: {e}", file.display())),
        }
    }
    if runs == 0 {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(readings)
}

/// One side's figure for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    /// The range "every run" of this side lies in: across runs, or the
    /// quartiles of a single run.
    lo: f64,
    hi: f64,
}

impl Side {
    fn of(runs: &[Reading]) -> Side {
        if let [only] = runs {
            let (p25, p75) = only.quartiles.unwrap_or((only.value, only.value));
            return Side {
                p25,
                median: only.value,
                p75,
                lo: p25,
                hi: p75,
            };
        }
        let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
        let s = Summary::of(&values);
        Side {
            p25: s.p25,
            median: s.p50,
            p75: s.p75,
            lo: values.iter().copied().fold(f64::INFINITY, f64::min),
            hi: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile distance as a share of the median (0 for a metric
    /// that reads 0).
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// The spread of either side exceeds the bound and the sides overlap.
    Unresolved,
    Regression,
    /// No bound fixed for this metric; shown, not judged.
    Info,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::Unresolved => "unresolved",
            Status::Regression => "REGRESSION",
            Status::Info => "-",
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    /// How much worse `b`'s median is, as a share of `a`'s (negative:
    /// better). For an unjudged metric, the plain relative change.
    pub worse_by: f64,
    pub status: Status,
}

/// The verdict on one metric: a regression when `b`'s median is worse by
/// more than the bound, and either both spreads are within the bound or
/// every run of `b` is worse than every run of `a`; unresolved when a
/// spread exceeds the bound, unless every run of `b` is better.
fn judge(a: Side, b: Side, bound: Option<&Bound>) -> (f64, Status) {
    let change = if a.median == 0.0 {
        if b.median == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(b.median)
        }
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let Some(bound) = bound else {
        return (change, Status::Info);
    };
    let worse_by = if bound.higher_is_better {
        -change
    } else {
        change
    };
    let noisy = a.spread() > bound.bound || b.spread() > bound.bound;
    let (b_all_worse, b_all_better) = if bound.higher_is_better {
        (b.hi < a.lo, b.lo > a.hi)
    } else {
        (b.lo > a.hi, b.hi < a.lo)
    };
    let status = if worse_by > bound.bound && (!noisy || b_all_worse) {
        Status::Regression
    } else if noisy && !b_all_better {
        Status::Unresolved
    } else {
        Status::Ok
    };
    (worse_by, status)
}

/// One row per (workload, metric) present on both sides.
pub fn compare(a: &Readings, b: &Readings, bounds: &BTreeMap<String, Bound>) -> Vec<Row> {
    a.iter()
        .filter_map(|(key, runs_a)| {
            let (side_a, side_b) = (Side::of(runs_a), Side::of(b.get(key)?));
            let (worse_by, status) = judge(side_a, side_b, bounds.get(&key.1));
            Some(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                a: side_a,
                b: side_b,
                worse_by,
                status,
            })
        })
        .collect()
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<16} {:>12} {:>25} {:>12} {:>25} {:>9}  status",
        "workload", "metric", "a median", "a [p25, p75]", "b median", "b [p25, p75]", "worse by"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>12.6} {:>25} {:>12.6} {:>25} {:>8.2}%  {}",
            r.workload,
            r.metric,
            r.a.median,
            format!("[{:.6}, {:.6}]", r.a.p25, r.a.p75),
            r.b.median,
            format!("[{:.6}, {:.6}]", r.b.p25, r.b.p75),
            r.worse_by * 100.0,
            r.status
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> BTreeMap<String, Bound> {
        let json = br#"{"end_to_end":[
            {"name":"mbps_norm","unit":"MB/s","better":"higher","bound":0.05},
            {"name":"setup_s","unit":"s","better":"lower","bound":0.1}]}"#;
        bounds_from(&parse(json).unwrap()).unwrap()
    }

    fn side(metric: &str, values: &[f64]) -> Readings {
        let runs = values
            .iter()
            .map(|&value| Reading {
                value,
                quartiles: None,
            })
            .collect();
        Readings::from([(("taxi_b2".to_string(), metric.to_string()), runs)])
    }

    fn status(metric: &str, a: &[f64], b: &[f64]) -> Status {
        compare(&side(metric, a), &side(metric, b), &bounds())[0].status
    }

    #[test]
    fn flags_a_six_percent_drop_and_passes_a_two_percent_one() {
        let a = [100.0, 100.5, 99.5];
        assert_eq!(
            status("mbps_norm", &a, &[94.0, 94.2, 93.8]),
            Status::Regression
        );
        assert_eq!(status("mbps_norm", &a, &[98.0, 98.3, 97.9]), Status::Ok);
        // Lower is better: a 12 % longer set-up regresses, a shorter one
        // does not.
        assert_eq!(
            status("setup_s", &[1.0, 1.01, 0.99], &[1.12, 1.13, 1.12]),
            Status::Regression
        );
        assert_eq!(
            status("setup_s", &[1.0, 1.01, 0.99], &[0.8, 0.81, 0.8]),
            Status::Ok
        );
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_the_sides_are_disjoint() {
        let noisy_a = [100.0, 90.0, 110.0, 95.0, 105.0];
        // Overlapping and noisy: neither a pass nor a regression.
        assert_eq!(
            status("mbps_norm", &noisy_a, &[93.0, 99.0, 104.0]),
            Status::Unresolved
        );
        // Every run of b above every run of a: resolved in b's favour.
        assert_eq!(
            status("mbps_norm", &noisy_a, &[120.0, 125.0, 130.0]),
            Status::Ok
        );
        // Every run of b below every run of a: a regression despite noise.
        assert_eq!(
            status("mbps_norm", &noisy_a, &[70.0, 75.0, 80.0]),
            Status::Regression
        );
    }

    #[test]
    fn single_runs_use_their_recorded_quartiles() {
        let one = |value, p25, p75| {
            Readings::from([(
                ("taxi_b2".to_string(), "mbps_norm".to_string()),
                vec![Reading {
                    value,
                    quartiles: Some((p25, p75)),
                }],
            )])
        };
        let rows = compare(&one(100.0, 99.0, 101.0), &one(93.0, 92.0, 94.0), &bounds());
        assert_eq!(
            (rows[0].a.p25, rows[0].a.median, rows[0].a.p75),
            (99.0, 100.0, 101.0)
        );
        assert_eq!(rows[0].status, Status::Regression);
        assert!((rows[0].worse_by - 0.07).abs() < 1e-12);
        let rows = compare(&one(100.0, 90.0, 110.0), &one(97.0, 88.0, 108.0), &bounds());
        assert_eq!(rows[0].status, Status::Unresolved);
    }

    #[test]
    fn unbounded_metrics_are_shown_not_judged_and_files_are_schema_checked() {
        let rows = compare(
            &side("pass_ratio", &[0.0]),
            &side("pass_ratio", &[0.0]),
            &bounds(),
        );
        assert_eq!((rows[0].status, rows[0].worse_by), (Status::Info, 0.0));
        let mut readings = Readings::new();
        assert!(add_run(&mut readings, &parse(br#"{"schema":"other"}"#).unwrap()).is_err());
        let run = br#"{"schema":"rfjson-benchmark/v1","workloads":[
            {"name":"taxi_b2","traced":false,"metrics":{"mbps_norm":{"value":5,"unit":"MB/s","p25":4,"p75":6}}},
            {"name":"taxi_b2","traced":true,"metrics":{"ceiling.read_ns_b":{"value":1,"unit":"ns/B"}}}]}"#;
        add_run(&mut readings, &parse(run).unwrap()).unwrap();
        assert_eq!(readings.len(), 2, "per-layer metrics ride along, unjudged");
        let r = readings[&("taxi_b2".to_string(), "mbps_norm".to_string())][0];
        assert_eq!((r.value, r.quartiles), (5.0, Some((4.0, 6.0))));
    }
}
