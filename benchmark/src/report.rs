//! Metrics by name, the printed table, and the JSON the harness writes:
//! `result.json`, `trace.json` and the final line on standard output.

use crate::calib::{self, CAL_BYTES, CAL_REF_NS_PER_BYTE, LUT_ADD, LUT_MUL};
use crate::stats::Summary;
use crate::workloads::Ops;
use rfjson_jsonstream::write::to_string;
use rfjson_jsonstream::Value;

pub const RESULT_SCHEMA: &str = "rfjson-benchmark/v1";
pub const TRACE_SCHEMA: &str = "rfjson-benchmark-trace/v1";

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Present when the value is a statistic of a sample.
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    pub fn median(name: &'static str, unit: &'static str, summary: Summary) -> Metric {
        Metric::sampled(name, unit, summary.p50, summary)
    }

    /// A statistic other than the median, with the sample's summary.
    pub fn sampled(name: &'static str, unit: &'static str, value: f64, summary: Summary) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: Some(summary),
        }
    }
}

/// One span of the traced run: a rung's pass, timed from outside.
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub workload: &'static str,
    /// Spans of one ladder round share the pass id.
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// One workload in one mode.
pub struct WorkloadResult {
    pub workload: &'static str,
    pub traced: bool,
    pub ops: Ops,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Further figures for `result.json` and the table.
    pub detail: Vec<Metric>,
    /// Counts and identities that are not measurements.
    pub facts: Vec<(&'static str, Value)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }
}

pub fn num(n: f64) -> Value {
    Value::Number(n)
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_json(m: &Metric, with_summary: bool) -> Value {
    let mut members = vec![("value", num(m.value)), ("unit", text(m.unit))];
    if let (true, Some(s)) = (with_summary, &m.summary) {
        members.extend([
            ("p10", num(s.p10)),
            ("p25", num(s.p25)),
            ("p50", num(s.p50)),
            ("p75", num(s.p75)),
            ("p90", num(s.p90)),
            ("n", num(s.n as f64)),
        ]);
    }
    object(members)
}

fn metrics_json<'a>(
    metrics: impl Iterator<Item = (String, &'a Metric)>,
    with_summary: bool,
) -> Value {
    Value::Object(
        metrics
            .map(|(name, m)| (name, metric_json(m, with_summary)))
            .collect(),
    )
}

/// The line the driver reads: last on standard output. One workload in
/// one mode reports its metrics under their own names; any other
/// selection prefixes each with `<workload>.`.
pub fn final_line(results: &[WorkloadResult]) -> String {
    let ops = results.iter().fold(Ops::default(), |mut acc, r| {
        acc.add(r.ops);
        acc
    });
    let prefix = results.len() != 1;
    let metrics = results.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| {
            let name = if prefix {
                format!("{}.{}", r.workload, m.name)
            } else {
                m.name.to_string()
            };
            (name, m)
        })
    });
    to_string(&object(vec![
        ("correct", Value::Bool(ops.failed == 0)),
        ("attempted", num(ops.attempted as f64)),
        ("failed", num(ops.failed as f64)),
        ("metrics", metrics_json(metrics, false)),
    ]))
}

pub struct RunFacts {
    pub seed: u64,
    pub seconds: f64,
    pub lanes: usize,
    pub nproc: usize,
    pub rustc: String,
}

pub fn result_json(facts: &RunFacts, results: &[WorkloadResult]) -> String {
    let workloads = results
        .iter()
        .map(|r| {
            let mut members = vec![
                ("name", text(r.workload)),
                ("traced", Value::Bool(r.traced)),
                ("correct", Value::Bool(r.correct())),
                ("ops_attempted", num(r.ops.attempted as f64)),
                ("ops_failed", num(r.ops.failed as f64)),
                (
                    "failed_share",
                    num(r.ops.failed as f64 / r.ops.attempted.max(1) as f64),
                ),
            ];
            members.extend(r.facts.iter().map(|(k, v)| (*k, v.clone())));
            let all = r.metrics.iter().chain(&r.detail);
            members.push((
                "metrics",
                metrics_json(all.map(|m| (m.name.to_string(), m)), true),
            ));
            object(members)
        })
        .collect();
    let mut json = to_string(&object(vec![
        ("schema", text(RESULT_SCHEMA)),
        ("seed", num(facts.seed as f64)),
        ("seconds", num(facts.seconds)),
        ("lanes", num(facts.lanes as f64)),
        ("nproc", num(facts.nproc as f64)),
        ("rustc", text(&facts.rustc)),
        (
            "calibration",
            object(vec![
                ("ref_ns_per_byte", num(CAL_REF_NS_PER_BYTE)),
                ("bytes", num(CAL_BYTES as f64)),
                ("lut_mul", num(LUT_MUL as f64)),
                ("lut_add", num(LUT_ADD as f64)),
                ("checksum", text(&format!("{:016x}", calib::checksum()))),
            ]),
        ),
        ("workloads", Value::Array(workloads)),
    ]));
    json.push('\n');
    json
}

pub fn trace_json(spans: &[Span]) -> String {
    let spans = spans
        .iter()
        .map(|s| {
            object(vec![
                ("id", num(f64::from(s.id))),
                ("name", text(s.name)),
                ("workload", text(s.workload)),
                ("pass", num(f64::from(s.pass))),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| num(f64::from(p))),
                ),
            ])
        })
        .collect();
    let mut json = to_string(&object(vec![
        ("schema", text(TRACE_SCHEMA)),
        ("spans", Value::Array(spans)),
    ]));
    json.push('\n');
    json
}

/// Every metric by name with its unit, one per line.
pub fn print_table(r: &WorkloadResult) {
    println!(
        "\n== {} ({}) — {} of {} operations failed",
        r.workload,
        if r.traced { "traced" } else { "untraced" },
        r.ops.failed,
        r.ops.attempted
    );
    for m in r.metrics.iter().chain(&r.detail) {
        match &m.summary {
            Some(s) => println!(
                "{:<32} {:>14.6} {:<6} p10 {:.6}  p25 {:.6}  p50 {:.6}  p75 {:.6}  p90 {:.6}  n {}",
                m.name, m.value, m.unit, s.p10, s.p25, s.p50, s.p75, s.p90, s.n
            ),
            None => println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfjson_jsonstream::parse;

    fn result(workload: &'static str) -> WorkloadResult {
        WorkloadResult {
            workload,
            traced: false,
            ops: Ops {
                attempted: 10,
                failed: 0,
            },
            metrics: vec![Metric::exact("mbps_norm", "MB/s", 123.456)],
            detail: vec![Metric::exact("pass_ratio", "share", 0.25)],
            facts: vec![("passes", num(3.0))],
        }
    }

    #[test]
    fn final_line_has_the_contract_keys_and_plain_names_for_one_workload() {
        let line = final_line(&[result("taxi_b2")]);
        let v = parse(line.as_bytes()).unwrap();
        let keys: Vec<_> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("mbps_norm").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(123.456));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("MB/s"));
        assert!(v.get("metrics").unwrap().get("pass_ratio").is_none());

        let two = final_line(&[result("taxi_b2"), result("sharded_xl")]);
        let v = parse(two.as_bytes()).unwrap();
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(20.0));
        assert!(v
            .get("metrics")
            .unwrap()
            .get("sharded_xl.mbps_norm")
            .is_some());
    }

    #[test]
    fn result_json_round_trips_through_the_repo_parser() {
        let facts = RunFacts {
            seed: 7,
            seconds: 1.0,
            lanes: 2,
            nproc: 2,
            rustc: "rustc 1.0".into(),
        };
        let v = parse(result_json(&facts, &[result("taxi_b2")]).as_bytes()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(RESULT_SCHEMA));
        let w = v.get("workloads").unwrap().index(0).unwrap();
        assert_eq!(w.get("passes").unwrap().as_f64(), Some(3.0));
        assert!(w.get("metrics").unwrap().get("pass_ratio").is_some());
        assert_eq!(w.get("failed_share").unwrap().as_f64(), Some(0.0));
    }
}
