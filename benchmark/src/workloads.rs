//! The six workloads: what each one runs, and how its outputs are checked.
//!
//! Names, queries and pass definitions are fixed — `BENCHMARK.json`
//! carries the one-line reason for each, README.md the full table.
//! Every workload is a closed loop with one client: the next pass starts
//! when the previous one has returned.

use crate::corpus::{record_aligned_chunks, Corpus, Source};
use rfjson_core::multi::{BatchVerdicts, MultiBackend, MultiEngine, MultiLanes};
use rfjson_core::query::query_to_exprs;
use rfjson_core::{
    CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, StructScope, Verdict,
};
use rfjson_jsonstream::frame::split_records;
use rfjson_jsonstream::{parse, Value};
use rfjson_riotbench::{AttrKind, Query, RangePredicate, RecordShape};
use rfjson_runtime::{RunnerConfig, RuntimeError, ShardedRunner};
use std::ops::Range;

pub const NAMES: [&str; 6] = [
    "senml_pipeline",
    "taxi_b2",
    "miss_prefilter",
    "fused_mix5",
    "sharded_xl",
    "sharded_burst",
];

/// `sharded_burst` delivers its bytes in buffers of this size.
pub const BURST_BYTES: usize = 128 * 1024;
/// The fixed slice a freshly built workload answers once for `setup_s`.
pub const SETUP_SLICE_BYTES: usize = 64 * 1024;

/// Lanes a sharded workload runs, and the most threads the harness ever
/// starts: `min(nproc, 4)`.
pub fn lane_count(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A raw filter and the parsed-record predicate it must never miss.
pub struct QuerySpec {
    pub name: &'static str,
    pub expr: Expr,
    pub truth: Box<dyn Fn(&Value) -> bool>,
}

fn table_query(name: &'static str, query: Query, b: usize) -> QuerySpec {
    QuerySpec {
        name,
        expr: query_to_exprs(&query, b).expect("Table VIII queries convert"),
        truth: Box::new(move |v| query.matches(v)),
    }
}

/// The five queries `perf_trajectory` keeps resident: the fused batch of
/// `fused_mix5`, and the batch behind every `multi.*` rung.
pub fn resident_queries() -> Vec<QuerySpec> {
    vec![
        table_query("QS0", Query::qs0(), 1),
        table_query("QS1", Query::qs1(), 1),
        table_query("QT", Query::qt(), 1),
        table_query("QT-B2", Query::qt(), 2),
        QuerySpec {
            name: "QTW",
            expr: Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"favourites_count", 2).expect("valid needle"),
                    Expr::int_range(100, 50_000),
                ],
            ),
            truth: Box::new(|v| {
                v.get("user")
                    .and_then(|u| u.get("favourites_count"))
                    .and_then(Value::as_numeric)
                    .is_some_and(|n| (100.0..=50_000.0).contains(&n))
            }),
        },
    ]
}

/// Q-MISS: SmartCity sensors never report `wind_speed`, so the literal
/// prefilter stays live and rejects every record.
fn miss_query() -> QuerySpec {
    let query = Query {
        name: "Q-MISS".into(),
        predicates: vec![RangePredicate::new(
            "wind_speed",
            "0.0",
            "99.0",
            AttrKind::Float,
        )],
        shape: RecordShape::SenML,
        paper_selectivity: 0.0,
    };
    QuerySpec {
        name: "Q-MISS",
        expr: Expr::context([
            Expr::substring(b"wind_speed", 1).expect("valid needle"),
            Expr::float_range("0.0", "99.0").expect("valid range"),
        ]),
        truth: Box::new(move |v| query.matches(v)),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Serial engine filter, then split + parse + match the survivors.
    SenmlPipeline,
    /// Serial engine, filter only.
    EngineFilter,
    /// One `MultiEngine` batch.
    Fused,
    /// `ShardedRunner`, one call over the whole corpus.
    ShardedXl,
    /// `ShardedRunner`, one call per [`BURST_BYTES`] buffer.
    ShardedBurst,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub source: Source,
    pub queries: Vec<QuerySpec>,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let (name, kind, source, queries) = match name {
            "senml_pipeline" => (
                NAMES[0],
                Kind::SenmlPipeline,
                Source::SmartCity,
                vec![table_query("QS1", Query::qs1(), 1)],
            ),
            "taxi_b2" => (
                NAMES[1],
                Kind::EngineFilter,
                Source::Taxi,
                vec![table_query("QT-B2", Query::qt(), 2)],
            ),
            "miss_prefilter" => (
                NAMES[2],
                Kind::EngineFilter,
                Source::SmartCity,
                vec![miss_query()],
            ),
            "fused_mix5" => (NAMES[3], Kind::Fused, Source::Mixed, resident_queries()),
            "sharded_xl" => (
                NAMES[4],
                Kind::ShardedXl,
                Source::Taxi,
                vec![table_query("QT", Query::qt(), 1)],
            ),
            "sharded_burst" => (
                NAMES[5],
                Kind::ShardedBurst,
                Source::Taxi,
                vec![table_query("QT", Query::qt(), 1)],
            ),
            _ => return None,
        };
        Some(Spec {
            name,
            kind,
            source,
            queries,
        })
    }

    /// Threads a pass of this workload runs, of the harness's budget of
    /// `threads`.
    pub fn lanes(&self, threads: usize) -> usize {
        match self.kind {
            Kind::ShardedXl | Kind::ShardedBurst => threads,
            _ => 1,
        }
    }

    pub fn exprs(&self) -> Vec<Expr> {
        self.queries.iter().map(|q| q.expr.clone()).collect()
    }

    /// The query behind the single-engine rungs of the ladder.
    pub fn primary(&self) -> &QuerySpec {
        &self.queries[0]
    }
}

/// The default `RunnerConfig` of the runtime (64 KiB `min_shard_bytes`),
/// with the lane count capped at the harness's thread budget.
pub fn burst_config(lanes: usize) -> RunnerConfig {
    RunnerConfig {
        shards: Some(lanes),
        ..RunnerConfig::default()
    }
}

/// What one pass runs over: a buffer, delivered as one or more calls.
pub struct Unit<'a> {
    pub bytes: &'a [u8],
    pub calls: Vec<Range<usize>>,
}

impl<'a> Unit<'a> {
    pub fn whole(bytes: &'a [u8]) -> Unit<'a> {
        Unit {
            bytes,
            calls: std::iter::once(0..bytes.len()).collect(),
        }
    }

    pub fn burst(bytes: &'a [u8]) -> Unit<'a> {
        Unit {
            bytes,
            calls: record_aligned_chunks(bytes, BURST_BYTES),
        }
    }
}

/// The pass units of a workload over its corpus (`xl` is the corpus as
/// one buffer): the segments, except that `sharded_xl` has the single
/// big buffer and `sharded_burst` cuts each segment into bursts.
pub fn units<'a>(kind: Kind, corpus: &'a Corpus, xl: &'a [u8]) -> Vec<Unit<'a>> {
    match kind {
        Kind::ShardedXl => vec![Unit::whole(xl)],
        Kind::ShardedBurst => corpus.segments.iter().map(|s| Unit::burst(s)).collect(),
        _ => corpus.segments.iter().map(|s| Unit::whole(s)).collect(),
    }
}

/// A pass's verdicts in the form the workload's API returns them.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdicts {
    Single(Vec<Verdict>),
    Batch(BatchVerdicts),
}

impl Verdicts {
    pub fn records(&self) -> usize {
        match self {
            Verdicts::Single(v) => v.len(),
            Verdicts::Batch(b) => b.num_records(),
        }
    }

    pub fn verdict(&self, record: usize, query: usize) -> Verdict {
        match self {
            Verdicts::Single(v) => v[record],
            Verdicts::Batch(b) => b.verdict(record, query),
        }
    }

    fn clear(&mut self) {
        match self {
            Verdicts::Single(v) => v.clear(),
            Verdicts::Batch(b) => b.clear(),
        }
    }
}

/// Everything a pass returns to its caller.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    pub verdicts: Verdicts,
    /// `senml_pipeline` only: survivors the parser confirmed.
    pub hits: usize,
}

impl PassOutput {
    pub fn new(spec: &Spec) -> PassOutput {
        PassOutput {
            verdicts: match spec.kind {
                Kind::Fused => Verdicts::Batch(BatchVerdicts::new(spec.queries.len())),
                _ => Verdicts::Single(Vec::new()),
            },
            hits: 0,
        }
    }
}

/// A workload's object under test, from its `Expr`s.
pub enum Instance {
    Engine(Engine),
    Multi(MultiEngine),
    Sharded(ShardedRunner<Engine>),
}

impl Instance {
    pub fn build(spec: &Spec, lanes: usize) -> Instance {
        let primary = &spec.primary().expr;
        match spec.kind {
            Kind::SenmlPipeline | Kind::EngineFilter => Instance::Engine(Engine::compile(primary)),
            Kind::Fused => Instance::Multi(MultiEngine::compile_batch(&spec.exprs())),
            Kind::ShardedXl => Instance::Sharded(ShardedRunner::with_shards(primary, lanes)),
            Kind::ShardedBurst => {
                Instance::Sharded(ShardedRunner::with_config(primary, burst_config(lanes)))
            }
        }
    }

    /// One pass: the workload's top-level call(s) over `unit`.
    pub fn pass(
        &mut self,
        spec: &Spec,
        unit: &Unit<'_>,
        out: &mut PassOutput,
    ) -> Result<(), RuntimeError> {
        out.verdicts.clear();
        out.hits = 0;
        for call in &unit.calls {
            let bytes = &unit.bytes[call.clone()];
            match (&mut *self, &mut out.verdicts) {
                (Instance::Engine(e), Verdicts::Single(v)) => {
                    e.filter_stream_verdicts_into(bytes, IngestLimits::UNLIMITED, v);
                }
                (Instance::Multi(m), Verdicts::Batch(b)) => {
                    m.filter_stream_verdicts_into(bytes, IngestLimits::UNLIMITED, b);
                }
                (Instance::Sharded(r), Verdicts::Single(v)) => {
                    r.filter_stream_verdicts_into(bytes, IngestLimits::UNLIMITED, v)?;
                }
                _ => unreachable!("PassOutput::new pairs the output form with the kind"),
            }
        }
        if spec.kind == Kind::SenmlPipeline {
            let Verdicts::Single(verdicts) = &out.verdicts else {
                unreachable!("the pipeline runs a single engine");
            };
            let truth = &spec.primary().truth;
            out.hits = split_records(unit.bytes)
                .zip(verdicts)
                .filter(|(record, verdict)| {
                    verdict.matched() && parse(record).is_ok_and(|value| truth(&value))
                })
                .count();
        }
        Ok(())
    }
}

/// Operations (one (record, query) verdict each) attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the checked first rotation established: the output every later
/// pass over the same unit must reproduce exactly.
pub struct Checked {
    pub expected: Vec<PassOutput>,
    pub ops: Ops,
    /// Records let through ÷ records, mean over queries.
    pub pass_ratio: f64,
    /// `senml_pipeline`: matches found by parsing everything.
    pub truth_hits: usize,
}

/// Ground truth of every record of `stream` for every query, by full
/// parse: `truth[query][record]`.
fn ground_truth(spec: &Spec, stream: &[u8]) -> Vec<Vec<bool>> {
    let mut truth = vec![Vec::new(); spec.queries.len()];
    for record in split_records(stream) {
        let value = parse(record).expect("generated records are valid JSON");
        for (q, query) in spec.queries.iter().enumerate() {
            truth[q].push((query.truth)(&value));
        }
    }
    truth
}

/// The byte-serial oracle's verdicts over `stream`.
fn oracle(spec: &Spec, stream: &[u8]) -> Verdicts {
    match spec.kind {
        Kind::Fused => Verdicts::Batch(
            MultiLanes::<CompiledFilter>::compile_batch(&spec.exprs())
                .filter_stream_verdicts(stream, IngestLimits::UNLIMITED),
        ),
        _ => Verdicts::Single(
            CompiledFilter::compile(&spec.primary().expr)
                .filter_stream_verdicts(stream, IngestLimits::UNLIMITED),
        ),
    }
}

/// Runs one pass per unit (the warm rotation: caches, lazy lanes and
/// prefilter probation settle here) and checks every verdict: no false
/// negative against the parser, nothing skipped, no call failed,
/// identical to the byte-serial oracle on the first segment, and the
/// pipeline's hit count equal to parse-everything's.
pub fn checked_rotation(
    spec: &Spec,
    instance: &mut Instance,
    units: &[Unit<'_>],
    first_segment: &[u8],
) -> Checked {
    let queries = spec.queries.len();
    let mut checked = Checked {
        expected: Vec::with_capacity(units.len()),
        ops: Ops::default(),
        pass_ratio: 0.0,
        truth_hits: 0,
    };
    let oracle = oracle(spec, first_segment);
    let (mut accepted, mut records) = (0usize, 0usize);
    for (u, unit) in units.iter().enumerate() {
        let truth = ground_truth(spec, unit.bytes);
        let n = truth[0].len();
        let mut out = PassOutput::new(spec);
        let result = instance.pass(spec, unit, &mut out);
        checked.ops.attempted += (n * queries) as u64;
        if result.is_err() || out.verdicts.records() != n {
            checked.ops.failed += (n * queries) as u64;
            checked.expected.push(out);
            continue;
        }
        // Unit 0 starts with the first segment in every workload.
        let oracle_records = if u == 0 { oracle.records() } else { 0 };
        for (q, truth_q) in truth.iter().enumerate() {
            for (r, &wanted) in truth_q.iter().enumerate() {
                let verdict = out.verdicts.verdict(r, q);
                let false_negative = wanted && !verdict.matched();
                let skipped = verdict.decision().is_none();
                let off_oracle = r < oracle_records && verdict != oracle.verdict(r, q);
                checked.ops.failed += u64::from(false_negative || skipped || off_oracle);
                accepted += usize::from(verdict.matched());
            }
        }
        records += n;
        if spec.kind == Kind::SenmlPipeline {
            let wanted = truth[0].iter().filter(|&&t| t).count();
            checked.truth_hits += wanted;
            checked.ops.failed += out.hits.abs_diff(wanted) as u64;
        }
        checked.expected.push(out);
    }
    checked.pass_ratio = accepted as f64 / (records * queries).max(1) as f64;
    checked
}

/// Checks a timed pass against the checked rotation's output for the
/// same unit (outside the timed region; the race detector for the
/// sharded path).
pub fn check_pass(
    spec: &Spec,
    result: &Result<(), RuntimeError>,
    got: &PassOutput,
    expected: &PassOutput,
) -> Ops {
    let queries = spec.queries.len();
    let n = expected.verdicts.records();
    let attempted = (n * queries) as u64;
    let failed = if result.is_err() || got.verdicts.records() != n {
        attempted
    } else if got == expected {
        0
    } else {
        let differing = (0..n)
            .flat_map(|r| (0..queries).map(move |q| (r, q)))
            .filter(|&(r, q)| got.verdicts.verdict(r, q) != expected.verdicts.verdict(r, q))
            .count();
        (differing + got.hits.abs_diff(expected.hits)) as u64
    };
    Ops { attempted, failed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::record_aligned_prefix;

    #[test]
    fn every_name_has_a_spec_and_nothing_else_does() {
        for name in NAMES {
            assert_eq!(Spec::by_name(name).expect("known workload").name, name);
        }
        assert!(Spec::by_name("taxi").is_none());
        assert_eq!(lane_count(1), 1);
        assert_eq!(lane_count(2), 2);
        assert_eq!(lane_count(64), 4);
    }

    #[test]
    fn a_small_pipeline_checks_clean_and_a_wrong_pass_is_counted() {
        let spec = Spec::by_name("senml_pipeline").unwrap();
        let corpus = crate::corpus::build(spec.source, 5);
        let slice = record_aligned_prefix(&corpus.segments[0], 256 * 1024);
        let units = vec![Unit::whole(slice)];
        let mut instance = Instance::build(&spec, 1);
        let checked = checked_rotation(&spec, &mut instance, &units, slice);
        assert_eq!(checked.ops.failed, 0);
        assert!(checked.ops.attempted > 500);
        assert!(checked.pass_ratio > 0.0 && checked.pass_ratio < 0.5);
        assert_eq!(checked.expected[0].hits, checked.truth_hits);

        let mut out = PassOutput::new(&spec);
        let result = instance.pass(&spec, &units[0], &mut out);
        assert_eq!(
            check_pass(&spec, &result, &out, &checked.expected[0]).failed,
            0
        );
        let Verdicts::Single(v) = &mut out.verdicts else {
            unreachable!()
        };
        v[3] = if v[3].matched() {
            Verdict::NoMatch
        } else {
            Verdict::Match
        };
        assert_eq!(
            check_pass(&spec, &result, &out, &checked.expected[0]).failed,
            1
        );
    }

    #[test]
    fn burst_units_are_cut_at_the_burst_size() {
        let spec = Spec::by_name("sharded_burst").unwrap();
        let corpus = crate::corpus::build(spec.source, 5);
        let xl = corpus.segments.concat();
        let units = units(spec.kind, &corpus, &xl);
        assert_eq!(units.len(), 4);
        let calls = &units[0].calls;
        assert!((30..=33).contains(&calls.len()), "{} calls", calls.len());
        assert!(calls[..calls.len() - 1]
            .iter()
            .all(|c| c.len() >= BURST_BYTES && c.len() < BURST_BYTES + 4096));
        assert_eq!(super::units(Kind::ShardedXl, &corpus, &xl).len(), 1);
    }
}
