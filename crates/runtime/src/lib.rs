//! # rfjson-runtime — sharded parallel streaming runtime
//!
//! The paper scales raw filtering by **replicating identical filter
//! lanes**: each hardware lane consumes its slice of the byte stream and
//! DMAs back one match bit per record (§IV-B). This crate is the
//! software form of that scaling step, built directly on the [`Lane`]
//! seam of `rfjson-core`:
//!
//! 1. the input buffer is split at **record boundaries** into per-thread
//!    shards ([`rfjson_jsonstream::frame::shard_ranges`] — every cut
//!    lands immediately after a `\n`, so each shard is a self-contained
//!    NDJSON sub-stream);
//! 2. one lane per shard runs on a scoped thread (`std::thread::scope`
//!    — no `unsafe`, no extra dependencies);
//! 3. the per-shard verdicts are reassembled in input order.
//!
//! Because the serial path resets the filter right after every `\n`,
//! a freshly compiled lane at a shard start is in **exactly** the state
//! the serial filter would be in at that offset — so the sharded
//! decisions are byte-for-byte identical to the serial ones, for any
//! lane and any shard count. The differential tests in this crate
//! and in the root crate (`tests/parallel_diff.rs`) hold that equality
//! at shard counts {1, 2, 3, 8} over generated corpora.
//!
//! ```
//! use rfjson_core::{Engine, Expr};
//! use rfjson_runtime::ShardedRunner;
//!
//! let expr = Expr::and([Expr::substring(b"humidity", 1)?, Expr::int_range(10, 90)]);
//! let stream = b"{\"n\":\"humidity\",\"v\":\"55\"}\n{\"n\":\"humidity\",\"v\":\"95\"}\n";
//!
//! let mut runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&expr, 2);
//! assert_eq!(runner.filter_stream(stream), vec![true, false]);
//! # Ok::<(), rfjson_core::expr::ExprError>(())
//! ```
//!
//! This is the architectural seam future scaling work (async ingest,
//! real hardware offload) plugs into: anything that implements
//! [`Lane`] is sharded for free. Every [`FilterBackend`] is a lane of one
//! column, and a fused multi-query batch
//! ([`MultiEngine`](rfjson_core::MultiEngine), one scan answering N
//! queries) is a lane whose match word is N bits wide:
//! `ShardedRunner<MultiEngine>` runs the same fan-out, panic isolation,
//! heal, retry and reassembly, and returns per-record verdict *bitsets*
//! ([`BatchVerdicts`](rfjson_core::BatchVerdicts)).
//!
//! # Fault tolerance
//!
//! The paper's RF lanes are fixed-function hardware that cannot crash
//! mid-stream; software lanes can. This runtime therefore treats lane
//! failure and malformed input as first-class, never process-fatal:
//!
//! * **Fallible construction** — [`ShardedRunner::try_new`] /
//!   [`try_with_config`](ShardedRunner::try_with_config) return a
//!   [`CompileError`] for ill-formed expressions; the panicking
//!   constructors remain as thin wrappers for trusted expressions.
//! * **Panic isolation + graceful degradation** — every shard (and the
//!   serial fast path) runs under [`std::panic::catch_unwind`]. A
//!   failed or wrong-length shard is quarantined: its lane is
//!   recompiled, and the shard is **retried once, serially, on the
//!   reference model lane** (`R`, default [`Lane::Reference`]: the
//!   [`CompiledFilter`](rfjson_core::CompiledFilter) model, or
//!   [`MultiLanes`](rfjson_core::MultiLanes) of it for a batch). Only
//!   if the retry also fails does the stream return
//!   [`RuntimeError::ShardFailed`] with the shard index and the global
//!   record range it covered — the process never aborts.
//! * **Record quarantine** — [`ShardedRunner::filter_stream_verdicts`]
//!   applies [`IngestLimits`]: oversized records and records beyond the
//!   stream's record budget are [`Verdict::Skipped`] (reported, never
//!   silently dropped), byte-identically to the serial quarantine path
//!   at every shard count, for a single query and for a batch.
//!
//! The degradation ladder is thus *engine lane → model retry →
//! structured error*: the same shape a future async or hardware-offload
//! lane inherits (a dead FPGA lane degrades one slice of the stream,
//! never the service).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(test, feature = "fault"))]
pub mod fault;

mod metrics;

use rfjson_core::backend::{FilterBackend, Lane, VerdictSink};
use rfjson_core::expr::Expr;
use rfjson_jsonstream::frame::{shard_ranges, split_records};
use std::borrow::Borrow;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use rfjson_core::backend::CompileError;
pub use rfjson_jsonstream::frame::{IngestLimits, SkipReason, Verdict};

/// A structured, never-process-fatal runtime failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A lane could not be compiled from the runner's expression.
    Compile(CompileError),
    /// One shard failed on its primary lane **and** on the serial
    /// model-backend retry (a *double fault*). `records` is the global,
    /// input-order record index range the shard covered; every other
    /// shard's records were filtered normally.
    ShardFailed {
        /// Index of the failed shard (stream order, 0-based).
        shard: usize,
        /// Global record indices the shard covered.
        records: Range<usize>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Compile(e) => write!(f, "lane compilation failed: {e}"),
            RuntimeError::ShardFailed { shard, records } => write!(
                f,
                "shard {shard} failed on both the primary lane and the model retry \
                 (records {}..{})",
                records.start, records.end
            ),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Compile(e) => Some(e),
            RuntimeError::ShardFailed { .. } => None,
        }
    }
}

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> Self {
        RuntimeError::Compile(e)
    }
}

/// How a [`ShardedRunner`] divides work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Number of shards (thread lanes). `None` uses
    /// [`std::thread::available_parallelism`].
    pub shards: Option<usize>,
    /// Inputs smaller than this per shard are not worth a thread: the
    /// effective shard count is capped at `stream_len / min_shard_bytes`
    /// (at least 1), so small streams run serially with zero spawn
    /// overhead.
    pub min_shard_bytes: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            shards: None,
            min_shard_bytes: 64 * 1024,
        }
    }
}

/// A raw filter replicated across threads over record-aligned shards of
/// the input — the software analogue of the paper's parallel RF lanes.
///
/// The runner is generic over the [`Lane`]: `ShardedRunner<Engine>` for
/// bulk throughput, `ShardedRunner<CompiledFilter>` for the
/// cosim-faithful model, `ShardedRunner<MultiEngine>` for a fused batch
/// of queries, or any future [`FilterBackend`]. Lanes are compiled lazily
/// on first use and **cached across calls**, so a long-lived runner pays
/// compilation once, not per stream.
///
/// The second type parameter `R` is the **retry lane**: when a shard lane
/// panics or returns a malformed verdict sequence, the shard is re-run
/// serially on a freshly compiled `R` (the lane's byte-serial
/// [`Lane::Reference`] by default) before the stream is declared failed.
/// See the crate docs' *Fault tolerance* section.
#[derive(Debug, Clone)]
pub struct ShardedRunner<L: Lane, R = <L as Lane>::Reference> {
    source: <L::Source as ToOwned>::Owned,
    config: RunnerConfig,
    /// Cached per-shard lanes, grown on demand (lane `i` serves shard
    /// `i`; every lane is reset at the start of each stream by its own
    /// stream driver). A lane that panicked is recompiled before its
    /// next use.
    lanes: Vec<L>,
    /// Lazily compiled retry lane (dropped again if it ever panics).
    retry_lane: Option<R>,
}

impl<L, R> ShardedRunner<L, R>
where
    L: Lane + Send,
    L::Verdicts: Send,
    R: Lane<Source = L::Source, Verdicts = L::Verdicts>,
{
    /// Runner with the default configuration (one shard per available
    /// core, 64 KiB minimum shard size).
    ///
    /// # Panics
    ///
    /// Panics if the source fails validation (same contract as
    /// [`FilterBackend::compile`]). For user-supplied sources use the
    /// non-panicking [`ShardedRunner::try_new`].
    pub fn new(source: &L::Source) -> Self {
        Self::with_config(source, RunnerConfig::default())
    }

    /// Fallible form of [`ShardedRunner::new`].
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidExpr`] if an expression fails
    /// [`Expr::validate`]; [`CompileError::Backend`] for an empty batch.
    pub fn try_new(source: &L::Source) -> Result<Self, CompileError> {
        Self::try_with_config(source, RunnerConfig::default())
    }

    /// Runner with an explicit shard count (no minimum-size cap) —
    /// what the differential tests use to pin lane counts.
    ///
    /// # Panics
    ///
    /// Panics if the source fails validation. For user-supplied sources
    /// use the non-panicking [`ShardedRunner::try_with_shards`].
    pub fn with_shards(source: &L::Source, shards: usize) -> Self {
        Self::with_config(
            source,
            RunnerConfig {
                shards: Some(shards),
                min_shard_bytes: 1,
            },
        )
    }

    /// Fallible form of [`ShardedRunner::with_shards`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedRunner::try_new`].
    pub fn try_with_shards(source: &L::Source, shards: usize) -> Result<Self, CompileError> {
        Self::try_with_config(
            source,
            RunnerConfig {
                shards: Some(shards),
                min_shard_bytes: 1,
            },
        )
    }

    /// Runner with full configuration control.
    ///
    /// # Panics
    ///
    /// Panics if the source fails validation. For user-supplied sources
    /// use the non-panicking [`ShardedRunner::try_with_config`].
    pub fn with_config(source: &L::Source, config: RunnerConfig) -> Self {
        Self::try_with_config(source, config).expect("source must be well-formed")
    }

    /// Fallible form of [`ShardedRunner::with_config`]: no public
    /// constructor of this runner panics on user input.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedRunner::try_new`].
    pub fn try_with_config(source: &L::Source, config: RunnerConfig) -> Result<Self, CompileError> {
        L::check_source(source)?;
        Ok(ShardedRunner {
            source: source.to_owned(),
            config,
            lanes: Vec::new(),
            retry_lane: None,
        })
    }

    /// What the lanes are compiled from: the expression, or the batch.
    pub fn source(&self) -> &L::Source {
        self.source.borrow()
    }

    /// The runner's configuration.
    pub fn config(&self) -> RunnerConfig {
        self.config
    }

    /// Effective shard count for a stream of `stream_len` bytes
    /// (requested lanes capped by the minimum worthwhile shard size).
    pub fn shards_for(&self, stream_len: usize) -> usize {
        let requested = self
            .config
            .shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1);
        let cap = (stream_len / self.config.min_shard_bytes.max(1)).max(1);
        requested.min(cap)
    }

    /// The record-aligned ranges a call over `stream` would fan out to.
    pub fn plan(&self, stream: &[u8]) -> Vec<Range<usize>> {
        shard_ranges(stream, self.shards_for(stream.len()))
    }

    /// Quarantine-aware parallel stream filtering: one verdict (a
    /// [`Verdict`], or a batch's row of bits) per record, in input order,
    /// with [`IngestLimits`] applied exactly as the lane's serial stream
    /// method applies them (the record-length limit per record, the
    /// record budget globally across all shards).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShardFailed`] on a shard double fault;
    /// [`RuntimeError::Compile`] if a lane cannot be compiled.
    pub fn filter_stream_verdicts(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
    ) -> Result<L::Verdicts, RuntimeError> {
        self.ensure_lanes(1)?;
        let mut out = self.lanes[0].new_verdicts();
        self.filter_stream_verdicts_into(stream, limits, &mut out)?;
        Ok(out)
    }

    /// Allocation-reusing form of
    /// [`ShardedRunner::filter_stream_verdicts`]. On error, `out` is
    /// restored to its length at entry (no partial output).
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedRunner::filter_stream_verdicts`].
    pub fn filter_stream_verdicts_into(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut L::Verdicts,
    ) -> Result<(), RuntimeError> {
        let base = out.num_records();
        let result = self.run_resilient(stream, limits, out);
        if result.is_err() {
            out.truncate_records(base);
        }
        result
    }

    /// The resilient driver behind every stream API: fan out, catch
    /// faults, retry failed shards on the reference lane, reassemble.
    fn run_resilient(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut L::Verdicts,
    ) -> Result<(), RuntimeError> {
        let ranges = self.plan(stream);
        self.ensure_lanes(ranges.len().max(1))?;
        // Record length is a per-record property the lanes apply
        // locally; the record budget is a *stream* property applied
        // globally after reassembly (a lane cannot know how many
        // records precede its shard).
        let lane_limits = IngestLimits {
            max_record_bytes: limits.max_record_bytes,
            max_records: None,
        };
        let base = out.num_records();
        let run = |lane: &mut L, shard: &[u8]| run_lane(lane, shard, lane_limits);
        let results = match &ranges[..] {
            // Serial fast path: no threads for one (or zero) shards —
            // but the same fault ladder.
            [] => Vec::new(),
            [only] => vec![run(&mut self.lanes[0], &stream[only.clone()])],
            _ => fan_out(&mut self.lanes, stream, &ranges, run),
        };
        // Shards are spawned (and joined) in stream order, so plain
        // concatenation reassembles the verdicts in input order; failed
        // shards are retried serially on the reference lane.
        let mut record_base = 0;
        for (shard_idx, (result, range)) in results.into_iter().zip(&ranges).enumerate() {
            let v = match result {
                Ok(v) => v,
                Err(Fault) => {
                    self.heal_lane(shard_idx);
                    self.retry_shard(shard_idx, record_base, &stream[range.clone()], lane_limits)?
                }
            };
            // `run_lane` checked the count against the shard's framing.
            let records = v.num_records();
            metrics::metrics().shard_records.record(records as u64);
            out.extend_from(&v);
            record_base += records;
        }
        // Apply the global record budget: every verdict past the limit
        // is overwritten, exactly as the serial quarantine path reports
        // it (record-count quarantine wins over length quarantine).
        if let Some(m) = limits.max_records {
            out.quarantine_from(base.saturating_add(m), SkipReason::RecordLimit { limit: m });
        }
        let m = metrics::metrics();
        m.streams.incr();
        m.bytes.add(stream.len() as u64);
        metrics::record_shard_plan(&ranges);
        let (mut matched, mut unmatched, mut too_long, mut over_budget) = (0u64, 0u64, 0u64, 0u64);
        for r in base..out.num_records() {
            match out.outcome(r) {
                Verdict::Match => matched += 1,
                Verdict::NoMatch => unmatched += 1,
                Verdict::Skipped(SkipReason::TooLong { .. }) => too_long += 1,
                // Catch-all keeps records == matched + unmatched +
                // skipped.* exact even if SkipReason grows a variant.
                Verdict::Skipped(_) => over_budget += 1,
            }
        }
        m.records.add(matched + unmatched + too_long + over_budget);
        m.matched.add(matched);
        m.unmatched.add(unmatched);
        m.skipped_too_long.add(too_long);
        m.skipped_record_limit.add(over_budget);
        Ok(())
    }

    /// Compiles missing lanes.
    fn ensure_lanes(&mut self, n: usize) -> Result<(), RuntimeError> {
        while self.lanes.len() < n {
            let lane = compile_lane::<L>(self.source.borrow())?;
            self.lanes.push(lane);
        }
        Ok(())
    }

    /// Replaces a lane whose state is suspect after a caught fault. If
    /// recompilation itself fails, the old lane is kept: every stream
    /// driver resets its lanes at stream start, and a still-broken lane
    /// simply fails (and is retried) again on its next use.
    fn heal_lane(&mut self, i: usize) {
        metrics::metrics().lane_heals.incr();
        if let Ok(fresh) = compile_lane::<L>(self.source.borrow()) {
            self.lanes[i] = fresh;
        }
    }

    /// Second rung of the degradation ladder: re-runs one failed shard
    /// serially on the reference lane `R`. A failure here is the
    /// **double fault** that ends the ladder with a structured error.
    fn retry_shard(
        &mut self,
        shard_idx: usize,
        record_base: usize,
        shard: &[u8],
        limits: IngestLimits,
    ) -> Result<L::Verdicts, RuntimeError> {
        metrics::metrics().retries.incr();
        let failed = || {
            metrics::metrics().double_faults.incr();
            RuntimeError::ShardFailed {
                shard: shard_idx,
                records: record_base..record_base + split_records(shard).count(),
            }
        };
        if self.retry_lane.is_none() {
            match compile_lane::<R>(self.source.borrow()) {
                Ok(lane) => self.retry_lane = Some(lane),
                Err(_) => return Err(failed()),
            }
        }
        let lane = self.retry_lane.as_mut().expect("compiled above");
        match run_lane(lane, shard, limits) {
            Ok(v) => Ok(v),
            Err(Fault) => {
                // The retry lane's state is suspect too: drop it so the
                // next failure starts from a fresh compile.
                self.retry_lane = None;
                Err(failed())
            }
        }
    }
}

/// The boolean decision API of a single-query runner.
impl<L, R> ShardedRunner<L, R>
where
    L: Lane<Verdicts = Vec<Verdict>> + Send,
    R: Lane<Source = L::Source, Verdicts = Vec<Verdict>>,
{
    /// Filters a newline-delimited stream, returning per-record accept
    /// decisions in input order — byte-for-byte identical to the serial
    /// [`FilterBackend::filter_stream`] of the same backend.
    ///
    /// # Panics
    ///
    /// Panics only on a shard **double fault** (primary lane *and* the
    /// serial model retry both failed — see the crate docs' degradation
    /// ladder), which no user-supplied expression or input bytes can
    /// cause. Use [`ShardedRunner::try_filter_stream`] to handle even
    /// that case as a value.
    pub fn filter_stream(&mut self, stream: &[u8]) -> Vec<bool> {
        self.try_filter_stream(stream)
            .expect("shard double fault: primary lane and model retry both failed")
    }

    /// Allocation-reusing form of [`ShardedRunner::filter_stream`]:
    /// appends one decision per record to `out`.
    ///
    /// # Panics
    ///
    /// Same double-fault-only contract as
    /// [`ShardedRunner::filter_stream`].
    pub fn filter_stream_into(&mut self, stream: &[u8], out: &mut Vec<bool>) {
        self.try_filter_stream_into(stream, out)
            .expect("shard double fault: primary lane and model retry both failed");
    }

    /// Fallible form of [`ShardedRunner::filter_stream`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShardFailed`] on a shard double fault;
    /// [`RuntimeError::Compile`] if a lane cannot be compiled.
    pub fn try_filter_stream(&mut self, stream: &[u8]) -> Result<Vec<bool>, RuntimeError> {
        let mut out = Vec::new();
        self.try_filter_stream_into(stream, &mut out)?;
        Ok(out)
    }

    /// Fallible, allocation-reusing form of
    /// [`ShardedRunner::filter_stream`]: appends one decision per record
    /// to `out` (which is left with this call's decisions removed again
    /// on error).
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedRunner::try_filter_stream`].
    pub fn try_filter_stream_into(
        &mut self,
        stream: &[u8],
        out: &mut Vec<bool>,
    ) -> Result<(), RuntimeError> {
        let mut verdicts = Vec::new();
        self.filter_stream_verdicts_into(stream, IngestLimits::UNLIMITED, &mut verdicts)?;
        out.extend(verdicts.iter().map(Verdict::matched));
        Ok(())
    }
}

/// Marker for a caught lane fault (panic or wrong-length output).
struct Fault;

/// The shared fan-out step: one scoped thread per (lane, shard) pair,
/// results collected in stream order. A join error would mean a panic
/// escaped the lane's own `catch_unwind`, so it degrades to the same
/// lane [`Fault`] rather than propagating.
fn fan_out<L, V, F>(
    lanes: &mut [L],
    stream: &[u8],
    ranges: &[Range<usize>],
    run: F,
) -> Vec<Result<V, Fault>>
where
    L: Send,
    V: Send,
    F: Fn(&mut L, &[u8]) -> Result<V, Fault> + Sync,
{
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(ranges.iter().cloned())
            .map(|(lane, range)| {
                let shard = &stream[range];
                scope.spawn(move || run(lane, shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(Fault)))
            .collect()
    })
}

/// Compiles a lane; a panic during compilation is reported as a
/// [`CompileError::Backend`], never propagated.
fn compile_lane<T: Lane>(source: &T::Source) -> Result<T, CompileError> {
    catch_unwind(AssertUnwindSafe(|| T::compile_lane(source))).unwrap_or_else(|_| {
        Err(CompileError::Backend {
            backend: "shard lane",
            reason: "panicked during compilation".into(),
        })
    })
}

/// Runs one lane over one shard under [`catch_unwind`], validating the
/// verdict count against the shard's record count — a panicking lane and
/// a lane that returns the wrong number of verdicts are the same fault.
fn run_lane<L: Lane>(
    lane: &mut L,
    shard: &[u8],
    limits: IngestLimits,
) -> Result<L::Verdicts, Fault> {
    let verdicts = catch_unwind(AssertUnwindSafe(|| {
        let mut out = lane.new_verdicts();
        lane.scan_stream(shard, limits, &mut out);
        out
    }))
    .map_err(|_| Fault)?;
    if verdicts.num_records() == split_records(shard).count() {
        Ok(verdicts)
    } else {
        Err(Fault)
    }
}

/// One-shot convenience: filter `stream` with backend `B` across
/// `shards` lanes.
///
/// ```
/// use rfjson_core::{Engine, Expr};
/// use rfjson_runtime::filter_stream_sharded;
///
/// let expr = Expr::int_range(1, 5);
/// let decisions = filter_stream_sharded::<Engine>(&expr, b"{\"a\":3}\n{\"a\":9}", 8);
/// assert_eq!(decisions, vec![true, false]);
/// ```
pub fn filter_stream_sharded<B: FilterBackend + Send>(
    expr: &Expr,
    stream: &[u8],
    shards: usize,
) -> Vec<bool> {
    ShardedRunner::<B>::with_shards(expr, shards).filter_stream(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfjson_core::{CompiledFilter, Engine, FilterBackend};

    fn ctx_expr() -> Expr {
        Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ])
    }

    fn serial_engine(expr: &Expr, stream: &[u8]) -> Vec<bool> {
        Engine::compile(expr).filter_stream(stream)
    }

    /// Sharded output must equal the serial engine AND the serial model
    /// for every shard count under test.
    fn assert_sharded_equals_serial(expr: &Expr, stream: &[u8]) {
        let engine = serial_engine(expr, stream);
        let model = CompiledFilter::compile(expr).filter_stream(stream);
        assert_eq!(engine, model, "serial paths disagree before sharding");
        for shards in [1, 2, 3, 8] {
            let parallel = filter_stream_sharded::<Engine>(expr, stream, shards);
            assert_eq!(parallel, engine, "shards={shards}");
        }
    }

    #[test]
    fn record_spanning_a_shard_split_point() {
        // One long record dominates the stream: the ideal cut for 2
        // shards lands mid-record, and the splitter must push the cut to
        // the record's end instead of splitting it.
        let long = format!(
            "{{\"n\":\"temperature\",\"pad\":\"{}\",\"v\":\"21.0\"}}",
            "x".repeat(400)
        );
        let stream = format!("{long}\n{{\"n\":\"temperature\",\"v\":\"21.0\"}}\n");
        let runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&ctx_expr(), 2);
        let plan = runner.plan(stream.as_bytes());
        assert!(
            plan.iter().all(|r| stream.as_bytes()[r.end - 1] == b'\n'),
            "cuts must land after newlines: {plan:?}"
        );
        assert_sharded_equals_serial(&ctx_expr(), stream.as_bytes());
    }

    #[test]
    fn crlf_at_split_point() {
        // CRLF-terminated records sized so cuts land around the \r\n.
        let stream = b"{\"a\":3}\r\n{\"a\":9}\r\n{\"a\":4}\r\n{\"a\":2}\r\n".repeat(5);
        assert_sharded_equals_serial(&Expr::int_range(1, 5), &stream);
    }

    #[test]
    fn blank_lines_and_cr_debris() {
        let stream: &[u8] = b"\n\n{\"a\":3}\r\n\r\n\r\r\n{\"a\":9}\n\n\n{\"a\":4}\n";
        assert_sharded_equals_serial(&Expr::int_range(1, 5), stream);
    }

    #[test]
    fn trailing_record_without_newline() {
        let stream: &[u8] = b"{\"a\":3}\n{\"a\":9}\n{\"a\":4}";
        assert_sharded_equals_serial(&Expr::int_range(1, 5), stream);
        // The trailing record must land in the last shard untouched.
        let runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&Expr::int_range(1, 5), 3);
        let plan = runner.plan(stream);
        assert_eq!(plan.last().unwrap().end, stream.len());
    }

    #[test]
    fn empty_input() {
        for shards in [1, 2, 8] {
            assert!(
                filter_stream_sharded::<Engine>(&Expr::int_range(1, 5), b"", shards).is_empty()
            );
        }
    }

    #[test]
    fn shard_count_exceeds_record_count() {
        let stream: &[u8] = b"{\"a\":3}\n{\"a\":9}\n";
        let parallel = filter_stream_sharded::<Engine>(&Expr::int_range(1, 5), stream, 64);
        assert_eq!(parallel, vec![true, false]);
        assert_sharded_equals_serial(&Expr::int_range(1, 5), stream);
    }

    #[test]
    fn model_backend_shards_identically() {
        let stream = b"{\"e\":[{\"v\":\"21.0\",\"n\":\"temperature\"}]}\n".repeat(9);
        let serial = CompiledFilter::compile(&ctx_expr()).filter_stream(&stream);
        for shards in [1, 2, 3, 8] {
            assert_eq!(
                filter_stream_sharded::<CompiledFilter>(&ctx_expr(), &stream, shards),
                serial
            );
        }
    }

    #[test]
    fn blank_lines_only_buffer() {
        // Nothing but separators: zero records, so zero decisions — and
        // the shard planner must not produce empty or overlapping cuts.
        let stream: &[u8] = b"\n\n\r\n\n\r\n\n\n\n\r\n\n";
        for shards in [1, 2, 3, 16] {
            let ranges = shard_ranges(stream, shards);
            assert!(!ranges.is_empty(), "non-empty buffer always has a range");
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, stream.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous: {ranges:?}");
                assert!(!pair[0].is_empty(), "no empty shard: {ranges:?}");
            }
            assert!(
                filter_stream_sharded::<Engine>(&Expr::int_range(1, 5), stream, shards).is_empty(),
                "blank lines produce no decisions"
            );
        }
    }

    #[test]
    fn single_record_larger_than_min_shard_bytes() {
        // One separator-free record far bigger than min_shard_bytes:
        // the planner is allowed multiple shards by the size cap, but
        // there is no cut point — the record must stay whole in one
        // shard and produce exactly one decision.
        let record = format!("{{\"a\":3,\"pad\":\"{}\"}}", "x".repeat(4096));
        let stream = record.as_bytes();
        let ranges = shard_ranges(stream, 8);
        assert_eq!(ranges, vec![0..stream.len()], "no separator, no cut");
        let mut runner: ShardedRunner<Engine> = ShardedRunner::with_config(
            &Expr::int_range(1, 5),
            RunnerConfig {
                shards: Some(8),
                min_shard_bytes: 64,
            },
        );
        assert!(
            runner.shards_for(stream.len()) > 1,
            "cap alone allows fanout"
        );
        assert_eq!(runner.plan(stream).len(), 1, "but the plan cannot cut");
        assert_eq!(runner.filter_stream(stream), vec![true]);
    }

    #[test]
    fn crlf_only_buffer() {
        // Pure "\r\n" repetitions: every line is blank, the CRs are
        // debris. No decisions, and cuts (if any) land after the LFs.
        let stream = b"\r\n".repeat(7);
        for shards in [1, 2, 5] {
            let ranges = shard_ranges(&stream, shards);
            assert_eq!(ranges.last().unwrap().end, stream.len());
            for r in &ranges {
                assert!(r.is_empty() || stream[r.end - 1] == b'\n', "{ranges:?}");
            }
            assert!(
                filter_stream_sharded::<Engine>(&Expr::int_range(1, 5), &stream, shards).is_empty()
            );
        }
        assert_sharded_equals_serial(&Expr::int_range(1, 5), &stream);
    }

    #[test]
    fn min_shard_bytes_caps_fanout() {
        let runner: ShardedRunner<Engine> = ShardedRunner::with_config(
            &Expr::int_range(1, 5),
            RunnerConfig {
                shards: Some(8),
                min_shard_bytes: 1024,
            },
        );
        assert_eq!(runner.shards_for(100), 1, "tiny stream stays serial");
        assert_eq!(
            runner.shards_for(4096),
            4,
            "mid-size stream caps at len/min"
        );
        assert_eq!(runner.shards_for(1 << 20), 8, "big stream uses all shards");
    }

    #[test]
    fn default_config_uses_available_parallelism() {
        let runner: ShardedRunner<Engine> = ShardedRunner::new(&Expr::int_range(1, 5));
        let n = runner.shards_for(usize::MAX);
        assert!(n >= 1);
        assert_eq!(runner.config(), RunnerConfig::default());
    }

    mod multi {
        use super::*;
        use rfjson_core::multi::{MultiBackend, MultiEngine};

        fn batch() -> Vec<Expr> {
            vec![
                ctx_expr(),
                Expr::and([
                    Expr::substring(b"humidity", 1).unwrap(),
                    Expr::int_range(10, 90),
                ]),
                Expr::int_range(1, 5),
            ]
        }

        fn corpus() -> Vec<u8> {
            let mut s = Vec::new();
            for _ in 0..6 {
                s.extend_from_slice(b"{\"e\":[{\"v\":\"21.0\",\"n\":\"temperature\"}]}\n");
                s.extend_from_slice(b"{\"n\":\"humidity\",\"v\":\"55\"}\r\n");
                s.extend_from_slice(b"\n{\"a\":3}\n{\"a\":9}\n");
            }
            s.extend_from_slice(b"{\"n\":\"humidity\",\"v\":\"42\"}");
            s
        }

        #[test]
        fn sharded_fused_equals_serial_fused_and_single_engines() {
            let exprs = batch();
            let stream = corpus();
            let serial = MultiEngine::compile_batch(&exprs)
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
            for shards in [1, 2, 3, 8] {
                let mut runner: ShardedRunner<MultiEngine> =
                    ShardedRunner::with_shards(&exprs[..], shards);
                let got = runner.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
                assert_eq!(got.unwrap(), serial, "shards={shards}");
            }
            for (q, expr) in exprs.iter().enumerate() {
                let single =
                    Engine::compile(expr).filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
                assert_eq!(serial.query_verdicts(q), single, "query {q}");
            }
        }

        #[test]
        fn quarantine_agrees_at_every_shard_count() {
            let exprs = batch();
            let stream = corpus();
            let limits = IngestLimits {
                max_record_bytes: Some(30),
                max_records: Some(10),
            };
            let serial = MultiEngine::compile_batch(&exprs).filter_stream_verdicts(&stream, limits);
            for shards in [1, 2, 3, 8] {
                let mut runner: ShardedRunner<MultiEngine> =
                    ShardedRunner::with_shards(&exprs[..], shards);
                let got = runner.filter_stream_verdicts(&stream, limits).unwrap();
                assert_eq!(got, serial, "shards={shards}");
            }
        }

        #[test]
        fn empty_batch_is_a_compile_error() {
            assert!(matches!(
                ShardedRunner::<MultiEngine>::try_with_shards(&[], 2),
                Err(CompileError::Backend { .. })
            ));
        }
    }
}
