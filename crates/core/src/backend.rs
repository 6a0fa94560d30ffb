//! The execution seam: every way of running a raw filter implements
//! [`FilterBackend`].
//!
//! The paper's system is a many-lane filter: identical hardware filter
//! instances consume the raw byte stream and DMA back one match bit per
//! record. This crate has three software incarnations of that lane —
//! the cosim-faithful [`CompiledFilter`]
//! model, the table-driven [`Engine`](crate::engine::Engine), and the
//! gate-level [`CosimBackend`](crate::cosim::CosimBackend) — and the
//! sharded parallel runtime (`rfjson-runtime`) replicates any of them
//! across threads. They are interchangeable because they all speak this
//! one interface: compile from an [`Expr`], one latched accept signal
//! per byte, a record-boundary reset, and batch stream filtering whose
//! NDJSON framing rules come from **one** state machine
//! ([`Framer`], whose limit and verdict types are re-exported here).
//! Every backend is also a [`Lane`] of one column, the view it shares
//! with a batch of queries: the record driver below, the byte-serial
//! oracle, is written once over that trait. The table-driven
//! [`Engine`](crate::engine::Engine) and
//! [`MultiEngine`](crate::multi::MultiEngine) run their own stream path,
//! the word kernel, for every program instead; their record-at-a-time
//! methods run the model, so the kernel is their one datapath.
//!
//! # Choosing a backend
//!
//! ```
//! use rfjson_core::backend::FilterBackend;
//! use rfjson_core::cosim::CosimBackend;
//! use rfjson_core::{CompiledFilter, Engine, Expr};
//!
//! let expr = Expr::and([Expr::substring(b"humidity", 1)?, Expr::int_range(10, 90)]);
//! let stream = b"{\"n\":\"humidity\",\"v\":\"55\"}\n{\"n\":\"humidity\",\"v\":\"95\"}\n";
//!
//! // Any backend, same decisions:
//! let mut backends: Vec<Box<dyn FilterBackend>> = vec![
//!     Box::new(CompiledFilter::compile(&expr)),
//!     Box::new(Engine::compile(&expr)),
//!     Box::new(CosimBackend::compile(&expr)),
//! ];
//! for b in &mut backends {
//!     assert_eq!(b.filter_stream(stream), vec![true, false], "{}", b.name());
//! }
//! # Ok::<(), rfjson_core::expr::ExprError>(())
//! ```

use crate::evaluator::CompiledFilter;
use crate::expr::{Expr, ExprError};
use std::error::Error;
use std::fmt;

use rfjson_jsonstream::frame::Framer;
pub use rfjson_jsonstream::frame::{IngestLimits, SkipReason, Verdict};

/// Why a backend could not be compiled from an expression — the fallible
/// half of the construction API ([`FilterBackend::try_compile`]).
///
/// The panicking [`FilterBackend::compile`] remains for expressions the
/// caller built through the smart constructors (which cannot produce
/// invalid trees); anything compiled from **user-supplied** input should
/// go through `try_compile` so an ill-formed expression degrades to an
/// error value instead of aborting the lane.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The expression failed [`Expr::validate`].
    InvalidExpr(ExprError),
    /// A backend-specific construction step failed (elaboration,
    /// netlist checks, simulator setup, …).
    Backend {
        /// Which backend refused ([`FilterBackend::name`] of the target).
        backend: &'static str,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidExpr(e) => write!(f, "invalid expression: {e}"),
            CompileError::Backend { backend, reason } => {
                write!(f, "{backend} backend failed to compile: {reason}")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::InvalidExpr(e) => Some(e),
            CompileError::Backend { .. } => None,
        }
    }
}

impl From<ExprError> for CompileError {
    fn from(e: ExprError) -> Self {
        CompileError::InvalidExpr(e)
    }
}

/// A byte-serial raw-filter execution path.
///
/// Semantics (identical across implementations, held equal by the
/// differential and co-simulation test suites):
///
/// * [`on_byte`](FilterBackend::on_byte) consumes one byte and returns
///   the **latched** record-accept signal — once a record satisfies the
///   filter, the signal stays high until the next record boundary;
/// * [`reset`](FilterBackend::reset) returns the filter to its
///   record-boundary state (hardware: the synchronous `\n` reset);
/// * the provided batch methods frame newline-delimited streams with
///   the shared [`rfjson_jsonstream::frame`] rules, so every backend
///   emits exactly one decision per (non-blank) record — the match-signal
///   DMA write-back of the paper's system.
///
/// The trait is object-safe: heterogeneous backends can sit behind
/// `Box<dyn FilterBackend>` (only [`compile`](FilterBackend::compile)
/// is `Self: Sized`).
pub trait FilterBackend {
    /// Compiles an expression into this execution form.
    ///
    /// # Panics
    ///
    /// Panics if the expression fails [`Expr::validate`] — construct
    /// expressions through the smart constructors to avoid this.
    fn compile(expr: &Expr) -> Self
    where
        Self: Sized;

    /// Fallible form of [`compile`](FilterBackend::compile): validates
    /// the expression first and returns a [`CompileError`] instead of
    /// panicking, so user-supplied expressions can never abort a lane.
    ///
    /// The default implementation is `validate` + `compile`; backends
    /// whose construction has further failure modes (e.g. elaboration)
    /// override it to surface those as [`CompileError::Backend`].
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidExpr`] if the expression fails
    /// [`Expr::validate`]; backend-specific errors per implementation.
    fn try_compile(expr: &Expr) -> Result<Self, CompileError>
    where
        Self: Sized,
    {
        expr.validate()?;
        Ok(Self::compile(expr))
    }

    /// Short stable identifier for reports and benchmarks
    /// (`"model"`, `"engine"`, `"cosim"`, …).
    fn name(&self) -> &'static str;

    /// The source expression.
    fn expr(&self) -> &Expr;

    /// Advances one cycle; returns the current (latched) record-accept
    /// signal.
    fn on_byte(&mut self, byte: u8) -> bool;

    /// Advances a slice of record content, cut anywhere, one byte at a
    /// time; returns the latched record-accept signal after the last byte
    /// (`false` for an empty block — what a loop that never ran would
    /// leave behind). A fast bulk path belongs on the stream path
    /// ([`filter_stream_verdicts_into`](FilterBackend::filter_stream_verdicts_into)),
    /// not here.
    fn on_block(&mut self, block: &[u8]) -> bool {
        let mut accept = false;
        for &b in block {
            accept = self.on_byte(b);
        }
        accept
    }

    /// Record-boundary reset.
    fn reset(&mut self);

    /// Flushes any internally accumulated telemetry into the global
    /// [`rfjson_telemetry`] registry.
    ///
    /// Backends that keep per-stream counters (the SWAR engines tally
    /// bytes-by-path and prefilter events in plain locals — no atomics
    /// on the byte path) override this; the stream drivers call it once
    /// per stream, after the last record. The default is a no-op, and
    /// under the `telemetry-off` feature even the overrides compile to
    /// nothing.
    fn flush_telemetry(&mut self) {}

    /// Scans one record (appending the `\n` separator the hardware
    /// sees) and returns the accept decision. Resets on entry, so
    /// repeated calls are independent.
    fn accepts_record(&mut self, record: &[u8]) -> bool {
        self.reset();
        let mut accept = false;
        for &b in record {
            accept = self.on_byte(b);
        }
        self.on_byte(b'\n') || accept
    }

    /// Filters a newline-delimited stream, appending one accept
    /// decision per record to `out` (allocation-reusing form of
    /// [`filter_stream`](FilterBackend::filter_stream)).
    ///
    /// Framing — CR handling, blank lines, the trailing record without
    /// a separator — follows the workspace-wide rules of
    /// [`rfjson_jsonstream::frame`], identically for every backend.
    ///
    /// This is a thin wrapper over the quarantine-aware
    /// [`filter_stream_verdicts_into`](FilterBackend::filter_stream_verdicts_into)
    /// with [`IngestLimits::UNLIMITED`], under which every verdict is a
    /// plain match/no-match decision.
    fn filter_stream_into(&mut self, stream: &[u8], out: &mut Vec<bool>) {
        let mut verdicts = Vec::new();
        self.filter_stream_verdicts_into(stream, IngestLimits::UNLIMITED, &mut verdicts);
        out.extend(verdicts.iter().map(Verdict::matched));
    }

    /// Filters a newline-delimited stream, returning the per-record
    /// accept decisions.
    fn filter_stream(&mut self, stream: &[u8]) -> Vec<bool> {
        let mut out = Vec::new();
        self.filter_stream_into(stream, &mut out);
        out
    }

    /// Quarantine-aware stream filtering: appends one [`Verdict`] per
    /// record to `out`. Records violating `limits` are
    /// [`Verdict::Skipped`] — reported, never silently dropped, and
    /// never allowed to poison the lane (the per-record reset restores
    /// the filter regardless of how much of a quarantined record was
    /// actually scanned).
    ///
    /// With [`IngestLimits::UNLIMITED`] the match/no-match verdicts are
    /// byte-identical to [`filter_stream_into`](FilterBackend::filter_stream_into)
    /// decisions; under limits, the non-skipped verdicts still are.
    ///
    /// The default is the record driver, [`run_verdict_driver`].
    /// [`Engine`](crate::engine::Engine) overrides it with its stream
    /// path — the word kernel over the buffer, the separator as a kernel
    /// event, a live literal prefilter gating records in front of it.
    fn filter_stream_verdicts_into(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut Vec<Verdict>,
    ) {
        run_verdict_driver(self, stream, limits, out);
    }

    /// Quarantine-aware stream filtering, returning one [`Verdict`] per
    /// record (see
    /// [`filter_stream_verdicts_into`](FilterBackend::filter_stream_verdicts_into)).
    fn filter_stream_verdicts(&mut self, stream: &[u8], limits: IngestLimits) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.filter_stream_verdicts_into(stream, limits, &mut out);
        out
    }
}

/// One lane of the paper's replicated filter: compiled from a source, it
/// scans a self-contained NDJSON stream and writes back one verdict per
/// record (§IV-B). A single query is the one-column case — every
/// [`FilterBackend`] is a lane through the blanket impl below, one
/// [`Verdict`] per record — and a batch of queries is a wider match word:
/// [`MultiEngine`](crate::multi::MultiEngine) and
/// [`MultiLanes`](crate::multi::MultiLanes) write one
/// [`BatchVerdicts`](crate::multi::BatchVerdicts) row per record.
///
/// The byte-serial record driver [`run_verdict_driver`] and the sharded
/// runner of `rfjson-runtime` are written once over this trait. No
/// method shares a name with one of [`FilterBackend`] or
/// [`MultiBackend`](crate::multi::MultiBackend), so all three traits can
/// be in scope together.
pub trait Lane {
    /// What the lane is compiled from: an [`Expr`], or a batch `[Expr]`.
    type Source: ?Sized + ToOwned<Owned: Clone + fmt::Debug>;
    /// Where the lane writes its verdicts.
    type Verdicts: VerdictSink;
    /// The byte-serial reference lane for the same source, which the
    /// runtime retries a failed shard on.
    type Reference: Lane<Source = Self::Source, Verdicts = Self::Verdicts>;

    /// Compiles a lane from `source`.
    ///
    /// # Errors
    ///
    /// [`CompileError`] for an ill-formed source or a failed backend
    /// construction step — never a panic.
    fn compile_lane(source: &Self::Source) -> Result<Self, CompileError>
    where
        Self: Sized;

    /// Checks that `source` is well-formed without compiling it.
    ///
    /// # Errors
    ///
    /// The [`CompileError`] [`compile_lane`](Lane::compile_lane) would
    /// return for an ill-formed source.
    fn check_source(source: &Self::Source) -> Result<(), CompileError>;

    /// An empty verdict sink as wide as this lane's match word.
    fn new_verdicts(&self) -> Self::Verdicts;

    /// The lane's own quarantine-aware stream method: the record driver,
    /// or whatever faster path the backend overrides it with.
    fn scan_stream(&mut self, stream: &[u8], limits: IngestLimits, out: &mut Self::Verdicts);

    /// Record-boundary reset.
    fn start_record(&mut self);

    /// Feeds one content byte; returns the latched accept signal of a
    /// single query (a batch returns `false` and reads its accepts back in
    /// [`end_record`](Lane::end_record)).
    fn feed_byte(&mut self, byte: u8) -> bool;

    /// Ends a scored record and appends its verdict to `out`: the accepts
    /// latched after the `\n` separator if `terminated`, else those after
    /// closing the trailing record ORed with the ones its last content
    /// byte latched (`last`, for a single query).
    fn end_record(&mut self, terminated: bool, last: bool, out: &mut Self::Verdicts);

    /// Ends a stream in which `scored` records were scored: flushes the
    /// lane's telemetry.
    fn end_stream(&mut self, scored: u64);
}

/// Where the stream drivers write one verdict per record — a
/// `Vec<`[`Verdict`]`>` for a single query, a
/// [`BatchVerdicts`](crate::multi::BatchVerdicts) row for a batch — with
/// what the sharded runner needs to reassemble, restore and account them.
pub trait VerdictSink {
    /// Records written so far.
    fn num_records(&self) -> usize;

    /// Appends a quarantined record.
    fn push_skipped(&mut self, reason: SkipReason);

    /// Appends all of `other`'s records (shard reassembly).
    fn extend_from(&mut self, other: &Self);

    /// Keeps the first `records` records.
    fn truncate_records(&mut self, records: usize);

    /// Overwrites every record from `start` on as skipped with `reason` —
    /// the global record budget, which wins over any per-record verdict.
    fn quarantine_from(&mut self, start: usize, reason: SkipReason);

    /// The outcome of `record`: its quarantine, else whether any query
    /// matched it.
    fn outcome(&self, record: usize) -> Verdict;
}

impl VerdictSink for Vec<Verdict> {
    fn num_records(&self) -> usize {
        self.len()
    }

    fn push_skipped(&mut self, reason: SkipReason) {
        self.push(Verdict::Skipped(reason));
    }

    fn extend_from(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }

    fn truncate_records(&mut self, records: usize) {
        self.truncate(records);
    }

    fn quarantine_from(&mut self, start: usize, reason: SkipReason) {
        for v in self.iter_mut().skip(start) {
            *v = Verdict::Skipped(reason);
        }
    }

    fn outcome(&self, record: usize) -> Verdict {
        self[record]
    }
}

/// A single query is a lane of one column.
impl<B: FilterBackend + ?Sized> Lane for B {
    type Source = Expr;
    type Verdicts = Vec<Verdict>;
    type Reference = CompiledFilter;

    fn compile_lane(expr: &Expr) -> Result<Self, CompileError>
    where
        Self: Sized,
    {
        B::try_compile(expr)
    }

    fn check_source(expr: &Expr) -> Result<(), CompileError> {
        Ok(expr.validate()?)
    }

    fn new_verdicts(&self) -> Vec<Verdict> {
        Vec::new()
    }

    fn scan_stream(&mut self, stream: &[u8], limits: IngestLimits, out: &mut Vec<Verdict>) {
        self.filter_stream_verdicts_into(stream, limits, out);
    }

    #[inline]
    fn start_record(&mut self) {
        self.reset();
    }

    #[inline]
    fn feed_byte(&mut self, byte: u8) -> bool {
        self.on_byte(byte)
    }

    #[inline]
    fn end_record(&mut self, terminated: bool, last: bool, out: &mut Vec<Verdict>) {
        let accept = self.on_byte(b'\n');
        out.push(Verdict::from_decision(accept || (!terminated && last)));
    }

    fn end_stream(&mut self, _scored: u64) {
        self.flush_telemetry();
    }
}

/// The record driver behind the provided batch methods, and the
/// byte-serial oracle the stream paths are held to: frames `stream` with
/// [`Framer`] and, for each scored record, feeds every byte of the line —
/// framing CR included — through its own [`Lane::feed_byte`], then the
/// `\n` separator the hardware would see (for the trailing record, the
/// synthetic one that closes it). Blank lines feed nothing and reset
/// nothing: the lane is already at its reset state. Quarantined records
/// feed nothing either; their verdict does not depend on the filter.
///
/// The model and cosim backends and the
/// [`MultiLanes`](crate::multi::MultiLanes) reference batch run it for
/// every stream; [`Engine`](crate::engine::Engine) and
/// [`MultiEngine`](crate::multi::MultiEngine) never do — their stream
/// path runs every program — but it drives them as well as any backend,
/// through their record-at-a-time API, which runs the model. It is
/// public for wrappers that need per-byte interception (e.g.
/// fault-injection harnesses).
///
/// A non-trailing record's decision is the separator's latched accepts
/// alone, read after the `\n`; the trailing record ORs the last content
/// byte's latched accepts (which [`Lane::feed_byte`] returns, or a batch
/// reads back) with the synthetic separator's.
pub fn run_verdict_driver<L: Lane + ?Sized>(
    lane: &mut L,
    stream: &[u8],
    limits: IngestLimits,
    out: &mut L::Verdicts,
) {
    lane.start_record();
    let mut scored = 0;
    let mut framer = Framer::new(limits);
    framer.records(stream, |span, terminated, end| match end.skip {
        Some(reason) => out.push_skipped(reason),
        None => {
            let mut last = false;
            for &b in &stream[span] {
                last = lane.feed_byte(b);
            }
            lane.end_record(terminated, last, out);
            lane.start_record();
            scored += 1;
        }
    });
    framer.flush();
    lane.end_stream(scored);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::CosimBackend;
    use crate::engine::Engine;
    use crate::evaluator::CompiledFilter;

    fn all_backends(expr: &Expr) -> Vec<Box<dyn FilterBackend>> {
        vec![
            Box::new(CompiledFilter::compile(expr)),
            Box::new(Engine::compile(expr)),
            Box::new(CosimBackend::compile(expr)),
        ]
    }

    #[test]
    fn backends_agree_behind_trait_objects() {
        let expr = Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]);
        let stream: &[u8] = b"{\"e\":[{\"v\":\"21.0\",\"n\":\"temperature\"}]}\r\n\r\n{\"e\":[{\"v\":\"99.0\",\"n\":\"temperature\"}]}\n{\"e\":[{\"v\":\"1.0\",\"n\":\"temperature\"}]}";
        let mut expected: Option<Vec<bool>> = None;
        for b in &mut all_backends(&expr) {
            let got = b.filter_stream(stream);
            assert_eq!(got.len(), 3, "{}", b.name());
            match &expected {
                None => expected = Some(got),
                Some(e) => assert_eq!(&got, e, "{} diverges", b.name()),
            }
        }
    }

    #[test]
    fn backend_names_are_distinct() {
        let expr = Expr::int_range(1, 5);
        let names: Vec<&str> = all_backends(&expr).iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["model", "engine", "cosim"]);
        for b in &mut all_backends(&expr) {
            assert_eq!(b.expr().to_string(), expr.to_string());
        }
    }

    #[test]
    fn provided_accepts_record_is_reentrant() {
        let mut e: Box<dyn FilterBackend> = Box::new(Engine::compile(&Expr::int_range(1, 5)));
        assert!(e.accepts_record(br#"{"a":3}"#));
        assert!(!e.accepts_record(br#"{"a":9}"#));
        assert!(e.accepts_record(br#"{"a":3}"#), "reset on entry");
    }

    #[test]
    fn try_compile_rejects_ill_formed_expressions_on_every_backend() {
        let bad = Expr::And(vec![]);
        assert!(matches!(
            CompiledFilter::try_compile(&bad),
            Err(CompileError::InvalidExpr(_))
        ));
        assert!(matches!(
            Engine::try_compile(&bad),
            Err(CompileError::InvalidExpr(_))
        ));
        assert!(matches!(
            CosimBackend::try_compile(&bad),
            Err(CompileError::InvalidExpr(_))
        ));
        let err = Engine::try_compile(&bad).unwrap_err();
        assert!(err.to_string().contains("invalid expression"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn try_compile_accepts_what_compile_accepts() {
        let expr = Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]);
        for mut b in [
            Box::new(CompiledFilter::try_compile(&expr).unwrap()) as Box<dyn FilterBackend>,
            Box::new(Engine::try_compile(&expr).unwrap()),
            Box::new(CosimBackend::try_compile(&expr).unwrap()),
        ] {
            assert!(b.accepts_record(br#"{"e":[{"v":"21.0","n":"temperature"}]}"#));
        }
    }

    #[test]
    fn verdicts_match_boolean_decisions_when_unlimited() {
        let expr = Expr::int_range(1, 5);
        let stream: &[u8] = b"{\"a\":3}\r\n\r\n{\"a\":9}\n{\"a\":4}";
        for b in &mut all_backends(&expr) {
            let bools = b.filter_stream(stream);
            let verdicts = b.filter_stream_verdicts(stream, IngestLimits::UNLIMITED);
            assert_eq!(
                verdicts.iter().map(Verdict::matched).collect::<Vec<_>>(),
                bools,
                "{}",
                b.name()
            );
            assert!(verdicts.iter().all(|v| v.decision().is_some()));
        }
    }

    #[test]
    fn oversized_record_is_quarantined_not_dropped() {
        let expr = Expr::int_range(1, 5);
        let long = format!("{{\"a\":3,\"pad\":\"{}\"}}", "x".repeat(64));
        let stream = format!("{{\"a\":3}}\n{long}\n{{\"a\":9}}\n");
        let limits = IngestLimits::max_record_bytes(32);
        for b in &mut all_backends(&expr) {
            let verdicts = b.filter_stream_verdicts(stream.as_bytes(), limits);
            assert_eq!(
                verdicts.len(),
                3,
                "{}: skipped records still counted",
                b.name()
            );
            assert_eq!(verdicts[0], Verdict::Match);
            assert_eq!(
                verdicts[1],
                Verdict::Skipped(SkipReason::TooLong {
                    limit: 32,
                    actual: long.len()
                })
            );
            assert_eq!(
                verdicts[2],
                Verdict::NoMatch,
                "{}: lane not poisoned",
                b.name()
            );
        }
    }

    #[test]
    fn record_limit_quarantines_the_tail() {
        let mut e = Engine::compile(&Expr::int_range(1, 5));
        let verdicts = e.filter_stream_verdicts(
            b"{\"a\":3}\n{\"a\":4}\n{\"a\":9}\n",
            IngestLimits::max_records(2),
        );
        assert_eq!(
            verdicts,
            vec![
                Verdict::Match,
                Verdict::Match,
                Verdict::Skipped(SkipReason::RecordLimit { limit: 2 })
            ]
        );
    }

    #[test]
    fn quarantined_trailing_record_without_newline() {
        // EOF + limit: the unclosed trailing record is metered too.
        let mut e = Engine::compile(&Expr::int_range(1, 5));
        let verdicts = e.filter_stream_verdicts(
            b"{\"a\":3}\n{\"a\":4,\"pad\":\"xxxxxxxxxxxxxxxxxxx\"}",
            IngestLimits::max_record_bytes(10),
        );
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0], Verdict::Match);
        assert!(matches!(
            verdicts[1],
            Verdict::Skipped(SkipReason::TooLong { .. })
        ));
    }
}
