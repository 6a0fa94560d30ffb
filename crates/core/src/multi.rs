//! Multi-query fused execution: answer a whole batch of queries from one
//! pass over the stream.
//!
//! The paper's deployment model is many resident filter queries screening
//! one raw JSON stream (§IV-B); Mitra et al. showed for XML that the win
//! at scale comes from one datapath serving all concurrent profiles.
//! [`MultiEngine`] is that step for the software stack, and it has no
//! datapath of its own: it **partitions the batch into groups**, compiles
//! each group into one [`Engine`] (one flat program, members in disjoint
//! node ranges, primitive units deduplicated — see the
//! [engine docs](crate::engine#groups)), runs every stream call group
//! by group and scatters their root bits into the batch's verdict words.
//!
//! * **Grouping.** Two queries that share a *required needle* — the
//!   needle of a string unit every match of the query must fire, the
//!   [prefilter](crate::prefilter)'s notion — tend to match the same
//!   records, so each connected component of that relation is one group;
//!   queries without any required needle are always scanned and form a
//!   component of their own. A group takes as many latch words and lane
//!   banks as its members need, and the word kernel runs every program,
//!   so no capacity limit splits a component. All of that is read off
//!   the expressions, so each group is compiled exactly once.
//! * **Routing.** Each group engine carries the group's prefilter, which
//!   rejects a record only when *every* member's own prefilter does —
//!   i.e. only when, for each member, some unit that member needs provably
//!   cannot fire anywhere in the record, so no member's root can latch
//!   and skipping the scan changes no verdict. A stream call is framed
//!   once; then each group asks its prefilter about every framed record
//!   and runs its word kernel over the runs of records between two it
//!   rejected ([the engine's stream path](crate::engine#the-word-kernel)).
//!   A record of an interleaved stream is therefore scanned by the groups
//!   it can concern and dismissed by the others from every N-th byte,
//!   with the engine's usual probation: a group whose prefilter never
//!   rejects stops asking, and scans the rest of the call as one run.
//! * **Sharing.** Inside a group, identical primitive units (same key
//!   automaton, same number-range DFA, same substring comparator bank)
//!   are instantiated once and the byte classification, string masking
//!   and SWAR block scan run once. [`ShareStats`] reports units demanded
//!   against units built, summed over the groups.
//! * **Verdict bitsets** — per record, the drivers emit one `u64` word
//!   per 64 queries ([`BatchVerdicts`]), the batched form of the paper's
//!   one-match-bit-per-record DMA write-back.
//!
//! [`MultiBackend`] is the batch counterpart of
//! [`FilterBackend`], and both are
//! [`Lane`]s: a batch is a lane whose match word is one bit per query
//! instead of one. Every stream driver frames through the one
//! [`Framer`](rfjson_jsonstream::frame::Framer) — the engine's stream
//! path that [`MultiEngine`] runs per group, and the byte-serial record
//! driver [`run_verdict_driver`], one body for a single query and a
//! batch alike — so a batch has the single query's framing and
//! quarantine rules by construction, and one sharded runner in
//! `rfjson-runtime` serves both. The record-at-a-time methods of
//! [`MultiEngine`] forward to its group engines', which run the
//! byte-serial model ([`Engine::on_byte`]).
//! The differential suite (`tests/multi_diff.rs`) holds every fused
//! decision byte-identical to N independent single-query engines.
//!
//! ```
//! use rfjson_core::multi::{MultiBackend, MultiEngine};
//! use rfjson_core::{Expr, IngestLimits};
//!
//! let queries = vec![
//!     Expr::context([Expr::substring(b"temperature", 1)?, Expr::float_range("0.7", "35.1")?]),
//!     Expr::context([Expr::substring(b"humidity", 1)?, Expr::int_range(10, 90)]),
//! ];
//! let mut fused = MultiEngine::compile_batch(&queries);
//! let stream = b"{\"e\":[{\"v\":\"21.0\",\"n\":\"temperature\"}]}\n{\"e\":[{\"v\":\"55\",\"n\":\"humidity\"}]}\n";
//! let verdicts = fused.filter_stream_verdicts(stream, IngestLimits::UNLIMITED);
//! assert!(verdicts.matched(0, 0) && !verdicts.matched(0, 1));
//! assert!(!verdicts.matched(1, 0) && verdicts.matched(1, 1));
//! # Ok::<(), rfjson_core::expr::ExprError>(())
//! ```

use crate::backend::{run_verdict_driver, CompileError, FilterBackend, Lane, VerdictSink};
use crate::engine::{frame_records, Engine, ProgramView, RecordLine, Run};
use crate::evaluator::CompiledFilter;
use crate::expr::Expr;
use crate::prefilter::required_needles;
use rfjson_jsonstream::frame::{IngestLimits, SkipReason, Verdict};
use std::collections::HashMap;

pub use crate::engine::UnitCounts;

/// Unit-sharing census of a fused plan: what each query would have
/// instantiated alone versus what the groups actually hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Units each query's expression demands, in batch order.
    pub per_query: Vec<UnitCounts>,
    /// Units the groups instantiate after deduplication, summed.
    pub pool: UnitCounts,
}

impl ShareStats {
    /// Units the queries demand in total (the serial instantiation cost).
    pub fn total_units(&self) -> usize {
        self.per_query.iter().map(UnitCounts::total).sum()
    }

    /// Units saved by deduplication.
    pub fn shared_units(&self) -> usize {
        self.total_units() - self.pool.total()
    }
}

/// Root of `q`'s component in a union-find forest, halving paths.
fn find(parent: &mut [usize], mut q: usize) -> usize {
    while parent[q] != q {
        parent[q] = parent[parent[q]];
        q = parent[q];
    }
    q
}

/// Partitions a batch into groups (member indices, ascending; groups
/// ordered by their first member) — the rule of the [module docs](self).
fn plan_groups(exprs: &[Expr]) -> Vec<Vec<usize>> {
    // Connected components of "shares a required needle", by union-find
    // over the first query seen with each needle. Queries that require
    // none meet on the empty needle, which no unit can have.
    let mut parent: Vec<usize> = (0..exprs.len()).collect();
    let mut first_with: HashMap<&[u8], usize> = HashMap::new();
    for (q, expr) in exprs.iter().enumerate() {
        let mut needles = required_needles(expr);
        if needles.is_empty() {
            needles.push(b"");
        }
        for needle in needles {
            let other = *first_with.entry(needle).or_insert(q);
            let (a, b) = (find(&mut parent, q), find(&mut parent, other));
            parent[a.max(b)] = a.min(b);
        }
    }
    // A component's root is its first member, so groups come out ordered.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = vec![usize::MAX; exprs.len()];
    for q in 0..exprs.len() {
        let root = find(&mut parent, q);
        if root == q {
            group_of[q] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of[root]].push(q);
    }
    groups
}

/// One group of a [`MultiEngine`]: the queries compiled into one
/// [`Engine`], and that engine.
#[derive(Debug, Clone)]
pub struct Group {
    members: Vec<usize>,
    engine: Engine,
}

impl Group {
    /// Batch indices of the group's queries, ascending; member `i` of
    /// [`Group::engine`] is query `members()[i]`.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The group's engine: its [`Engine::num_nodes`],
    /// [`Engine::unit_counts`], [`Engine::prefilter_status`] and
    /// [`Engine::block_automaton_views`] describe the group.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs the group's gated stream path ([`Engine::gate`]) over the
    /// scored records of one call, framed once for every group, ORing
    /// each member's accept bit into the record's row of `out` (row
    /// `base + slot`).
    fn scan(
        &mut self,
        stream: &[u8],
        lines: &[RecordLine],
        run: &mut Run,
        out: &mut BatchVerdicts,
        base: usize,
    ) {
        let (members, roots) = (&self.members, self.engine.root_mask().to_vec());
        let mut verdict = |slot, l: &[u64]| {
            let row = out.row_mut(base + slot);
            // Member `i`'s root is the `i`-th lowest root bit.
            let mut below = 0;
            for (&l, &r) in l.iter().zip(&roots) {
                let mut hits = l & r;
                while hits != 0 {
                    let bit = hits & hits.wrapping_neg();
                    let q = members[below + (r & (bit - 1)).count_ones() as usize];
                    row[q / 64] |= 1u64 << (q % 64);
                    hits ^= bit;
                }
                below += r.count_ones() as usize;
            }
        };
        for &line in lines {
            self.engine.gate(stream, line, run, &mut verdict);
        }
        self.engine.gate_end(stream, run, &mut verdict);
    }
}

/// The fused multi-query execution engine: the batch partitioned into
/// groups, one [`Engine`] per group. See the [module docs](self) for the
/// grouping rule and why routing by group prefilter is sound.
#[derive(Debug, Clone)]
pub struct MultiEngine {
    exprs: Vec<Expr>,
    groups: Vec<Group>,
    share: ShareStats,
    /// The scored records of the current stream call, framed once for
    /// every group, and the pending run each group uses in turn; kept
    /// to reuse the allocations.
    lines: Vec<RecordLine>,
    run: Run,
}

impl MultiEngine {
    /// Compiles a batch of expressions into one fused plan.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or any expression fails
    /// [`Expr::validate`] — use [`MultiEngine::try_compile_batch`] for
    /// user-supplied batches.
    pub fn compile_batch(exprs: &[Expr]) -> MultiEngine {
        Self::try_compile_batch(exprs).expect("batch must be non-empty and well-formed")
    }

    /// Fallible form of [`MultiEngine::compile_batch`].
    ///
    /// # Errors
    ///
    /// [`CompileError::Backend`] for an empty batch;
    /// [`CompileError::InvalidExpr`] if any expression fails
    /// [`Expr::validate`].
    pub fn try_compile_batch(exprs: &[Expr]) -> Result<MultiEngine, CompileError> {
        check_batch(exprs, "multi-engine")?;
        let mut share = ShareStats {
            per_query: exprs.iter().map(UnitCounts::of).collect(),
            ..ShareStats::default()
        };
        let mut groups = Vec::new();
        for members in plan_groups(exprs) {
            let member_exprs: Vec<&Expr> = members.iter().map(|&q| &exprs[q]).collect();
            let engine = Engine::compile_group(&member_exprs);
            share.pool += engine.unit_counts();
            groups.push(Group { members, engine });
        }
        Ok(MultiEngine {
            exprs: exprs.to_vec(),
            groups,
            share,
            lines: Vec::new(),
            run: Run::default(),
        })
    }

    /// The batch's source expressions, in query order.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Number of queries in the batch.
    pub fn num_queries(&self) -> usize {
        self.exprs.len()
    }

    /// The groups the batch was partitioned into, ordered by their first
    /// member.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The unit-sharing census: per-query demand vs. units built.
    pub fn share_stats(&self) -> &ShareStats {
        &self.share
    }

    /// One program snapshot per query, in batch order, for static
    /// verification: each is the query's member of its group rebased to a
    /// single-root program of its own ([`Engine::member_view`]). The DFA
    /// unit offsets point into the **group's** tables, so the verifier's
    /// stored-table-vs-fresh-derivation check proves that deduplication
    /// never merged two different automata.
    pub fn lane_views(&self) -> Vec<ProgramView> {
        let mut views: Vec<Option<ProgramView>> = vec![None; self.exprs.len()];
        for group in &self.groups {
            for (i, &q) in group.members.iter().enumerate() {
                views[q] = Some(group.engine.member_view(i));
            }
        }
        let views = views.into_iter().flatten().collect::<Vec<_>>();
        assert_eq!(views.len(), self.exprs.len(), "every query is in one group");
        views
    }

    /// Advances every group's record-at-a-time model one cycle
    /// ([`Engine::on_byte`]).
    pub fn on_byte(&mut self, byte: u8) {
        for group in &mut self.groups {
            group.engine.on_byte(byte);
        }
    }

    /// ORs every currently-accepting query's bit into `out` (one bit per
    /// query, `u64` word per 64 queries). Callers zero `out` first.
    pub fn write_accepts(&self, out: &mut [u64]) {
        for group in &self.groups {
            for (i, &q) in group.members.iter().enumerate() {
                if group.engine.member_accepts(i) {
                    out[q / 64] |= 1u64 << (q % 64);
                }
            }
        }
    }

    /// Record-boundary reset of every group's record-at-a-time model.
    pub fn reset(&mut self) {
        for group in &mut self.groups {
            group.engine.reset();
        }
    }
}

impl MultiBackend for MultiEngine {
    fn try_compile_batch(exprs: &[Expr]) -> Result<Self, CompileError> {
        MultiEngine::try_compile_batch(exprs)
    }

    fn name(&self) -> &'static str {
        "multi-engine"
    }

    fn exprs(&self) -> &[Expr] {
        MultiEngine::exprs(self)
    }

    #[inline]
    fn on_byte(&mut self, byte: u8) {
        MultiEngine::on_byte(self, byte);
    }

    fn write_accepts(&self, out: &mut [u64]) {
        MultiEngine::write_accepts(self, out);
    }

    fn reset(&mut self) {
        MultiEngine::reset(self);
    }

    /// Frames the call once, then runs it group by group over the framed
    /// records, each group on its prefilter-gated stream path;
    /// `framing.*` is counted once per call and
    /// `multi.records` once per scored record.
    fn filter_stream_verdicts_into(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut BatchVerdicts,
    ) {
        let mut lines = std::mem::take(&mut self.lines);
        lines.clear();
        let base = out.num_records();
        frame_records(stream, limits, |line, skip| match skip {
            Some(reason) => out.push_skipped(reason),
            None => {
                out.push_scored_with(|_| {});
                lines.push(line);
            }
        });
        for group in &mut self.groups {
            group.scan(stream, &lines, &mut self.run, out, base);
        }
        crate::metrics::multi_metrics()
            .records
            .add(lines.len() as u64);
        MultiBackend::flush_telemetry(self);
        self.lines = lines;
    }

    /// Drains every group engine's per-stream tallies into the `multi.*`
    /// counters: bytes by how they were scanned, summed over the groups,
    /// and per (group, record) whether the group scanned the record or
    /// its prefilter rejected it.
    fn flush_telemetry(&mut self) {
        let (mut block, mut skipped, mut records, mut rejects) = (0, 0, 0, 0);
        for group in &mut self.groups {
            let s = group.engine.take_stats();
            block += s.bytes_block;
            skipped += s.bytes_prefilter_skipped;
            records += s.records;
            rejects += s.prefilter_rejected;
        }
        if block + skipped == 0 {
            return;
        }
        let m = crate::metrics::multi_metrics();
        m.bytes_block.add(block);
        m.bytes_prefilter_skipped.add(skipped);
        m.group_scans.add(records - rejects);
        m.group_rejects.add(rejects);
        m.groups.set(self.groups.len() as f64);
    }
}

/// Per-record verdicts for a whole query batch: one bit per (record,
/// query) pair, one `u64` word per 64 queries, plus the per-record
/// quarantine reasons — the batched form of the single-query
/// [`Verdict`] vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchVerdicts {
    queries: usize,
    words: usize,
    bits: Vec<u64>,
    skips: Vec<Option<SkipReason>>,
}

impl BatchVerdicts {
    /// Empty verdict set for a batch of `queries` queries.
    pub fn new(queries: usize) -> BatchVerdicts {
        BatchVerdicts {
            queries,
            words: queries.div_ceil(64).max(1),
            bits: Vec::new(),
            skips: Vec::new(),
        }
    }

    /// Number of queries per record.
    pub fn num_queries(&self) -> usize {
        self.queries
    }

    /// Number of records scored or skipped so far.
    pub fn num_records(&self) -> usize {
        self.skips.len()
    }

    /// Verdict words per record (`queries.div_ceil(64)`, at least 1).
    pub fn words_per_record(&self) -> usize {
        self.words
    }

    /// Appends a scored record's accept bitset (must be
    /// [`BatchVerdicts::words_per_record`] words).
    pub fn push_scored(&mut self, accepts: &[u64]) {
        assert_eq!(accepts.len(), self.words, "accept bitset width");
        self.bits.extend_from_slice(accepts);
        self.skips.push(None);
    }

    /// Appends a scored record whose accept bits `write` ORs into a zeroed
    /// row of [`BatchVerdicts::words_per_record`] words.
    fn push_scored_with(&mut self, write: impl FnOnce(&mut [u64])) {
        let start = self.bits.len();
        self.bits.resize(start + self.words, 0);
        write(&mut self.bits[start..]);
        self.skips.push(None);
    }

    /// The accept words of `record`.
    fn row_mut(&mut self, record: usize) -> &mut [u64] {
        &mut self.bits[record * self.words..(record + 1) * self.words]
    }

    /// The quarantine reason of `record`, if it was skipped.
    pub fn skip(&self, record: usize) -> Option<SkipReason> {
        self.skips[record]
    }

    /// Whether `record` matched `query` (false for skipped records).
    pub fn matched(&self, record: usize, query: usize) -> bool {
        assert!(query < self.queries, "query index");
        self.skips[record].is_none()
            && self.bits[record * self.words + query / 64] & (1u64 << (query % 64)) != 0
    }

    /// The single-query [`Verdict`] of `record` under `query`.
    pub fn verdict(&self, record: usize, query: usize) -> Verdict {
        match self.skips[record] {
            Some(reason) => Verdict::Skipped(reason),
            None => Verdict::from_decision(self.matched(record, query)),
        }
    }

    /// One query's verdict vector across all records — directly
    /// comparable to [`FilterBackend::filter_stream_verdicts`] output.
    pub fn query_verdicts(&self, query: usize) -> Vec<Verdict> {
        (0..self.num_records())
            .map(|r| self.verdict(r, query))
            .collect()
    }

    /// Records matching `query`.
    pub fn count_matches(&self, query: usize) -> usize {
        (0..self.num_records())
            .filter(|&r| self.matched(r, query))
            .count()
    }

    /// Drops all records, keeping the batch width and the allocations
    /// (for buffer reuse across streams).
    pub fn clear(&mut self) {
        self.bits.clear();
        self.skips.clear();
    }
}

impl VerdictSink for BatchVerdicts {
    fn num_records(&self) -> usize {
        self.skips.len()
    }

    /// Appends a quarantined record (no query bits).
    fn push_skipped(&mut self, reason: SkipReason) {
        self.bits.extend(std::iter::repeat_n(0, self.words));
        self.skips.push(Some(reason));
    }

    /// # Panics
    ///
    /// Panics if the query counts differ.
    fn extend_from(&mut self, other: &BatchVerdicts) {
        assert_eq!(self.queries, other.queries, "batch width");
        self.bits.extend_from_slice(&other.bits);
        self.skips.extend_from_slice(&other.skips);
    }

    fn truncate_records(&mut self, records: usize) {
        self.bits.truncate(records * self.words);
        self.skips.truncate(records);
    }

    fn quarantine_from(&mut self, start: usize, reason: SkipReason) {
        for r in start..self.skips.len() {
            self.bits[r * self.words..(r + 1) * self.words].fill(0);
            self.skips[r] = Some(reason);
        }
    }

    /// A record "matches" the batch when any query accepts it.
    fn outcome(&self, record: usize) -> Verdict {
        match self.skips[record] {
            Some(reason) => Verdict::Skipped(reason),
            None => {
                let row = &self.bits[record * self.words..(record + 1) * self.words];
                Verdict::from_decision(row.iter().any(|&word| word != 0))
            }
        }
    }
}

/// A batch raw-filter execution path: the multi-query counterpart of
/// [`FilterBackend`]. One shared per-byte advance updates every query;
/// [`MultiBackend::write_accepts`] reads the latched per-query accept
/// bits. A batch is a [`Lane`] whose verdict rows are [`BatchVerdicts`],
/// so its provided stream methods are the single-query record driver's;
/// [`MultiEngine`] overrides them with its groups' stream path.
pub trait MultiBackend: Lane<Source = [Expr], Verdicts = BatchVerdicts> {
    /// Compiles a batch of expressions into this execution form.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or an expression failing
    /// [`Expr::validate`] — use
    /// [`try_compile_batch`](MultiBackend::try_compile_batch) for
    /// user-supplied batches.
    fn compile_batch(exprs: &[Expr]) -> Self
    where
        Self: Sized,
    {
        Self::try_compile_batch(exprs).expect("batch must be non-empty and well-formed")
    }

    /// Fallible form of [`compile_batch`](MultiBackend::compile_batch).
    ///
    /// # Errors
    ///
    /// [`CompileError::Backend`] for an empty batch;
    /// [`CompileError::InvalidExpr`] for an ill-formed expression.
    fn try_compile_batch(exprs: &[Expr]) -> Result<Self, CompileError>
    where
        Self: Sized;

    /// Short stable identifier for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The batch's source expressions, in query order.
    fn exprs(&self) -> &[Expr];

    /// Number of queries in the batch.
    fn num_queries(&self) -> usize {
        self.exprs().len()
    }

    /// Advances every query one cycle.
    fn on_byte(&mut self, byte: u8);

    /// Advances a slice of record content, cut anywhere, one byte at a
    /// time.
    fn on_block(&mut self, block: &[u8]) {
        for &b in block {
            self.on_byte(b);
        }
    }

    /// ORs the current latched accept bit of every query into `out`
    /// (bit `q % 64` of word `q / 64`). Callers zero `out` first.
    fn write_accepts(&self, out: &mut [u64]);

    /// Record-boundary reset of every query.
    fn reset(&mut self);

    /// Flushes any internally accumulated telemetry into the global
    /// [`rfjson_telemetry`] registry — the batch-side twin of
    /// [`FilterBackend::flush_telemetry`]. Called by the stream drivers
    /// once per stream; default is a no-op.
    fn flush_telemetry(&mut self) {}

    /// Scans one record (appending the `\n` separator the hardware
    /// sees) and ORs each query's accept decision into `out`. Resets on
    /// entry; `out` must be zeroed by the caller.
    fn accepts_record_into(&mut self, record: &[u8], out: &mut [u64]) {
        self.reset();
        self.on_block(record);
        self.write_accepts(out);
        self.on_byte(b'\n');
        self.write_accepts(out);
    }

    /// Quarantine-aware batch stream filtering: one verdict-bitset row
    /// per record (see [`run_verdict_driver`] for the framing contract,
    /// shared with the single-query stream methods).
    fn filter_stream_verdicts(&mut self, stream: &[u8], limits: IngestLimits) -> BatchVerdicts {
        let mut out = BatchVerdicts::new(self.num_queries());
        self.filter_stream_verdicts_into(stream, limits, &mut out);
        out
    }

    /// Allocation-reusing form of
    /// [`filter_stream_verdicts`](MultiBackend::filter_stream_verdicts):
    /// appends one record row per record to `out`.
    fn filter_stream_verdicts_into(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut BatchVerdicts,
    ) {
        run_verdict_driver(self, stream, limits, out);
    }
}

/// A batch compiles only if it is non-empty and every query is
/// well-formed; `backend` names the refusing backend.
fn check_batch(exprs: &[Expr], backend: &'static str) -> Result<(), CompileError> {
    if exprs.is_empty() {
        return Err(CompileError::Backend {
            backend,
            reason: "a batch needs at least one query".into(),
        });
    }
    Ok(exprs.iter().try_for_each(Expr::validate)?)
}

/// The [`Lane`] view of a batch, the same for [`MultiEngine`] and
/// [`MultiLanes`]: the drivers step it through its [`MultiBackend`]
/// methods and read each record's verdict row back with
/// [`MultiBackend::write_accepts`].
macro_rules! batch_lane {
    ($backend:literal, impl$(<$b:ident: $bound:ident>)? for $ty:ty) => {
        impl$(<$b: $bound>)? Lane for $ty {
            type Source = [Expr];
            type Verdicts = BatchVerdicts;
            type Reference = MultiLanes<CompiledFilter>;

            fn compile_lane(exprs: &[Expr]) -> Result<Self, CompileError> {
                <Self as MultiBackend>::try_compile_batch(exprs)
            }

            fn check_source(exprs: &[Expr]) -> Result<(), CompileError> {
                check_batch(exprs, $backend)
            }

            fn new_verdicts(&self) -> BatchVerdicts {
                BatchVerdicts::new(self.num_queries())
            }

            fn scan_stream(&mut self, stream: &[u8], limits: IngestLimits, out: &mut BatchVerdicts) {
                self.filter_stream_verdicts_into(stream, limits, out);
            }

            fn start_record(&mut self) {
                self.reset();
            }

            #[inline]
            fn feed_byte(&mut self, byte: u8) -> bool {
                self.on_byte(byte);
                false
            }

            fn end_record(&mut self, terminated: bool, _last: bool, out: &mut BatchVerdicts) {
                out.push_scored_with(|row| {
                    if !terminated {
                        self.write_accepts(row);
                    }
                    self.on_byte(b'\n');
                    self.write_accepts(row);
                });
            }

            fn end_stream(&mut self, scored: u64) {
                crate::metrics::multi_metrics().records.add(scored);
                self.flush_telemetry();
            }
        }
    };
}

batch_lane!("multi-engine", impl for MultiEngine);
batch_lane!("multi-serial", impl<B: FilterBackend> for MultiLanes<B>);

/// The serial reference [`MultiBackend`]: N independent single-query
/// backends stepped in lockstep with **no** scan sharing or unit
/// deduplication. This is the baseline the fused engine is measured
/// against, and the differential oracle holding it honest — any
/// [`FilterBackend`] works as the inner lane.
#[derive(Debug, Clone)]
pub struct MultiLanes<B> {
    exprs: Vec<Expr>,
    lanes: Vec<B>,
    accept: Vec<bool>,
}

impl<B: FilterBackend> MultiBackend for MultiLanes<B> {
    fn try_compile_batch(exprs: &[Expr]) -> Result<Self, CompileError> {
        check_batch(exprs, "multi-serial")?;
        let lanes = exprs
            .iter()
            .map(B::try_compile)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiLanes {
            exprs: exprs.to_vec(),
            accept: vec![false; lanes.len()],
            lanes,
        })
    }

    fn name(&self) -> &'static str {
        "multi-serial"
    }

    fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    fn on_byte(&mut self, byte: u8) {
        for (lane, accept) in self.lanes.iter_mut().zip(&mut self.accept) {
            *accept = lane.on_byte(byte);
        }
    }

    fn write_accepts(&self, out: &mut [u64]) {
        for (q, &accept) in self.accept.iter().enumerate() {
            if accept {
                out[q / 64] |= 1u64 << (q % 64);
            }
        }
    }

    fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.accept.fill(false);
    }

    fn flush_telemetry(&mut self) {
        // The serial reference has no pooled stats of its own; its inner
        // single-query lanes may (e.g. `MultiLanes<Engine>`).
        for lane in &mut self.lanes {
            lane.flush_telemetry();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::expr::StructScope;

    fn zoo() -> Vec<Expr> {
        vec![
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::context([
                Expr::substring(b"humidity", 1).unwrap(),
                Expr::int_range(10, 90),
            ]),
            // Shares the temperature key unit with lane 0.
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("50.0", "99.0").unwrap(),
            ]),
            Expr::context_scoped(
                StructScope::Member,
                [
                    Expr::substring(b"tolls_amount", 2).unwrap(),
                    Expr::float_range("2.50", "18.00").unwrap(),
                ],
            ),
        ]
    }

    const RECORDS: &[&[u8]] = &[
        br#"{"e":[{"v":"21.0","u":"far","n":"temperature"}],"bt":1}"#,
        br#"{"e":[{"v":"55","u":"per","n":"humidity"}],"bt":2}"#,
        br#"{"e":[{"v":"77.0","u":"far","n":"temperature"}],"bt":3}"#,
        br#"{"fare_amount":11.50,"tolls_amount":5.33,"total_amount":17.33}"#,
        br#"{"nothing":"here"}"#,
    ];

    fn stream() -> Vec<u8> {
        let mut s = Vec::new();
        for r in RECORDS {
            s.extend_from_slice(r);
            s.push(b'\n');
        }
        s
    }

    #[test]
    fn fused_matches_independent_engines() {
        let exprs = zoo();
        let mut fused = MultiEngine::compile_batch(&exprs);
        let batch = fused.filter_stream_verdicts(&stream(), IngestLimits::UNLIMITED);
        assert_eq!(batch.num_records(), RECORDS.len());
        for (q, expr) in exprs.iter().enumerate() {
            let want =
                Engine::compile(expr).filter_stream_verdicts(&stream(), IngestLimits::UNLIMITED);
            assert_eq!(batch.query_verdicts(q), want, "query {q}: `{expr}`");
        }
    }

    #[test]
    fn multilanes_matches_fused() {
        let exprs = zoo();
        let mut fused = MultiEngine::compile_batch(&exprs);
        let mut serial = MultiLanes::<CompiledFilter>::compile_batch(&exprs);
        let a = fused.filter_stream_verdicts(&stream(), IngestLimits::UNLIMITED);
        let b = serial.filter_stream_verdicts(&stream(), IngestLimits::UNLIMITED);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_units_are_pooled() {
        let fused = MultiEngine::compile_batch(&zoo());
        let stats = fused.share_stats();
        // Lanes 0 and 2 share the temperature sub1 unit.
        assert_eq!(stats.total_units(), 8);
        assert_eq!(stats.pool.total(), 7);
        assert_eq!(stats.shared_units(), 1);
    }

    #[test]
    fn duplicate_queries_collapse_entirely() {
        let expr = Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]);
        let batch = vec![expr.clone(), expr.clone(), expr];
        let fused = MultiEngine::compile_batch(&batch);
        assert_eq!(fused.share_stats().total_units(), 6);
        assert_eq!(fused.share_stats().pool.total(), 2);
    }

    #[test]
    fn byte_oracle_agrees_with_block_driver() {
        let exprs = zoo();
        let mut fused = MultiEngine::compile_batch(&exprs);
        let s = stream();
        let limits = IngestLimits {
            max_record_bytes: Some(58),
            max_records: Some(4),
        };
        let mut via_bytes = BatchVerdicts::new(exprs.len());
        run_verdict_driver(&mut fused, &s, limits, &mut via_bytes);
        let via_blocks = fused.filter_stream_verdicts(&s, limits);
        assert_eq!(via_bytes, via_blocks);
        assert!(via_blocks.skip(4).is_some(), "record budget applies");
    }

    #[test]
    fn empty_batch_is_a_compile_error() {
        assert!(matches!(
            MultiEngine::try_compile_batch(&[]),
            Err(CompileError::Backend { .. })
        ));
        assert!(matches!(
            MultiLanes::<Engine>::try_compile_batch(&[]),
            Err(CompileError::Backend { .. })
        ));
    }

    #[test]
    fn lane_views_are_well_formed() {
        let fused = MultiEngine::compile_batch(&zoo());
        for (q, view) in fused.lane_views().iter().enumerate() {
            assert!(view.check().is_empty(), "lane {q}");
        }
    }

    #[test]
    fn batch_verdicts_bitset_round_trip() {
        let mut v = BatchVerdicts::new(70);
        assert_eq!(v.words_per_record(), 2);
        let mut row = vec![0u64; 2];
        row[1] |= 1 << (69 - 64);
        v.push_scored(&row);
        v.push_skipped(SkipReason::RecordLimit { limit: 1 });
        assert!(v.matched(0, 69) && !v.matched(0, 0));
        assert!(!v.matched(1, 69));
        assert_eq!(
            v.verdict(1, 0),
            Verdict::Skipped(SkipReason::RecordLimit { limit: 1 })
        );
        assert_eq!(v.count_matches(69), 1);
        let mut w = BatchVerdicts::new(70);
        w.extend_from(&v);
        assert_eq!(w, v);
        w.quarantine_from(0, SkipReason::RecordLimit { limit: 0 });
        assert!(!w.matched(0, 69));
    }
}
