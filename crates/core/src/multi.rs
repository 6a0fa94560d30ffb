//! Multi-query fused execution: scan the stream once, answer every query.
//!
//! The paper's deployment model is many resident filter queries screening
//! one raw JSON stream (§IV-B); Mitra et al. showed for XML that the win
//! at scale comes from sharing the document scan across all concurrent
//! profiles. [`MultiEngine`] is that sharing step for the software stack:
//! a batch of expressions compiles into **one fused execution plan** that
//! runs the expensive per-byte work — framing, byte classification,
//! string masking, the SWAR block scan — exactly once per stream, and
//! feeds a **deduplicated pool of matcher units** whose fire events drive
//! per-query flat-program lanes.
//!
//! * **Unit pool** — identical primitive units appearing in several
//!   queries (same key automaton, same number-range DFA, same substring
//!   comparator bank) are instantiated once. Deduplication is a
//!   common-subexpression census keyed on the deterministic builder
//!   output the static verifier already exploits: two units share a pool
//!   slot iff their dense tables / bitmaps / packed blocks are
//!   bit-identical, so sharing can never change a decision.
//! * **Lanes** — every query keeps its own post-order flat program,
//!   latch bitset and context flag levels. A pool unit carries a
//!   subscriber list; when it fires, it ORs the fire bit into each
//!   subscribing lane's latches.
//! * **Verdict bitsets** — per record, the drivers emit one `u64` word
//!   per 64 queries ([`BatchVerdicts`]), the batched form of the paper's
//!   one-match-bit-per-record DMA write-back.
//!
//! [`MultiBackend`] is the batch counterpart of
//! [`FilterBackend`](crate::backend::FilterBackend): the same
//! `LimitedFramer` framing and quarantine semantics, the same
//! byte-serial oracle/block-driver pair, generalized to bitset verdicts.
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

use crate::backend::{CompileError, FilterBackend};
use crate::blockhit::{self, fired_lanes, lane_step, BlockAutomatonView, BlockUnits};
use crate::engine::{
    count_nodes, run_program_multi, run_program_word, scan_path, Builder, ByteEvent, DfaUnitView,
    Op, ProgramView, ScanPath,
};
use crate::evaluator::StreamTracker;
use crate::expr::Expr;
use crate::primitive::SubstringMatcher;
use rfjson_jsonstream::frame::{
    is_blank_line, trim_cr, IngestLimits, LimitedAction, LimitedFramer, SkipReason, Verdict,
};
use rfjson_jsonstream::swar;
use rfjson_jsonstream::telemetry::FramingTally;
use rfjson_redfa::range::is_number_byte;
use rfjson_redfa::DENSE_ACCEPT_BIT;
use std::collections::HashMap;

/// State-index part of a dense state word (mirror of the engine's).
const STATE_MASK: u16 = !DENSE_ACCEPT_BIT;

/// Per-kind primitive unit counts of a plan (or of one query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounts {
    /// Exact-string / window DFA units.
    pub string_dfas: usize,
    /// Number-range DFA units.
    pub number_dfas: usize,
    /// Single-byte substring units (B = 1).
    pub sub1: usize,
    /// Short-block substring units (2 ≤ B ≤ 8).
    pub subp: usize,
    /// Wide substring units (B > 8).
    pub wide: usize,
}

impl UnitCounts {
    /// Total units across all kinds.
    pub fn total(&self) -> usize {
        self.string_dfas + self.number_dfas + self.sub1 + self.subp + self.wide
    }
}

/// Unit-sharing census of a fused plan: what each query would have
/// instantiated alone versus what the deduplicated pool actually holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Units each query's expression demands, in batch order.
    pub per_query: Vec<UnitCounts>,
    /// Units the deduplicated pool instantiates.
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

/// One subscription: pool unit fires → OR a bit into `lane`'s latches.
#[derive(Debug, Clone, Copy)]
struct Sub {
    lane: u32,
    node: u32,
}

/// Dedup census key — the deterministic builder output of one unit. Two
/// units sharing a key are bit-identical executors, so pooling them is
/// decision-preserving by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum UnitKey {
    StrDfa { table: Vec<u16>, start: u16 },
    NumDfa { table: Vec<u16>, start: u16 },
    Sub1 { bitmap: [u64; 4], target: u32 },
    SubN { blocks: Vec<Vec<u8>>, target: u32 },
}

/// One query's flat program plus its private latch state.
#[derive(Debug, Clone)]
struct Lane {
    ops: Vec<Op>,
    masks: Vec<u64>,
    words: usize,
    root: u32,
    has_ctx: bool,
    num_ctxs: u32,
    /// `(pool index, latch node)` per unit kind, in compile order —
    /// retained for [`MultiEngine::lane_views`].
    sdfa_units: Vec<(u32, u32)>,
    num_units: Vec<(u32, u32)>,
    sub1_units: Vec<(u32, u32)>,
    subn_units: Vec<(u32, u32)>,
    // ---- mutable per-stream state ----
    latch: Vec<u64>,
    prev: Vec<u64>,
    flag_level: Vec<u32>,
}

impl Lane {
    #[inline]
    fn run_program(&mut self, ev: ByteEvent) {
        if self.words == 1 {
            self.latch[0] = run_program_word(
                &self.ops,
                &self.masks,
                &mut self.flag_level,
                self.latch[0],
                self.prev[0],
                ev,
            );
        } else {
            run_program_multi(
                &self.ops,
                &self.masks,
                self.words,
                &mut self.latch,
                &self.prev,
                &mut self.flag_level,
                ev,
            );
        }
    }

    #[inline]
    fn accepts(&self) -> bool {
        self.latch[self.root as usize / 64] & (1u64 << (self.root % 64)) != 0
    }
}

#[inline]
fn fire(lanes: &mut [Lane], subs: &[Sub]) {
    for sub in subs {
        let latch = &mut lanes[sub.lane as usize].latch;
        latch[sub.node as usize / 64] |= 1u64 << (sub.node % 64);
    }
}

/// The fused multi-query execution engine: one shared scan, a
/// deduplicated unit pool, one flat-program lane per query. See the
/// [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct MultiEngine {
    exprs: Vec<Expr>,
    lanes: Vec<Lane>,
    /// Any lane has a context op — gates the shared structural scan.
    any_ctx: bool,
    share: ShareStats,

    // ---- deduplicated unit pool (immutable after compile) ----
    /// Concatenated dense tables of all pooled DFA units.
    tables: Vec<u16>,
    sdfa_off: Vec<u32>,
    sdfa_start: Vec<u16>,
    sdfa_subs: Vec<Vec<Sub>>,
    num_off: Vec<u32>,
    num_start: Vec<u16>,
    num_subs: Vec<Vec<Sub>>,
    sub1_bitmap: Vec<u64>,
    sub1_target: Vec<u32>,
    sub1_subs: Vec<Vec<Sub>>,
    /// The pooled B ≥ 2 substring units: one block-hit automaton with
    /// its per-stream row and run counters.
    subn: BlockUnits,
    subn_subs: Vec<Vec<Sub>>,

    // ---- block-scan fast path (immutable after compile) ----
    path: ScanPath,
    /// Banked 256-entry packed hit tables for the sub1 pool: bank `k`
    /// packs units `8k..8k+8`, entry `b` holds `0xFF` in lane `i` iff
    /// byte `b` is in unit `8k+i`'s membership set.
    sub1_hits: Vec<u64>,
    /// Per-bank packed run targets (unused lanes hold 127).
    sub1_targets_packed: Vec<u64>,
    /// 256-bit union of every sub1 unit's membership set: a byte outside
    /// it resets **all** run counters at once, skipping the bank loop —
    /// a cross-query gate no serial engine can have.
    sub1_any: [u64; 4],

    // ---- mutable per-stream state ----
    /// Telemetry accumulated in plain locals on the hot path and flushed
    /// to the global registry once per stream (`flush_telemetry`).
    stats: MultiStats,
    sdfa_state: Vec<u16>,
    num_state: Vec<u16>,
    /// All number units share one token trajectory, so one flag covers
    /// the whole pool.
    num_in_token: bool,
    sub1_counter: Vec<u32>,
    /// Scratch: per-lane fire words accumulated inside the SWAR loop
    /// (lanes are single-word there by eligibility).
    lane_fires: Vec<u64>,
    tracker: StreamTracker,
}

/// Per-stream telemetry the fused engine accumulates in plain `u64`
/// fields — no atomics on the byte path. Drained into the global
/// `multi.*` counters by `flush_telemetry`, which the batch stream
/// drivers call once per stream.
#[derive(Debug, Clone, Copy, Default)]
struct MultiStats {
    /// Bytes scanned by the fused SWAR word loop (aligned portion).
    bytes_block: u64,
    /// Bytes through the fused serial path (fallback batches, tails,
    /// separators).
    bytes_byte_serial: u64,
    /// Bytes where the pooled sub1 bank loop was gate-skipped.
    sub1_gate_skips: u64,
    /// Bytes whose pooled block-hit mask was zero (no B ≥ 2 unit saw one
    /// of its blocks end there).
    subp_gate_skips: u64,
}

impl MultiStats {
    fn is_empty(&self) -> bool {
        self.bytes_block == 0
            && self.bytes_byte_serial == 0
            && self.sub1_gate_skips == 0
            && self.subp_gate_skips == 0
    }
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
        if exprs.is_empty() {
            return Err(CompileError::Backend {
                backend: "multi-engine",
                reason: "a batch needs at least one query".into(),
            });
        }
        for expr in exprs {
            expr.validate()?;
        }
        let mut me = MultiEngine {
            exprs: exprs.to_vec(),
            lanes: Vec::new(),
            any_ctx: false,
            share: ShareStats::default(),
            tables: Vec::new(),
            sdfa_off: Vec::new(),
            sdfa_start: Vec::new(),
            sdfa_subs: Vec::new(),
            num_off: Vec::new(),
            num_start: Vec::new(),
            num_subs: Vec::new(),
            sub1_bitmap: Vec::new(),
            sub1_target: Vec::new(),
            sub1_subs: Vec::new(),
            subn: BlockUnits::new(Vec::new()),
            subn_subs: Vec::new(),
            path: ScanPath::Block,
            sub1_hits: Vec::new(),
            sub1_targets_packed: Vec::new(),
            sub1_any: [0; 4],
            stats: MultiStats::default(),
            sdfa_state: Vec::new(),
            num_state: Vec::new(),
            num_in_token: false,
            sub1_counter: Vec::new(),
            lane_fires: Vec::new(),
            tracker: StreamTracker::new(),
        };
        let mut keys: HashMap<UnitKey, u32> = HashMap::new();
        let mut subn = Vec::new();
        for (q, expr) in exprs.iter().enumerate() {
            me.add_lane(q as u32, expr, &mut keys, &mut subn);
        }
        me.finish_compile(subn);
        #[cfg(debug_assertions)]
        for (q, view) in me.lane_views().iter().enumerate() {
            let faults = view.check();
            debug_assert!(
                faults.is_empty(),
                "fused lane {q} is ill-formed for `{}`: {faults:?}",
                me.exprs[q]
            );
        }
        Ok(me)
    }

    /// Runs the deterministic builder for one query and merges its units
    /// into the pool, deduplicating by [`UnitKey`]; `subn` collects the
    /// pooled B ≥ 2 substring units.
    fn add_lane(
        &mut self,
        q: u32,
        expr: &Expr,
        keys: &mut HashMap<UnitKey, u32>,
        subn: &mut Vec<SubstringMatcher>,
    ) {
        let num_nodes = count_nodes(expr);
        let words = num_nodes.div_ceil(64);
        let mut b = Builder {
            words,
            ..Builder::default()
        };
        let root = b.visit(expr);
        debug_assert_eq!(b.next_node as usize, num_nodes);

        // Dense tables of both DFA kinds interleave in `b.tables` in
        // visit order; each unit's slice runs to the next-larger offset.
        let mut offs: Vec<u32> = b.sdfa_off.iter().chain(&b.num_off).copied().collect();
        offs.sort_unstable();
        let slice_len = |off: u32| -> usize {
            let next = offs.partition_point(|&o| o <= off);
            offs.get(next).map_or(b.tables.len(), |&o| o as usize) - off as usize
        };

        let mut lane = Lane {
            words,
            root,
            has_ctx: b.next_ctx > 0,
            num_ctxs: b.next_ctx,
            ops: b.ops,
            masks: b.masks,
            sdfa_units: Vec::new(),
            num_units: Vec::new(),
            sub1_units: Vec::new(),
            subn_units: Vec::new(),
            latch: vec![0; words],
            prev: vec![0; words],
            flag_level: vec![0; b.next_ctx as usize],
        };
        self.any_ctx |= lane.has_ctx;
        let mut counts = UnitCounts::default();

        for (i, &node) in b.sdfa_node.iter().enumerate() {
            let off = b.sdfa_off[i] as usize;
            let table = &b.tables[off..off + slice_len(b.sdfa_off[i])];
            let key = UnitKey::StrDfa {
                table: table.to_vec(),
                start: b.sdfa_start[i],
            };
            let idx = match keys.get(&key) {
                Some(&idx) => idx,
                None => {
                    let idx = self.sdfa_off.len() as u32;
                    self.sdfa_off.push(self.tables.len() as u32);
                    self.tables.extend_from_slice(table);
                    self.sdfa_start.push(b.sdfa_start[i]);
                    self.sdfa_subs.push(Vec::new());
                    keys.insert(key, idx);
                    idx
                }
            };
            self.sdfa_subs[idx as usize].push(Sub { lane: q, node });
            lane.sdfa_units.push((idx, node));
            counts.string_dfas += 1;
        }
        for (i, &node) in b.num_node.iter().enumerate() {
            let off = b.num_off[i] as usize;
            let table = &b.tables[off..off + slice_len(b.num_off[i])];
            let key = UnitKey::NumDfa {
                table: table.to_vec(),
                start: b.num_start[i],
            };
            let idx = match keys.get(&key) {
                Some(&idx) => idx,
                None => {
                    let idx = self.num_off.len() as u32;
                    self.num_off.push(self.tables.len() as u32);
                    self.tables.extend_from_slice(table);
                    self.num_start.push(b.num_start[i]);
                    self.num_subs.push(Vec::new());
                    keys.insert(key, idx);
                    idx
                }
            };
            self.num_subs[idx as usize].push(Sub { lane: q, node });
            lane.num_units.push((idx, node));
            counts.number_dfas += 1;
        }
        for (i, &node) in b.sub1_node.iter().enumerate() {
            let bitmap: [u64; 4] = b.sub1_bitmap[i * 4..i * 4 + 4]
                .try_into()
                .expect("4 words per sub1 bitmap");
            let key = UnitKey::Sub1 {
                bitmap,
                target: b.sub1_target[i],
            };
            let idx = match keys.get(&key) {
                Some(&idx) => idx,
                None => {
                    let idx = self.sub1_target.len() as u32;
                    self.sub1_bitmap.extend_from_slice(&bitmap);
                    self.sub1_target.push(b.sub1_target[i]);
                    self.sub1_subs.push(Vec::new());
                    keys.insert(key, idx);
                    idx
                }
            };
            self.sub1_subs[idx as usize].push(Sub { lane: q, node });
            lane.sub1_units.push((idx, node));
            counts.sub1 += 1;
        }
        for unit in b.subn {
            let key = UnitKey::SubN {
                blocks: unit.matcher.blocks().to_vec(),
                target: unit.matcher.target(),
            };
            if unit.matcher.block_length() <= 8 {
                counts.subp += 1;
            } else {
                counts.wide += 1;
            }
            let idx = *keys.entry(key).or_insert_with(|| {
                subn.push(unit.matcher);
                self.subn_subs.push(Vec::new());
                subn.len() as u32 - 1
            });
            self.subn_subs[idx as usize].push(Sub {
                lane: q,
                node: unit.node,
            });
            lane.subn_units.push((idx, unit.node));
        }

        self.share.per_query.push(counts);
        self.lanes.push(lane);
    }

    /// Finalizes pool state and derives the block-scan tables.
    fn finish_compile(&mut self, subn: Vec<SubstringMatcher>) {
        self.sdfa_state = self.sdfa_start.clone();
        self.num_state = self.num_start.clone();
        self.sub1_counter = vec![0; self.sub1_target.len()];
        self.subn = BlockUnits::new(subn);
        self.lane_fires = vec![0; self.lanes.len()];
        let units = self.subn.units();
        let subp = units.iter().filter(|u| u.block_length() <= 8).count();
        self.share.pool = UnitCounts {
            string_dfas: self.sdfa_off.len(),
            number_dfas: self.num_off.len(),
            sub1: self.sub1_target.len(),
            subp,
            wide: units.len() - subp,
        };

        // Block-scan eligibility mirrors the single-query engine, with
        // the run counters generalized to banks of 8 packed lanes: up to
        // 64 pooled substring units of either kind keep the
        // word-at-a-time path.
        let max_nodes = self.lanes.iter().map(|l| l.root as usize + 1).max();
        self.path = scan_path(
            max_nodes.unwrap_or(0),
            &self.sub1_target,
            &self.subn,
            blockhit::MAX_BANKS * blockhit::LANES,
        );
        if self.path != ScanPath::Block {
            return;
        }
        let banks = self.sub1_target.len().div_ceil(8);
        self.sub1_hits = vec![0u64; banks * 256];
        for (i, bitmap) in self.sub1_bitmap.chunks_exact(4).enumerate() {
            let (bank, slot) = (i / 8, i % 8);
            for byte in 0..256usize {
                if bitmap[byte >> 6] & (1u64 << (byte & 63)) != 0 {
                    self.sub1_hits[bank * 256 + byte] |= 0xffu64 << (8 * slot);
                }
            }
            for (w, &b) in self.sub1_any.iter_mut().zip(bitmap) {
                *w |= b;
            }
        }
        self.sub1_targets_packed = blockhit::pack_targets(&self.sub1_target);
    }

    /// The batch's source expressions, in lane order.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Number of queries in the batch.
    pub fn num_queries(&self) -> usize {
        self.lanes.len()
    }

    /// The unit-sharing census: per-query demand vs. pooled instances.
    pub fn share_stats(&self) -> &ShareStats {
        &self.share
    }

    /// Which path [`MultiEngine::on_block`] takes: the fused SWAR word
    /// loop, or the byte-serial fallback and the rule that forces it (a
    /// lane of more than 64 nodes, more than 64 pooled substring units of
    /// one kind, a run target above 126, an oversized block-hit table).
    pub fn scan_path(&self) -> ScanPath {
        self.path
    }

    /// `scan_path() == ScanPath::Block`.
    pub fn block_scan_ready(&self) -> bool {
        self.path == ScanPath::Block
    }

    /// The pooled block-hit automaton of the B ≥ 2 substring units, for
    /// static verification: lane *i* is pool unit *i*. `None` without
    /// such units or past the table cap.
    pub fn block_automaton_view(&self) -> Option<&BlockAutomatonView> {
        self.subn.automaton().map(blockhit::BlockAutomaton::view)
    }

    /// Per-lane program snapshots for static verification. Each view's
    /// DFA unit offsets point into the **shared** pool tables, so the
    /// verifier's stored-table-vs-fresh-derivation check proves that
    /// deduplication never merged two different automata.
    pub fn lane_views(&self) -> Vec<ProgramView> {
        let pool = self.subn.units();
        let subn_nodes = |lane: &Lane, keep: fn(usize) -> bool| -> Vec<u32> {
            let units = lane.subn_units.iter();
            units
                .filter(|&&(idx, _)| keep(pool[idx as usize].block_length()))
                .map(|&(_, n)| n)
                .collect()
        };
        self.lanes
            .iter()
            .map(|lane| ProgramView {
                num_nodes: lane.root + 1,
                words: lane.words,
                root: lane.root,
                ops: lane.ops.iter().map(Op::view).collect(),
                masks: lane.masks.clone(),
                num_ctxs: lane.num_ctxs,
                tables: self.tables.clone(),
                string_dfas: lane
                    .sdfa_units
                    .iter()
                    .map(|&(idx, node)| DfaUnitView {
                        table_off: self.sdfa_off[idx as usize],
                        start: self.sdfa_start[idx as usize],
                        node,
                    })
                    .collect(),
                number_dfas: lane
                    .num_units
                    .iter()
                    .map(|&(idx, node)| DfaUnitView {
                        table_off: self.num_off[idx as usize],
                        start: self.num_start[idx as usize],
                        node,
                    })
                    .collect(),
                sub1_nodes: lane.sub1_units.iter().map(|&(_, n)| n).collect(),
                subp_nodes: subn_nodes(lane, |b| b <= 8),
                wide_nodes: subn_nodes(lane, |b| b > 8),
            })
            .collect()
    }

    /// Advances every lane one cycle over one shared scan of the byte.
    pub fn on_byte(&mut self, byte: u8) {
        self.stats.bytes_byte_serial += 1;
        let mut ev = ByteEvent {
            depth: 0,
            is_close: false,
            is_comma: false,
        };
        if self.any_ctx {
            let info = self.tracker.on_byte(byte);
            ev = ByteEvent {
                depth: info.depth,
                is_close: info.is_close,
                is_comma: info.is_comma,
            };
            for lane in &mut self.lanes {
                if lane.has_ctx {
                    lane.prev.copy_from_slice(&lane.latch);
                }
            }
        }
        self.step_pool(byte);
        for lane in &mut self.lanes {
            lane.run_program(ev);
        }
    }

    /// Pool sweep: steps every unit once and ORs its fire bit into each
    /// subscriber lane's latches.
    #[inline]
    fn step_pool(&mut self, byte: u8) {
        for i in 0..self.sdfa_state.len() {
            let s = self.sdfa_state[i];
            let s = self.tables
                [self.sdfa_off[i] as usize + (s & STATE_MASK) as usize * 256 + byte as usize];
            self.sdfa_state[i] = s;
            if s & DENSE_ACCEPT_BIT != 0 {
                fire(&mut self.lanes, &self.sdfa_subs[i]);
            }
        }
        if is_number_byte(byte) {
            for i in 0..self.num_state.len() {
                let s = self.num_state[i];
                self.num_state[i] = self.tables
                    [self.num_off[i] as usize + (s & STATE_MASK) as usize * 256 + byte as usize];
            }
            self.num_in_token = !self.num_state.is_empty();
        } else if self.num_in_token {
            for i in 0..self.num_state.len() {
                if self.num_state[i] & DENSE_ACCEPT_BIT != 0 {
                    fire(&mut self.lanes, &self.num_subs[i]);
                }
                self.num_state[i] = self.num_start[i];
            }
            self.num_in_token = false;
        }
        for i in 0..self.sub1_counter.len() {
            let hit = self.sub1_bitmap[i * 4 + (byte >> 6) as usize] & (1u64 << (byte & 63)) != 0;
            let c = if hit {
                self.sub1_counter[i].saturating_add(1)
            } else {
                0
            };
            self.sub1_counter[i] = c;
            if c >= self.sub1_target[i] {
                fire(&mut self.lanes, &self.sub1_subs[i]);
            }
        }
        let (lanes, subs) = (&mut self.lanes, &self.subn_subs);
        self.subn.on_byte(byte, |unit| fire(lanes, &subs[unit]));
    }

    /// Advances a whole slice of record content through every lane at
    /// once — exactly what a byte loop over [`MultiEngine::on_byte`]
    /// would do, with the SWAR word loop when the batch is eligible.
    pub fn on_block(&mut self, block: &[u8]) {
        if self.path == ScanPath::Block {
            // The word loop consumes the aligned portion; the sub-word
            // tail goes through `on_byte`, which counts itself.
            self.stats.bytes_block += (block.len() & !(swar::WORD_BYTES - 1)) as u64;
            self.on_block_swar(block);
        } else {
            for &b in block {
                self.on_byte(b);
            }
        }
    }

    /// The SWAR word loop: one classification and string-mask resolution
    /// per 8-byte word shared by every lane, banked packed run counters
    /// for both substring pools (B = 1 from byte hit tables, B ≥ 2 from
    /// the block-hit automaton), token-gated number-DFA stepping, and
    /// per-lane programs run only on bytes where that lane observes a
    /// fire or (for context lanes) an unmasked close/comma.
    fn on_block_swar(&mut self, block: &[u8]) {
        let (mut in_string, mut pending_escape, mut depth) = self.tracker.state();
        let nsub1 = self.sub1_target.len();
        let banks = nsub1.div_ceil(8);
        // Run counters of both pools, one saturating byte per packed lane
        // (targets ≤ 126 keep every `counter ≥ target` comparison exact).
        let mut c1 = blockhit::pack_counters(&self.sub1_counter);
        let mut cn = blockhit::pack_counters(&self.subn.counters);
        let mut row = self.subn.row;
        let subn = self.subn.automaton();
        let mut in_token = self.num_in_token;
        let any_ctx = self.any_ctx;
        let sub1_any = self.sub1_any;
        // Gate tallies (one local add per byte, folded into `stats` at
        // sync-out): how often a byte is indifferent to a whole pool.
        let mut sub1_skips = 0u64;
        let mut subp_skips = 0u64;

        let mut chunks = block.chunks_exact(swar::WORD_BYTES);
        for chunk in chunks.by_ref() {
            let word = swar::load_word(chunk.try_into().expect("8-byte chunk"));
            let (wm, masked) = if any_ctx {
                let wm = swar::classify_word(word);
                let (masked, next) = swar::string_mask_word(
                    wm.quotes,
                    wm.backslashes,
                    swar::StringState {
                        in_string,
                        pending_escape,
                    },
                );
                in_string = next.in_string;
                pending_escape = next.pending_escape;
                (wm, masked)
            } else {
                (swar::WordMasks::default(), 0)
            };
            let structural = (wm.opens | wm.closes | wm.commas) & !masked;

            for (j, &byte) in chunk.iter().enumerate() {
                let mut fired = false;
                let gate_word = (byte >> 6) as usize;
                let gate_bit = 1u64 << (byte & 63);
                // Any-unit gate: a byte in no sub1 membership set resets
                // every packed counter at once (no fire is possible since
                // all run targets are ≥ 1), skipping the bank loop.
                if sub1_any[gate_word] & gate_bit != 0 {
                    for (bank, c1b) in c1.iter_mut().enumerate().take(banks) {
                        let h = self.sub1_hits[bank * 256 + byte as usize];
                        let (c, f) = lane_step(*c1b, h, self.sub1_targets_packed[bank]);
                        *c1b = c;
                        for slot in fired_lanes(f) {
                            for sub in &self.sub1_subs[bank * 8 + slot] {
                                self.lane_fires[sub.lane as usize] |= 1u64 << sub.node;
                            }
                            fired = true;
                        }
                    }
                } else {
                    sub1_skips += u64::from(nsub1 != 0);
                    for bank in c1.iter_mut().take(banks) {
                        *bank = 0;
                    }
                }
                if let Some(a) = subn {
                    // One table walk for the whole B ≥ 2 pool; a zero hit
                    // mask resets every lane without firing any.
                    let mut any = 0u64;
                    let banked = a.step(&mut row, byte).iter().zip(&a.view().targets_packed);
                    for (bank, (&h, &targets)) in banked.enumerate() {
                        any |= h;
                        let (c, f) = lane_step(cn[bank], h, targets);
                        cn[bank] = c;
                        for slot in fired_lanes(f) {
                            for sub in &self.subn_subs[bank * 8 + slot] {
                                self.lane_fires[sub.lane as usize] |= 1u64 << sub.node;
                            }
                            fired = true;
                        }
                    }
                    subp_skips += u64::from(any == 0);
                }
                if is_number_byte(byte) {
                    for i in 0..self.num_state.len() {
                        let s = self.num_state[i];
                        self.num_state[i] = self.tables[self.num_off[i] as usize
                            + (s & STATE_MASK) as usize * 256
                            + byte as usize];
                    }
                    in_token = !self.num_state.is_empty();
                } else if in_token {
                    for i in 0..self.num_state.len() {
                        if self.num_state[i] & DENSE_ACCEPT_BIT != 0 {
                            for sub in &self.num_subs[i] {
                                self.lane_fires[sub.lane as usize] |= 1u64 << sub.node;
                            }
                            fired = true;
                        }
                        self.num_state[i] = self.num_start[i];
                    }
                    in_token = false;
                }
                for i in 0..self.sdfa_state.len() {
                    let s = self.sdfa_state[i];
                    let s = self.tables[self.sdfa_off[i] as usize
                        + (s & STATE_MASK) as usize * 256
                        + byte as usize];
                    self.sdfa_state[i] = s;
                    if s & DENSE_ACCEPT_BIT != 0 {
                        for sub in &self.sdfa_subs[i] {
                            self.lane_fires[sub.lane as usize] |= 1u64 << sub.node;
                        }
                        fired = true;
                    }
                }

                let bit = 1u8 << j;
                let mut is_close = false;
                let mut is_comma = false;
                if structural & bit != 0 {
                    if wm.opens & bit != 0 {
                        depth += 1;
                    } else if wm.closes & bit != 0 {
                        is_close = true;
                    } else {
                        is_comma = true;
                    }
                }
                // Per-lane event gate: the program is a provable no-op
                // unless this lane saw a fire, or a structural event and
                // the lane has context ops to observe it.
                if fired || is_close || is_comma {
                    let ev = ByteEvent {
                        depth,
                        is_close,
                        is_comma,
                    };
                    for (i, lane) in self.lanes.iter_mut().enumerate() {
                        let f = self.lane_fires[i];
                        if f != 0 || ((is_close || is_comma) && lane.has_ctx) {
                            let p = lane.latch[0];
                            lane.latch[0] = run_program_word(
                                &lane.ops,
                                &lane.masks,
                                &mut lane.flag_level,
                                p | f,
                                p,
                                ev,
                            );
                        }
                        self.lane_fires[i] = 0;
                    }
                }
                if is_close {
                    depth = depth.saturating_sub(1);
                }
            }
        }

        // Sync packed state back out, then run the sub-word tail through
        // the byte-serial path from the synced state.
        blockhit::unpack_counters(&c1, &mut self.sub1_counter);
        blockhit::unpack_counters(&cn, &mut self.subn.counters);
        self.subn.row = row;
        self.num_in_token = in_token;
        self.stats.sub1_gate_skips += sub1_skips;
        self.stats.subp_gate_skips += subp_skips;
        self.tracker.restore(in_string, pending_escape, depth);
        for &byte in chunks.remainder() {
            self.on_byte(byte);
        }
    }

    /// ORs every currently-accepting lane's bit into `out` (one bit per
    /// query, `u64` word per 64 queries). Callers zero `out` first.
    pub fn write_accepts(&self, out: &mut [u64]) {
        for (q, lane) in self.lanes.iter().enumerate() {
            if lane.accepts() {
                out[q / 64] |= 1u64 << (q % 64);
            }
        }
    }

    /// Record-boundary reset of every lane and the shared pool.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.latch.fill(0);
            lane.flag_level.fill(0);
        }
        self.sdfa_state.copy_from_slice(&self.sdfa_start);
        self.num_state.copy_from_slice(&self.num_start);
        self.num_in_token = false;
        self.sub1_counter.fill(0);
        self.subn.reset();
        self.lane_fires.fill(0);
        self.tracker.reset();
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

    #[inline]
    fn on_block(&mut self, block: &[u8]) {
        MultiEngine::on_block(self, block);
    }

    fn write_accepts(&self, out: &mut [u64]) {
        MultiEngine::write_accepts(self, out);
    }

    fn reset(&mut self) {
        MultiEngine::reset(self);
    }

    fn flush_telemetry(&mut self) {
        let s = std::mem::take(&mut self.stats);
        if s.is_empty() {
            return;
        }
        let m = crate::metrics::multi_metrics();
        m.bytes_block.add(s.bytes_block);
        m.bytes_byte_serial.add(s.bytes_byte_serial);
        m.gate_skips_sub1.add(s.sub1_gate_skips);
        m.gate_skips_subp.add(s.subp_gate_skips);
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

    /// Appends a quarantined record (no query bits).
    pub fn push_skipped(&mut self, reason: SkipReason) {
        self.bits.extend(std::iter::repeat_n(0, self.words));
        self.skips.push(Some(reason));
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

    /// Appends all of `other`'s records (shard reassembly).
    ///
    /// # Panics
    ///
    /// Panics if the query counts differ.
    pub fn append(&mut self, other: &BatchVerdicts) {
        assert_eq!(self.queries, other.queries, "batch width");
        self.bits.extend_from_slice(&other.bits);
        self.skips.extend_from_slice(&other.skips);
    }

    /// Overwrites every record from `start` on as skipped with `reason` —
    /// the global record-budget quarantine, which wins over any per-record
    /// verdict exactly as in the serial precedence rules.
    pub fn quarantine_from(&mut self, start: usize, reason: SkipReason) {
        for r in start..self.num_records() {
            self.bits[r * self.words..(r + 1) * self.words].fill(0);
            self.skips[r] = Some(reason);
        }
    }
}

/// A batch raw-filter execution path: the multi-query counterpart of
/// [`FilterBackend`]. One shared per-byte advance updates every query;
/// [`MultiBackend::write_accepts`] reads the latched per-query accept
/// bits. The provided drivers share the `LimitedFramer` framing and
/// quarantine semantics with the single-query stream drivers, emitting
/// [`BatchVerdicts`] instead of a verdict vector.
pub trait MultiBackend {
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

    /// Advances a whole slice of record content at once; must be
    /// decision-identical to the byte loop.
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
    /// per record (see [`run_batch_driver_blocks`] for the framing
    /// contract, shared with the single-query drivers).
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
        run_batch_driver_blocks(self, stream, limits, out);
    }
}

/// Byte-serial reference form of the batch stream driver — every byte
/// goes through [`LimitedFramer`] and [`MultiBackend::on_byte`]
/// individually. Kept as the framing oracle for the differential tests,
/// exactly like the single-query [`run_verdict_driver`].
///
/// [`run_verdict_driver`]: crate::backend::run_verdict_driver
pub fn run_batch_driver<M: MultiBackend + ?Sized>(
    backend: &mut M,
    stream: &[u8],
    limits: IngestLimits,
    out: &mut BatchVerdicts,
) {
    backend.reset();
    let words = out.words_per_record();
    let mut acc = vec![0u64; words];
    let mut framer = LimitedFramer::new(limits);
    let mut tally = FramingTally::new();
    let mut scored = 0u64;
    let mut prev_cr = false;
    for &b in stream {
        match framer.on_byte(b) {
            LimitedAction::Feed { quarantined } => {
                prev_cr = b == b'\r';
                if !quarantined {
                    backend.on_byte(b);
                }
            }
            LimitedAction::EndRecord(end) => {
                tally.records += 1;
                tally.cr_records += u64::from(prev_cr);
                prev_cr = false;
                match end.skip {
                    Some(reason) => {
                        tally.quarantine(&reason);
                        out.push_skipped(reason);
                    }
                    None => {
                        // Feed the separator the hardware would see; the
                        // latched accepts after it are the decisions.
                        backend.on_byte(b);
                        acc.fill(0);
                        backend.write_accepts(&mut acc);
                        out.push_scored(&acc);
                        scored += 1;
                    }
                }
                backend.reset();
            }
            LimitedAction::EndBlank => {
                tally.blank_lines += 1;
                prev_cr = false;
                backend.reset();
            }
        }
    }
    if let Some(end) = framer.finish() {
        tally.records += 1;
        tally.cr_records += u64::from(prev_cr);
        match end.skip {
            Some(reason) => {
                tally.quarantine(&reason);
                out.push_skipped(reason);
            }
            None => {
                // EOF close: the last content byte's latched accepts OR
                // the synthetic separator's, per the framing rules.
                acc.fill(0);
                backend.write_accepts(&mut acc);
                backend.on_byte(b'\n');
                backend.write_accepts(&mut acc);
                out.push_scored(&acc);
                scored += 1;
            }
        }
        backend.reset();
    }
    tally.flush();
    crate::metrics::multi_metrics().records.add(scored);
    backend.flush_telemetry();
}

/// Record-at-a-time batch driver behind the provided stream methods:
/// hops separator to separator with the SWAR newline search and hands
/// each record to [`MultiBackend::on_block`] in one call. Framing, CR,
/// blank-line, trailing-record and quarantine-precedence rules are those
/// of the single-query [`run_verdict_driver_blocks`], and the
/// decision-equivalence argument carries over record for record.
///
/// [`run_verdict_driver_blocks`]: crate::backend::run_verdict_driver_blocks
pub fn run_batch_driver_blocks<M: MultiBackend + ?Sized>(
    backend: &mut M,
    stream: &[u8],
    limits: IngestLimits,
    out: &mut BatchVerdicts,
) {
    backend.reset();
    let words = out.words_per_record();
    let mut acc = vec![0u64; words];
    let mut tally = FramingTally::new();
    let mut scored = 0u64;
    let mut records_seen = 0usize;
    let mut rest = stream;
    let mut trailing = false;
    while !trailing {
        let line = match swar::find_byte(rest, b'\n') {
            Some(nl) => {
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                line
            }
            None => {
                trailing = true;
                rest
            }
        };
        if is_blank_line(line) {
            // Only separator-terminated blanks count — same rule as the
            // single-query blocks driver.
            tally.blank_lines += u64::from(!trailing);
            continue; // no verdict, lanes already at reset state
        }
        let content = trim_cr(line).len();
        tally.records += 1;
        tally.cr_records += u64::from(content < line.len());
        let index = records_seen;
        records_seen += 1;
        let skip = match limits.max_records {
            Some(m) if index >= m => Some(SkipReason::RecordLimit { limit: m }),
            _ => match limits.max_record_bytes {
                Some(m) if content > m => Some(SkipReason::TooLong {
                    limit: m,
                    actual: content,
                }),
                _ => None,
            },
        };
        match skip {
            Some(reason) => {
                tally.quarantine(&reason);
                out.push_skipped(reason);
            }
            None => {
                acc.fill(0);
                backend.on_block(line);
                if trailing {
                    // EOF close ORs the last content byte's accepts in.
                    backend.write_accepts(&mut acc);
                }
                backend.on_byte(b'\n');
                backend.write_accepts(&mut acc);
                out.push_scored(&acc);
                scored += 1;
            }
        }
        backend.reset();
    }
    tally.flush();
    crate::metrics::multi_metrics().records.add(scored);
    backend.flush_telemetry();
}

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
        if exprs.is_empty() {
            return Err(CompileError::Backend {
                backend: "multi-serial",
                reason: "a batch needs at least one query".into(),
            });
        }
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

    fn on_block(&mut self, block: &[u8]) {
        if block.is_empty() {
            return; // a loop that never ran leaves the accepts alone
        }
        for (lane, accept) in self.lanes.iter_mut().zip(&mut self.accept) {
            *accept = lane.on_block(block);
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
    use crate::evaluator::CompiledFilter;
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
        assert!(fused.block_scan_ready());
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
        run_batch_driver(&mut fused, &s, limits, &mut via_bytes);
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
        w.append(&v);
        assert_eq!(w, v);
        w.quarantine_from(0, SkipReason::RecordLimit { limit: 0 });
        assert!(!w.matched(0, 69));
    }
}
