//! Flat batch execution engine: the table-driven fast path for composed
//! raw filters.
//!
//! [`CompiledFilter`] is the co-simulation model: it walks an
//! [`EvalNode`](crate::evaluator) tree with enum dispatch for every input
//! byte and steps DFAs through a class-indirection lookup. That is
//! faithful to the hardware but nowhere near as fast as software allows.
//! [`Engine`] executes the *same* semantics — every record's verdict,
//! held equal by differential property tests — from flattened,
//! allocation-free state:
//!
//! * every exact string matcher becomes a **dense 256-wide row-major
//!   transition table** ([`Dfa::dense_table`](rfjson_redfa::Dfa::dense_table))
//!   with the accept flag folded into the state word, so one load per
//!   byte replaces two dependent loads plus an accept lookup;
//! * all number-range automata are pooled into **one product automaton**
//!   over the fifteen number bytes ([`numpool`]): one lookup
//!   per number byte however many ranges the program checks, and one fire
//!   mask per row, read where a token ends;
//! * window matchers are dense string DFAs like the above (see the
//!   full-window note below), and substring matchers are **run-counter
//!   lanes** fed by a 256-entry byte-hit table (B = 1) or by the pooled
//!   block-hit automaton ([`blockhit`], B ≥ 2), stepped in a flat loop
//!   instead of `Box<Prim>` dispatch;
//! * the AND/OR/CTX combinator tree becomes a **post-order flat program**
//!   whose satisfaction latches live in `u64` bitsets and are evaluated
//!   and cleared with bitwise mask operations;
//! * the string mask, nesting depth and comma/close classification come
//!   from **one class-table read per word** ([`swar::class_masks`]) and
//!   the word's string mask ([`swar::string_mask_word`]), skipped
//!   wholesale for context-free filters.
//!
//! The full-window matcher (technique ii) compiles to the `.*needle`
//! automaton: firing "buffer == needle" is exactly "stream ends with
//! needle", and NUL-free needles can never match the zero-initialised
//! buffer early, so the table-driven walk is fire-identical to the
//! hardware shift register (the differential tests include window
//! expressions).
//!
//! # Groups
//!
//! An engine runs a **group** of expressions as one flat program: the
//! members sit in disjoint node ranges of the same latch bitset, each with
//! its own root bit, over one set of primitive units. A primitive that
//! equals one already built — same needle and technique, same number
//! bounds — is not built again: every unit carries a *fire mask* and the
//! new node joins it. One prefilter speaks for the group and rejects a
//! record only when every member's own prefilter does.
//! [`Engine::compile`] is the group of one;
//! [`MultiEngine`](crate::multi::MultiEngine) partitions a batch into
//! groups, runs each group's stream path over records framed once per
//! call, and scatters the root bits.
//!
//! # The word kernel
//!
//! Every program runs eight bytes at a time over whole streams on the
//! stream path, the one datapath of [`Engine`] and
//! [`MultiEngine`](crate::multi::MultiEngine) streams, in three passes
//! per word that share nothing but the word and an array of fire masks
//! by byte position. A wider program costs more lanes, never another
//! path: the kernel is one body over the latch width ([`Latch`]),
//! instantiated for one `u64` word and for a vector of them, and the
//! substring units take as many banks of eight packed lanes as they need
//! ([`blockhit`'s lane layout](crate::blockhit#lane-layout)). The unit
//! lanes step over the word in a straight line: the string DFAs and the
//! reference lanes byte by byte, and the packed run counters of the
//! substring units once per word and bank, from the word's eight hit
//! masks ([`blockhit`'s counter algebra](crate::blockhit#run-counters-a-word-at-a-time)),
//! so no byte waits for the counters of the byte before it; only a
//! block-hit pool with blocks longer than two bytes still walks its rows
//! byte by byte. The number automata visit the number bytes and token
//! ends a mask points out ([`NumberAutomaton::walk_word`]) — an anchored
//! automaton only those of anchored tokens ([`numpool`'s word
//! walk](crate::numpool#the-word-walk)) — with every class mask of the
//! word read from one class table ([`swar::class_masks`]); and the node
//! program — the only pass that branches on what the data says — runs
//! only at **program points**, in stream order: the unmasked structural
//! bytes (open, close and, if some context is member-scoped, comma), the
//! separators, and the end of the call. A fire on any other byte is ORed
//! into an accumulator, which one run of the program applies at the
//! current depth before the next point is handled (before an open's
//! `depth += 1`); then the point's own event runs: a fire on the byte
//! itself, or a close or comma while some context has a pending child.
//! Between two points depth cannot change and no context can end, so
//! the program is a monotone closure and one run over the union of the
//! fires leaves the latches and flag levels that one run per fire
//! leaves; on a byte with no fire and no pending context a run is the
//! identity. So the kernel agrees on every latch at every point with the
//! model, which runs its tree once per byte.
//!
//! The engine's
//! [`filter_stream_verdicts_into`](crate::backend::FilterBackend::filter_stream_verdicts_into)
//! runs the kernel over the whole buffer, as the paper's lane never
//! stops between records: every
//! newline is an event, at which the kernel reads the verdict from the
//! root bits after the separator's own fires, hands it to the framing
//! rules ([`Framer::frame`]: blank lines, CR, ingest limits), and clears
//! the latches, the flag levels, the depth and — if the separator sat
//! inside an unterminated string — the string state. The unit lanes
//! need no reset: the compiler checks that `\n` returns every one of
//! them to its reset state. So the kernel may also start at any
//! record's first byte, from reset state. That is how a live literal
//! prefilter gates the stream path: it is asked about each record as
//! the call is framed, a rejected record is never scanned, and the
//! kernel runs once per **run** of records between two rejected ones.
//! A program with a unit that sees `\n` makes every record a run of its
//! own.
//!
//! The record-at-a-time API — [`Engine::on_byte`], [`Engine::reset`],
//! [`Engine::member_accepts`], the provided `on_block` and
//! `accepts_record`, and the record driver
//! [`run_verdict_driver`](crate::backend::run_verdict_driver) over them
//! — runs the byte-serial model the kernel is held to, one
//! [`CompiledFilter`] per member, compiled at the first `on_byte`. It is
//! the oracle, not a second datapath: it never runs the kernel, never
//! asks the prefilter and counts nothing.

use crate::backend::{IngestLimits, SkipReason, Verdict};
use crate::blockhit::{self, step_lanes, BlockAutomatonView, BlockUnits, LANES};
use crate::evaluator::CompiledFilter;
use crate::expr::{Expr, NumberTechnique, StringTechnique, StructScope};
use crate::numpool::{self, NumberAutomaton, NumberAutomatonView, TokenState, WordTokens};
use crate::prefilter::Prefilter;
use crate::primitive::{is_anchor_byte, DfaStringMatcher, SubstringMatcher, WindowMatcher};
use rfjson_jsonstream::frame::Framer;
use rfjson_jsonstream::{swar, StreamTracker};
use rfjson_redfa::range::is_number_byte;
use rfjson_redfa::{NumberBounds, DENSE_ACCEPT_BIT};

/// The byte classes the word kernel reads, one bit each, in the order
/// [`swar::class_masks`] returns their masks: number byte, anchor byte
/// ([`is_anchor_byte`]), then the six of [`swar::STRUCTURE_CLASSES`] —
/// quote, backslash, open, close, comma, newline.
pub(crate) const KERNEL_CLASSES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        table[b] = is_number_byte(byte) as u8
            | (is_anchor_byte(byte) as u8) << 1
            | swar::STRUCTURE_CLASSES[b] << 2;
        b += 1;
    }
    table
};

/// State-index part of a dense state word.
const STATE_MASK: u16 = !DENSE_ACCEPT_BIT;

/// Combinator kind of one [`OpView`] — the public mirror of the engine's
/// internal op encoding, exposed for static verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKindView {
    /// All direct children latched.
    And,
    /// Any direct child latched.
    Or,
    /// Structural context: children must latch within one instance.
    Ctx {
        /// Mask offset of the strict-descendant clear mask.
        clear_off: u32,
        /// Flag-level register slot of this context.
        ctx_id: u32,
        /// First flag-level slot inside this context's subtree.
        ctx_lo: u32,
        /// Member scope (clears on instance-level commas too).
        member: bool,
    },
}

/// One combinator of the flat node program, as seen by the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpView {
    /// Bit index of this node in the latch bitset.
    pub node: u32,
    /// Mask offset of the direct-children mask.
    pub mask_off: u32,
    /// Combinator kind.
    pub kind: OpKindView,
}

/// One table-backed DFA unit (an exact-string or window automaton).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfaUnitView {
    /// Offset of this unit's dense table inside [`ProgramView::tables`].
    pub table_off: u32,
    /// Dense-encoded start state (accept bit folded in).
    pub start: u16,
    /// Latch-bit index this unit fires.
    pub node: u32,
}

/// Immutable snapshot of a compiled [`Engine`]'s flat node program — the
/// input of the `rfjson-verify` static analyses. All invariants the hot
/// loop relies on without checking (post-order evaluation, in-range mask
/// offsets, latch-clear coverage) are observable here; [`ProgramView::check`]
/// re-proves the structural ones and is `debug_assert!`ed at compile time.
#[derive(Debug, Clone)]
pub struct ProgramView {
    /// Total node count (primitives + combinators).
    pub num_nodes: u32,
    /// Latch bitset width in 64-bit words.
    pub words: usize,
    /// Bit index of the root (record-accept) node.
    pub root: u32,
    /// Post-order combinator program.
    pub ops: Vec<OpView>,
    /// All child/clear masks, [`ProgramView::words`] u64s per mask.
    pub masks: Vec<u64>,
    /// Number of context flag-level registers.
    pub num_ctxs: u32,
    /// Concatenated dense transition tables of the string DFA units.
    pub tables: Vec<u16>,
    /// Exact-string DFA units, in compile (post-)order.
    pub string_dfas: Vec<DfaUnitView>,
    /// Latch-bit indices of the number-range leaves. A number unit has no
    /// table of its own: it is one component of the pooled number
    /// automaton ([`Engine::number_automaton_views`]), which fires these
    /// bits from its rows.
    pub number_dfas: Vec<u32>,
    /// Latch-bit indices of single-byte substring units (lanes of the
    /// byte hit tables, or reference lanes past the packed targets).
    pub sub1_nodes: Vec<u32>,
    /// Latch-bit indices of the B ≥ 2 substring units whose blocks are at
    /// most eight bytes long. A census category, not a mechanism: like
    /// [`ProgramView::wide_nodes`] they are lanes of the block-hit
    /// automata ([`Engine::block_automaton_views`]) or reference lanes.
    pub subp_nodes: Vec<u32>,
    /// Latch-bit indices of the B ≥ 2 substring units with longer blocks:
    /// the other census category of the same lanes.
    pub wide_nodes: Vec<u32>,
}

/// One structural defect found by [`ProgramView::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramFault {
    /// `words` is not `num_nodes.div_ceil(64)`.
    WordWidth {
        /// Declared width.
        words: usize,
        /// Width the node count requires.
        expected: usize,
    },
    /// The root bit index is outside the node range or not the final node.
    BadRoot {
        /// Declared root.
        root: u32,
    },
    /// A mask offset reaches past the mask pool.
    MaskOutOfRange {
        /// Node whose op referenced the mask.
        node: u32,
        /// Offending offset.
        mask_off: u32,
    },
    /// A mask references a bit ≥ `num_nodes`.
    MaskBitOutOfRange {
        /// Node whose op owns the mask.
        node: u32,
        /// Offending bit.
        bit: u32,
    },
    /// Ops are not in strictly increasing (post-order) node order.
    NotPostOrder {
        /// Node that broke the order.
        node: u32,
    },
    /// A node is defined both as a primitive and as a combinator, or by
    /// two combinators.
    DoubleDefinition {
        /// The doubly defined node.
        node: u32,
    },
    /// An operand bit is used before (or without) being defined.
    UseBeforeDef {
        /// The combinator using the operand.
        node: u32,
        /// The undefined operand bit.
        operand: u32,
    },
    /// A non-root node feeds no parent mask.
    DanglingNode {
        /// The unread node.
        node: u32,
    },
    /// A node feeds more than one parent mask (the program is a tree).
    SharedOperand {
        /// The multiply used node.
        node: u32,
    },
    /// A context's clear mask does not cover exactly its strict
    /// descendants — a latch inside the context would never reset at
    /// instance end (or an unrelated latch would be clobbered).
    LatchClearMismatch {
        /// The context node.
        node: u32,
        /// A descendant missing from (or an outsider present in) the
        /// clear mask.
        bit: u32,
    },
    /// Context flag-level slots are out of range or not nested properly.
    BadCtxSlots {
        /// The context node.
        node: u32,
    },
}

impl std::fmt::Display for ProgramFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramFault::WordWidth { words, expected } => {
                write!(f, "bitset width {words} words, node count needs {expected}")
            }
            ProgramFault::BadRoot { root } => write!(f, "root node {root} out of place"),
            ProgramFault::MaskOutOfRange { node, mask_off } => {
                write!(f, "node {node}: mask offset {mask_off} out of range")
            }
            ProgramFault::MaskBitOutOfRange { node, bit } => {
                write!(f, "node {node}: mask bit {bit} exceeds node count")
            }
            ProgramFault::NotPostOrder { node } => {
                write!(f, "node {node} breaks post-order op sequence")
            }
            ProgramFault::DoubleDefinition { node } => write!(f, "node {node} defined twice"),
            ProgramFault::UseBeforeDef { node, operand } => {
                write!(f, "node {node} uses operand {operand} before definition")
            }
            ProgramFault::DanglingNode { node } => write!(f, "node {node} feeds no parent"),
            ProgramFault::SharedOperand { node } => {
                write!(f, "node {node} feeds more than one parent")
            }
            ProgramFault::LatchClearMismatch { node, bit } => {
                write!(f, "context {node}: latch {bit} not covered by clear mask")
            }
            ProgramFault::BadCtxSlots { node } => {
                write!(f, "context {node}: flag-level slots inconsistent")
            }
        }
    }
}

/// The bits set in a multi-word mask, ascending.
fn mask_bits(mask: &[u64]) -> Vec<u32> {
    let mut bits = Vec::new();
    for (w, word) in mask.iter().enumerate() {
        let mut word = *word;
        while word != 0 {
            bits.push(w as u32 * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    bits
}

impl ProgramView {
    /// The bits set in the mask at `off` (empty if out of range).
    fn mask_bits(&self, off: u32) -> Vec<u32> {
        let lo = off as usize;
        self.masks
            .get(lo..lo + self.words)
            .map_or_else(Vec::new, mask_bits)
    }

    /// Latch-bit indices of all primitive units, in compile order of
    /// their unit arrays.
    pub fn primitive_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .string_dfas
            .iter()
            .map(|u| u.node)
            .chain(self.number_dfas.iter().copied())
            .chain(self.sub1_nodes.iter().copied())
            .chain(self.subp_nodes.iter().copied())
            .chain(self.wide_nodes.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// Re-proves the structural invariants of the flat program: post-order
    /// well-formedness, operand defined-before-use, single-use tree shape,
    /// latch clear-mask coverage, flag-slot nesting, and bitset-width
    /// consistency. Returns every fault found (empty = well-formed).
    ///
    /// This is the check `Engine::compile` runs under `debug_assert!`;
    /// `rfjson-verify` maps the same faults into its diagnostic model and
    /// layers the cross-artifact analyses on top.
    pub fn check(&self) -> Vec<ProgramFault> {
        let mut faults = Vec::new();
        let expected_words = (self.num_nodes as usize).div_ceil(64);
        if self.words != expected_words {
            faults.push(ProgramFault::WordWidth {
                words: self.words,
                expected: expected_words,
            });
        }
        if self.root + 1 != self.num_nodes {
            faults.push(ProgramFault::BadRoot { root: self.root });
        }

        // Definition sweep: primitives first, then ops in post-order.
        let n = self.num_nodes as usize;
        let mut defined = vec![false; n];
        for p in self.primitive_nodes() {
            if (p as usize) < n {
                if defined[p as usize] {
                    faults.push(ProgramFault::DoubleDefinition { node: p });
                }
                defined[p as usize] = true;
            } else {
                faults.push(ProgramFault::MaskBitOutOfRange { node: p, bit: p });
            }
        }
        let mut used_by = vec![0u32; n];
        let mut prev_node: Option<u32> = None;
        let mut prev_ctx: Option<u32> = None;
        for op in &self.ops {
            if prev_node.is_some_and(|p| op.node <= p) {
                faults.push(ProgramFault::NotPostOrder { node: op.node });
            }
            prev_node = Some(op.node);
            if (op.mask_off as usize) + self.words > self.masks.len() {
                faults.push(ProgramFault::MaskOutOfRange {
                    node: op.node,
                    mask_off: op.mask_off,
                });
                continue;
            }
            for bit in self.mask_bits(op.mask_off) {
                if bit as usize >= n {
                    faults.push(ProgramFault::MaskBitOutOfRange { node: op.node, bit });
                    continue;
                }
                if bit >= op.node || !defined[bit as usize] {
                    faults.push(ProgramFault::UseBeforeDef {
                        node: op.node,
                        operand: bit,
                    });
                }
                used_by[bit as usize] += 1;
            }
            if (op.node as usize) < n {
                if defined[op.node as usize] {
                    faults.push(ProgramFault::DoubleDefinition { node: op.node });
                }
                defined[op.node as usize] = true;
            } else {
                faults.push(ProgramFault::MaskBitOutOfRange {
                    node: op.node,
                    bit: op.node,
                });
            }
            if let OpKindView::Ctx {
                clear_off,
                ctx_id,
                ctx_lo,
                ..
            } = op.kind
            {
                if ctx_id >= self.num_ctxs
                    || ctx_lo > ctx_id
                    || prev_ctx.is_some_and(|p| ctx_id <= p)
                {
                    faults.push(ProgramFault::BadCtxSlots { node: op.node });
                }
                prev_ctx = Some(ctx_id);
                if (clear_off as usize) + self.words > self.masks.len() {
                    faults.push(ProgramFault::MaskOutOfRange {
                        node: op.node,
                        mask_off: clear_off,
                    });
                } else {
                    // Latch reset coverage: the clear mask must be exactly
                    // the strict descendants of this context node.
                    let descendants = self.subtree_bits(op);
                    let clear = self.mask_bits(clear_off);
                    for &d in &descendants {
                        if !clear.contains(&d) {
                            faults.push(ProgramFault::LatchClearMismatch {
                                node: op.node,
                                bit: d,
                            });
                        }
                    }
                    for &c in &clear {
                        if !descendants.contains(&c) {
                            faults.push(ProgramFault::LatchClearMismatch {
                                node: op.node,
                                bit: c,
                            });
                        }
                    }
                }
            }
        }
        for (i, &uses) in used_by.iter().enumerate() {
            let node = i as u32;
            let is_defined = defined[i];
            if node == self.root {
                if uses > 0 {
                    faults.push(ProgramFault::SharedOperand { node });
                }
                continue;
            }
            if is_defined && uses == 0 {
                faults.push(ProgramFault::DanglingNode { node });
            }
            if uses > 1 {
                faults.push(ProgramFault::SharedOperand { node });
            }
        }
        faults
    }

    /// The strict descendants of an op: transitive closure of its direct
    /// children through the combinator masks.
    fn subtree_bits(&self, op: &OpView) -> Vec<u32> {
        let mut seen = vec![false; self.num_nodes as usize];
        let mut work = self.mask_bits(op.mask_off);
        let mut out = Vec::new();
        while let Some(bit) = work.pop() {
            let i = bit as usize;
            if i >= seen.len() || seen[i] {
                continue;
            }
            seen[i] = true;
            out.push(bit);
            if let Some(child_op) = self.ops.iter().find(|o| o.node == bit) {
                work.extend(self.mask_bits(child_op.mask_off));
            }
        }
        out.sort_unstable();
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    And,
    Or,
    Ctx {
        /// Mask offset of the strict-descendant clear mask.
        clear_off: u32,
        /// This context's flag-level slot.
        ctx_id: u32,
        /// First flag-level slot inside this context's subtree (slots
        /// `ctx_lo..ctx_id` are the descendant contexts to reset).
        ctx_lo: u32,
        /// [`StructScope::Member`]: clear on instance-level commas too.
        member: bool,
    },
}

/// One combinator of the post-order node program. Primitive leaves need
/// no op: their fire bits are ORed into the latch bitset during the
/// primitive sweep, before the program runs.
#[derive(Debug, Clone)]
struct Op {
    /// Bit index of this node in the latch bitset.
    node: u32,
    /// Mask offset of the direct-children mask.
    mask_off: u32,
    kind: OpKind,
}

/// The record-level literal prefilter plus its adaptive bookkeeping:
/// `live` drops to `false` once a probation window of records rejects
/// nothing, so unselective streams stop paying the scan.
#[derive(Debug, Clone)]
struct PrefilterState {
    /// One per member: the group rejects a record only when all of them
    /// do, i.e. when no member can match it.
    filters: Vec<Prefilter>,
    live: bool,
    checked: u64,
    rejected: u64,
}

/// Adaptive status of the record-level literal prefilter, as reported by
/// [`Engine::prefilter_status`]. A zero hit rate in the benchmark output
/// is only meaningful together with this state: `Disabled` means the
/// stream proved unselective during probation (every record contains the
/// required literals, so the scan can never reject — the RiotBench range
/// queries are all in this class) and the engine stopped paying for the
/// scan, not that the prefilter is broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefilterStatus {
    /// The expression yields no usable necessary-condition literal set
    /// (e.g. the root is a disjunction), so no prefilter was built.
    Absent,
    /// Active, still inside the probation window of
    /// [`Engine::PREFILTER_PROBATION`] records.
    Probation,
    /// Active past probation: the scan rejected records and keeps
    /// earning its keep.
    Live,
    /// Self-disabled: a full probation window rejected nothing, so the
    /// scan is skipped from then on.
    Disabled,
}

impl std::fmt::Display for PrefilterStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PrefilterStatus::Absent => "absent",
            PrefilterStatus::Probation => "probation",
            PrefilterStatus::Live => "live",
            PrefilterStatus::Disabled => "disabled",
        })
    }
}

/// The structural facts of one input byte, as the node program sees
/// them: nesting depth plus whether the byte is an unmasked close or
/// comma.
#[derive(Debug, Clone, Copy)]
struct ByteEvent {
    depth: u32,
    is_close: bool,
    is_comma: bool,
}

/// A word-wide state as the word kernel holds it — the latch bitset of
/// the node program, and a kind of packed lane counters, a word per
/// bank: one `u64` register where one word holds it, a vector of words
/// past that. The node program, the unit lanes and the number walk are
/// written once over this trait and instantiated for both. A mask
/// operand is a slice of a mask pool that starts at the mask: its first
/// [`Latch::words`]`().len()` words are the mask.
pub trait Latch: Clone {
    /// All bits clear, `words` words wide.
    fn zeroed(words: usize) -> Self;
    /// A copy of `words` (of at most one word, for `u64`).
    fn load(words: &[u64]) -> Self;
    /// Copies the words back into `words`, as wide as [`Latch::load`]'s.
    fn store(&self, words: &mut [u64]);
    /// The words, lowest bits first.
    fn words(&self) -> &[u64];
    /// The words, mutably.
    fn words_mut(&mut self) -> &mut [u64];

    /// ORs `mask` in.
    #[inline]
    fn or_words(&mut self, mask: &[u64]) {
        for (l, m) in self.words_mut().iter_mut().zip(mask) {
            *l |= m;
        }
    }

    /// ORs `mask` in; returns whether it had a bit set.
    #[inline]
    fn or_any(&mut self, mask: &[u64]) -> bool {
        let mut any = 0;
        for (l, m) in self.words_mut().iter_mut().zip(mask) {
            *l |= m;
            any |= m;
        }
        any != 0
    }

    /// Clears the bits of `mask`.
    #[inline]
    fn clear_words(&mut self, mask: &[u64]) {
        for (l, m) in self.words_mut().iter_mut().zip(mask) {
            *l &= !m;
        }
    }

    /// Clears every bit.
    #[inline]
    fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Whether no bit is set.
    #[inline]
    fn is_zero(&self) -> bool {
        self.words().iter().all(|&l| l == 0)
    }

    /// Whether some bit of `mask` is set.
    #[inline]
    fn meets(&self, mask: &[u64]) -> bool {
        self.words().iter().zip(mask).any(|(l, m)| l & m != 0)
    }

    /// Whether every bit of `mask` is set.
    #[inline]
    fn covers(&self, mask: &[u64]) -> bool {
        self.words().iter().zip(mask).all(|(l, m)| l & m == *m)
    }

    /// Sets bit `i`.
    #[inline]
    fn set(&mut self, i: u32) {
        self.words_mut()[i as usize / 64] |= 1 << (i % 64);
    }
}

/// The one-word latch (at most 64 nodes), in a register.
impl Latch for u64 {
    #[inline]
    fn zeroed(_: usize) -> u64 {
        0
    }
    #[inline]
    fn load(words: &[u64]) -> u64 {
        debug_assert!(words.len() <= 1, "{} words in one", words.len());
        words.first().copied().unwrap_or(0)
    }
    #[inline]
    fn store(&self, words: &mut [u64]) {
        if let Some(word) = words.first_mut() {
            *word = *self;
        }
    }
    #[inline]
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
    #[inline]
    fn or_words(&mut self, mask: &[u64]) {
        *self |= mask[0];
    }
    #[inline]
    fn or_any(&mut self, mask: &[u64]) -> bool {
        *self |= mask[0];
        mask[0] != 0
    }
    #[inline]
    fn meets(&self, mask: &[u64]) -> bool {
        self & mask[0] != 0
    }
    #[inline]
    fn covers(&self, mask: &[u64]) -> bool {
        self & mask[0] == mask[0]
    }
    #[inline]
    fn set(&mut self, i: u32) {
        *self |= 1 << i;
    }
}

/// The latch of any width.
impl Latch for Vec<u64> {
    fn zeroed(words: usize) -> Vec<u64> {
        vec![0; words]
    }
    fn load(words: &[u64]) -> Vec<u64> {
        words.to_vec()
    }
    fn store(&self, words: &mut [u64]) {
        words.copy_from_slice(self);
    }
    #[inline]
    fn words(&self) -> &[u64] {
        self
    }
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// One run of the node program, as the word kernel runs it at a program
/// point, at either latch width. `l` is the latch with the fires it
/// applies already ORed in; `p` is the latch before them (context
/// pending-before checks). Returns the updated latch.
#[inline]
fn run_program<L: Latch>(
    ops: &[Op],
    masks: &[u64],
    flag_level: &mut [u32],
    mut l: L,
    p: &L,
    ev: ByteEvent,
) -> L {
    let ByteEvent {
        depth,
        is_close,
        is_comma,
    } = ev;
    for op in ops {
        let m = &masks[op.mask_off as usize..];
        match op.kind {
            OpKind::And => {
                if l.covers(m) {
                    l.set(op.node);
                }
            }
            OpKind::Or => {
                if l.meets(m) {
                    l.set(op.node);
                }
            }
            OpKind::Ctx {
                clear_off,
                ctx_id,
                ctx_lo,
                member,
            } => {
                let any = l.meets(m);
                let pending_before = p.meets(m);
                if !any && !pending_before {
                    continue; // nothing pending, nothing fired
                }
                // First fire of a fresh instance records the level.
                if !pending_before {
                    flag_level[ctx_id as usize] = depth;
                }
                if l.covers(m) {
                    l.set(op.node);
                }
                // Instance end: clear pending descendant latches.
                if any {
                    let fl = flag_level[ctx_id as usize];
                    let end = (is_close && depth <= fl) || (member && is_comma && depth == fl);
                    if end {
                        l.clear_words(&masks[clear_off as usize..]);
                        for fl in &mut flag_level[ctx_lo as usize..ctx_id as usize] {
                            *fl = 0;
                        }
                    }
                }
            }
        }
    }
    l
}

/// Per-kind primitive unit counts of a compiled program, or of what one
/// expression demands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounts {
    /// Exact-string / window DFA units, a dense table each.
    pub string_dfas: usize,
    /// Number-range units: components of the pooled number automaton
    /// ([`numpool`]), with no table of their own.
    pub number_dfas: usize,
    /// Single-byte substring units (B = 1), a lane each of the byte hit
    /// tables.
    pub sub1: usize,
    /// B ≥ 2 substring units whose blocks are at most eight bytes long. A
    /// census category, not a mechanism: like [`UnitCounts::wide`] they
    /// are lanes of the block-hit automata ([`blockhit`]).
    pub subp: usize,
    /// B ≥ 2 substring units with longer blocks: the other census
    /// category of the same lanes.
    pub wide: usize,
}

impl UnitCounts {
    /// Total units across all kinds.
    pub fn total(&self) -> usize {
        self.string_dfas + self.number_dfas + self.sub1 + self.subp + self.wide
    }

    /// The primitive leaves of `expr`, by kind: what it demands before
    /// deduplication.
    pub fn of(expr: &Expr) -> UnitCounts {
        let mut counts = UnitCounts::default();
        counts.add_leaves(expr);
        counts
    }

    fn add_leaves(&mut self, expr: &Expr) {
        match expr {
            Expr::Str(spec) => match spec.technique {
                StringTechnique::Dfa | StringTechnique::Window => self.string_dfas += 1,
                StringTechnique::Substring(b) => self.add_substring(b),
            },
            Expr::Num(..) => self.number_dfas += 1,
            Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
                for c in cs {
                    self.add_leaves(c);
                }
            }
        }
    }

    /// Counts one substring unit of block length `b` in its category.
    fn add_substring(&mut self, b: usize) {
        match b {
            1 => self.sub1 += 1,
            2..=8 => self.subp += 1,
            _ => self.wide += 1,
        }
    }
}

impl std::ops::AddAssign for UnitCounts {
    fn add_assign(&mut self, other: UnitCounts) {
        self.string_dfas += other.string_dfas;
        self.number_dfas += other.number_dfas;
        self.sub1 += other.sub1;
        self.subp += other.subp;
        self.wide += other.wide;
    }
}

/// A record of a stream as the gated stream path ([`Engine::gate`]) sees
/// it: its line, framing CR included; its separator's position —
/// `stream.len()` for a trailing record, where the kernel's pad word puts
/// one; and the index of its verdict among the call's records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordLine {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) slot: usize,
}

/// Frames `stream` for the gated stream path: `record(line, skip)` for
/// every record in stream order, with the reason it is quarantined if it
/// is. The `framing.*` tally is flushed here, once per call.
pub(crate) fn frame_records(
    stream: &[u8],
    limits: IngestLimits,
    mut record: impl FnMut(RecordLine, Option<SkipReason>),
) {
    let mut framer = Framer::new(limits);
    let mut slot = 0;
    framer.records(stream, |span, _, end| {
        let line = RecordLine {
            start: span.start,
            end: span.end,
            slot,
        };
        record(line, end.skip);
        slot += 1;
    });
    framer.flush();
}

/// The pending **run** of one call on the gated stream path: the scored
/// records since the last one the prefilter rejected, and the bytes
/// rejected so far.
#[derive(Debug, Clone, Default)]
pub(crate) struct Run {
    lines: Vec<RecordLine>,
    skipped: usize,
}

/// The flattened, allocation-free batch execution engine.
///
/// Compile once, then stream any number of records through it; per-word
/// work on the stream path is table lookups and bitset arithmetic with
/// no heap traffic.
///
/// # Example
///
/// ```
/// use rfjson_core::{Engine, Expr, FilterBackend};
///
/// let expr = Expr::context([
///     Expr::substring(b"temperature", 1)?,
///     Expr::float_range("0.7", "35.1")?,
/// ]);
/// let mut engine = Engine::compile(&expr);
/// let stream = b"{\"e\":[{\"v\":\"21.0\",\"n\":\"temperature\"}]}\n{\"e\":[{\"v\":\"99.0\",\"n\":\"temperature\"}]}\n";
/// assert_eq!(engine.filter_stream(stream), [true, false]);
/// # Ok::<(), rfjson_core::expr::ExprError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    /// The group's members, in node-range order.
    exprs: Vec<Expr>,

    // ---- node program (immutable after compile) ----
    /// Bitset width in 64-bit words.
    words: usize,
    /// Root (accept) bit of each member. Member `i` owns the nodes from
    /// one past member `i − 1`'s root up to its own.
    roots: Vec<u32>,
    /// Every root bit, `words` u64s: the group's accept signal.
    root_mask: Vec<u64>,
    /// Whether any context op exists — without one, no node reads the
    /// structural facts and the word kernel skips the string mask and the
    /// structural bytes.
    has_ctx: bool,
    /// The OR of every context's child mask, `words` u64s: without a bit
    /// of it latched, no context is pending and a close or comma without
    /// a fire is no event of the word kernel.
    ctx_children: Vec<u64>,
    /// `0xFF` if some context is member-scoped — the only kind a comma
    /// can end — else 0: the word kernel's mask of commas that matter.
    comma_events: u8,
    ops: Vec<Op>,
    /// All child/clear masks, `words` u64s per mask, indexed by offset.
    masks: Vec<u64>,

    // ---- dense DFA units (exact strings and windows) ----
    /// Concatenated dense tables (`states × 256` words each).
    tables: Vec<u16>,
    sdfa_off: Vec<u32>,
    sdfa_start: Vec<u16>,
    /// Fire mask per unit, `words` u64s each: the latch bits of every
    /// leaf the unit stands for. Likewise for the other unit kinds.
    sdfa_fire: Vec<u64>,

    // ---- number-range units ----
    /// The pooled number automata: one, unless the product of the units
    /// would outgrow [`numpool::MAX_ROWS`].
    numbers: Vec<NumberAutomaton>,
    /// How many of them are token automata: the pool puts them before
    /// the anchored ones, so the word kernel walks `numbers[..this]` over
    /// every token and the rest over the anchored ones.
    token_automata: usize,

    // ---- single-byte substring units (B = 1) ----
    /// Packed hit tables, one per bank of eight units: entry `b` of bank
    /// `k` holds `0xFF` in lane `i` iff byte `b` is one of unit `8 k + i`'s
    /// needle letters (the OR-reduced comparator bank of the paper, as a
    /// table).
    sub1_hits: Vec<[u64; 256]>,
    /// Run targets packed one byte per lane, a word per bank (unused
    /// lanes hold 127, unreachable by their never-hit counters).
    sub1_targets: Vec<u64>,
    sub1_fire: Vec<u64>,

    // ---- block substring units (B ≥ 2, and B = 1 past the packed targets) ----
    /// The split pool of block-hit automata and the reference lanes, with
    /// their per-stream rows and run counters.
    subn: BlockUnits,

    /// Whether `\n` returns every unit to its reset state
    /// ([`separator_resets_units`](Engine::separator_resets_units)), so
    /// the stream path may run the kernel across record boundaries.
    separator_resets: bool,
    /// Record-level literal prefilter (necessary-condition checks),
    /// with its live/checked/rejected bookkeeping.
    prefilter: Option<PrefilterState>,
    /// The pending run of the current call on the gated stream path,
    /// kept to reuse the allocation.
    run: Run,
    /// The record-at-a-time API's byte-serial model, one per member:
    /// empty until the first [`Engine::on_byte`] compiles it.
    model: Vec<CompiledFilter>,

    // ---- mutable per-stream state ----
    /// Telemetry accumulated in plain locals on the hot path and flushed
    /// to the global registry once per stream (`flush_telemetry`).
    stats: EngineStats,
    latch: Vec<u64>,
    flag_level: Vec<u32>,
    sdfa_state: Vec<u16>,
    /// Current row of each number automaton (0 outside the tokens it
    /// walks).
    num_row: Vec<u16>,
    /// All number units share one token trajectory (`is_number_byte` does
    /// not depend on the unit, nor whether a token is anchored), so one
    /// state covers them.
    num_token: TokenState,
    /// Run counters of the B = 1 units, packed one byte per lane, a word
    /// per bank.
    sub1_counters: Vec<u64>,
    tracker: StreamTracker,
}

/// Per-stream telemetry the engine accumulates in plain `u64` fields —
/// no atomics, no registry lookups on the byte path. Drained once per
/// stream: into the global `engine.*` counters by `flush_telemetry`, or
/// into `multi.*` by the [`MultiEngine`](crate::multi::MultiEngine) whose
/// group this engine is.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineStats {
    /// Records the stream path scored.
    pub(crate) records: u64,
    /// Bytes of the word kernel: every stream byte of a line the
    /// prefilter did not reject.
    pub(crate) bytes_block: u64,
    /// Bytes never scanned: the prefilter rejected the whole record
    /// (its separator included, when the stream has one).
    pub(crate) bytes_prefilter_skipped: u64,
    /// Records the live prefilter examined.
    pub(crate) prefilter_checked: u64,
    /// Records the prefilter proved `NoMatch` without scanning.
    pub(crate) prefilter_rejected: u64,
    /// Probation-end self-disable events (at most one per compile).
    pub(crate) prefilter_disabled: u64,
    /// Bytes the prefilter looked at to decide the records it examined.
    pub(crate) prefilter_probed_bytes: u64,
}

impl EngineStats {
    pub(crate) fn is_empty(&self) -> bool {
        self.records == 0 && self.bytes_block == 0 && self.bytes_prefilter_skipped == 0
    }
}

/// ORs `node` into the fire mask of unit `unit`, which is either one of
/// the units `fires` already covers or the next one.
fn subscribe(fires: &mut Vec<u64>, words: usize, unit: usize, node: u32) {
    if fires.len() == unit * words {
        fires.resize((unit + 1) * words, 0);
    }
    fires[unit * words + node as usize / 64] |= 1u64 << (node % 64);
}

/// Builder state threaded through the post-order compile walk of a
/// group's members, one after the other: node and context numbering
/// carries on from member to member, so each gets a node range of its
/// own, and a primitive equal to a unit already built subscribes its node
/// to that unit's fire mask instead of becoming a second one.
#[derive(Default)]
struct Builder<'e> {
    words: usize,
    next_node: u32,
    next_ctx: u32,
    ops: Vec<Op>,
    masks: Vec<u64>,
    tables: Vec<u16>,
    /// What each DFA unit was built from — compared before building, so
    /// a duplicate costs no automaton construction.
    sdfa_needle: Vec<&'e [u8]>,
    sdfa_off: Vec<u32>,
    sdfa_start: Vec<u16>,
    sdfa_fire: Vec<u64>,
    num_bounds: Vec<(&'e NumberBounds, NumberTechnique)>,
    num_fire: Vec<u64>,
    sub1_bitmap: Vec<u64>,
    sub1_target: Vec<u32>,
    sub1_fire: Vec<u64>,
    subn: Vec<SubstringMatcher>,
    subn_fire: Vec<u64>,
}

impl<'e> Builder<'e> {
    fn alloc_node(&mut self) -> u32 {
        let n = self.next_node;
        self.next_node += 1;
        n
    }

    fn alloc_mask(&mut self, bits: &[u32]) -> u32 {
        let off = self.masks.len() as u32;
        self.masks.extend(std::iter::repeat_n(0, self.words));
        for &bit in bits {
            self.masks[off as usize + bit as usize / 64] |= 1u64 << (bit % 64);
        }
        off
    }

    fn add_dense(&mut self, dfa: &rfjson_redfa::Dfa) -> (u32, u16) {
        let off = self.tables.len() as u32;
        self.tables.extend(dfa.dense_table());
        (off, dfa.dense_start())
    }

    fn visit(&mut self, expr: &'e Expr) -> u32 {
        match expr {
            Expr::Str(spec) => {
                let node = self.alloc_node();
                match spec.technique {
                    StringTechnique::Dfa | StringTechnique::Window => {
                        if spec.technique == StringTechnique::Window {
                            // Validate through the reference primitive
                            // (empty / NUL needles); then the window
                            // compiles to the same `.*needle` automaton —
                            // fire-identical to the shift register.
                            let _ = WindowMatcher::new(&spec.needle);
                        }
                        let seen = self.sdfa_needle.iter().position(|n| *n == spec.needle);
                        let unit = seen.unwrap_or_else(|| {
                            let m = DfaStringMatcher::new(&spec.needle);
                            let (off, start) = self.add_dense(m.dfa());
                            self.sdfa_needle.push(&spec.needle);
                            self.sdfa_off.push(off);
                            self.sdfa_start.push(start);
                            self.sdfa_off.len() - 1
                        });
                        subscribe(&mut self.sdfa_fire, self.words, unit, node);
                    }
                    StringTechnique::Substring(1)
                        if spec.needle.len() as u32 <= blockhit::MAX_PACKED_TARGET =>
                    {
                        let m = SubstringMatcher::new(&spec.needle, 1)
                            .expect("expression was validated at compile time");
                        let mut bitmap = [0u64; 4];
                        for blk in m.blocks() {
                            let x = blk[0];
                            bitmap[(x >> 6) as usize] |= 1u64 << (x & 63);
                        }
                        let units = self.sub1_bitmap.chunks_exact(4).zip(&self.sub1_target);
                        let seen = units
                            .map(|(b, &t)| b == bitmap && t == m.target())
                            .position(|same| same);
                        let unit = seen.unwrap_or_else(|| {
                            self.sub1_bitmap.extend(bitmap);
                            self.sub1_target.push(m.target());
                            self.sub1_target.len() - 1
                        });
                        subscribe(&mut self.sub1_fire, self.words, unit, node);
                    }
                    StringTechnique::Substring(b) => {
                        let m = SubstringMatcher::new(&spec.needle, b)
                            .expect("expression was validated at compile time");
                        let same = |u: &SubstringMatcher| {
                            u.blocks() == m.blocks() && u.target() == m.target()
                        };
                        let unit = self.subn.iter().position(same).unwrap_or_else(|| {
                            self.subn.push(m);
                            self.subn.len() - 1
                        });
                        subscribe(&mut self.subn_fire, self.words, unit, node);
                    }
                }
                node
            }
            Expr::Num(bounds, technique) => {
                let node = self.alloc_node();
                let unit_of = (bounds, *technique);
                let seen = self.num_bounds.iter().position(|&u| u == unit_of);
                let unit = seen.unwrap_or_else(|| {
                    self.num_bounds.push(unit_of);
                    self.num_bounds.len() - 1
                });
                subscribe(&mut self.num_fire, self.words, unit, node);
                node
            }
            Expr::And(cs) | Expr::Or(cs) => {
                let children: Vec<u32> = cs.iter().map(|c| self.visit(c)).collect();
                let node = self.alloc_node();
                let mask_off = self.alloc_mask(&children);
                let kind = if matches!(expr, Expr::And(_)) {
                    OpKind::And
                } else {
                    OpKind::Or
                };
                self.ops.push(Op {
                    node,
                    mask_off,
                    kind,
                });
                node
            }
            Expr::Ctx(cs, scope) => {
                let lo = self.next_node;
                let ctx_lo = self.next_ctx;
                let children: Vec<u32> = cs.iter().map(|c| self.visit(c)).collect();
                let node = self.alloc_node();
                let ctx_id = self.next_ctx;
                self.next_ctx += 1;
                let mask_off = self.alloc_mask(&children);
                let descendants: Vec<u32> = (lo..node).collect();
                let clear_off = self.alloc_mask(&descendants);
                self.ops.push(Op {
                    node,
                    mask_off,
                    kind: OpKind::Ctx {
                        clear_off,
                        ctx_id,
                        ctx_lo,
                        member: *scope == StructScope::Member,
                    },
                });
                node
            }
        }
    }
}

fn count_nodes(expr: &Expr) -> usize {
    match expr {
        Expr::Str(_) | Expr::Num(..) => 1,
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            1 + cs.iter().map(count_nodes).sum::<usize>()
        }
    }
}

impl Engine {
    /// Compiles an expression into its flat table-driven form.
    ///
    /// # Panics
    ///
    /// Panics if the expression fails [`Expr::validate`] — construct
    /// expressions through the smart constructors to avoid this.
    pub fn compile(expr: &Expr) -> Engine {
        expr.validate().expect("expression must be well-formed");
        Self::compile_group(&[expr])
    }

    /// Compiles a group of validated expressions into one flat program —
    /// see the [module docs](self#groups). [`Engine::on_byte`] then
    /// answers "has any member accepted", and
    /// [`Engine::member_accepts`] tells them apart.
    pub(crate) fn compile_group(exprs: &[&Expr]) -> Engine {
        let num_nodes: usize = exprs.iter().map(|e| count_nodes(e)).sum();
        let words = num_nodes.div_ceil(64);
        let mut b = Builder {
            words,
            ..Builder::default()
        };
        let roots: Vec<u32> = exprs.iter().map(|e| b.visit(e)).collect();
        debug_assert_eq!(b.next_node as usize, num_nodes);
        let mut root_mask = vec![0u64; words];
        for &root in &roots {
            Self::set_bit(&mut root_mask, root);
        }

        let mut ctx_children = vec![0u64; words];
        let mut comma_events = 0u8;
        for op in &b.ops {
            if let OpKind::Ctx { member, .. } = op.kind {
                let children = &b.masks[op.mask_off as usize..][..words];
                ctx_children.or_words(children);
                comma_events |= if member { u8::MAX } else { 0 };
            }
        }
        let sub1_units = b.sub1_target.len();
        let mut sub1_hits = vec![[0u64; 256]; sub1_units.div_ceil(LANES)];
        for (i, bitmap) in b.sub1_bitmap.chunks_exact(4).enumerate() {
            for (byte, hit) in sub1_hits[i / LANES].iter_mut().enumerate() {
                if bitmap[byte >> 6] & (1u64 << (byte & 63)) != 0 {
                    *hit |= 0xffu64 << (8 * (i % LANES));
                }
            }
        }
        let sub1_targets = blockhit::pack_targets(&b.sub1_target);
        let num_units = b.num_bounds.iter().zip(b.num_fire.chunks_exact(words));
        let num_units = num_units.map(|(&(bounds, technique), fire)| (bounds, technique, fire));
        let numbers = NumberAutomaton::pool(num_units, words, numpool::MAX_ROWS);
        let token_automata = numbers
            .iter()
            .take_while(|a| a.technique() == NumberTechnique::Token)
            .count();
        // A member without a prefilter can match any record, so the
        // group then has none.
        let filters: Option<Vec<Prefilter>> = exprs.iter().map(|e| Prefilter::build(e)).collect();
        let prefilter = filters.map(|filters| PrefilterState {
            filters,
            live: true,
            checked: 0,
            rejected: 0,
        });

        let mut engine = Engine {
            exprs: exprs.iter().map(|&e| e.clone()).collect(),
            words,
            roots,
            root_mask,
            has_ctx: b.next_ctx > 0,
            ctx_children,
            comma_events,
            ops: b.ops,
            masks: b.masks,
            tables: b.tables,
            sdfa_state: b.sdfa_start.clone(),
            sdfa_off: b.sdfa_off,
            sdfa_start: b.sdfa_start,
            sdfa_fire: b.sdfa_fire,
            num_row: vec![0; numbers.len()],
            num_token: TokenState::RESET,
            token_automata,
            numbers,
            sub1_counters: vec![0; sub1_targets.len()],
            sub1_hits,
            sub1_targets,
            sub1_fire: b.sub1_fire,
            subn: BlockUnits::new(b.subn, b.subn_fire, words),
            separator_resets: false,
            prefilter,
            run: Run::default(),
            model: Vec::new(),
            stats: EngineStats::default(),
            latch: vec![0; words],
            flag_level: vec![0; b.next_ctx as usize],
            tracker: StreamTracker::new(),
        };
        engine.separator_resets = engine.separator_resets_units();
        // Static self-verification: every member's flat program must be
        // structurally well-formed before the unchecked hot loop ever
        // runs it. The full diagnostic pass (including cross-artifact
        // table checks) lives in `rfjson-verify`; this debug-only gate
        // catches compiler bugs at the point of creation.
        #[cfg(debug_assertions)]
        for (i, expr) in exprs.iter().enumerate() {
            let faults = engine.member_view(i).check();
            debug_assert!(
                faults.is_empty(),
                "Engine::compile produced an ill-formed program for `{expr}`: {faults:?}"
            );
        }
        engine
    }

    /// The source expression (of a group: its first member's).
    pub fn expr(&self) -> &Expr {
        &self.exprs[0]
    }

    /// The source expressions of the group's members, in member order.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Snapshots the flat node program for static verification — see
    /// [`ProgramView`]. Of a group, this is member 0.
    pub fn program_view(&self) -> ProgramView {
        self.member_view(0)
    }

    /// Snapshots member `i`'s part of the program as a single-root
    /// [`ProgramView`] of its own: nodes, masks and context slots are
    /// rebased to start at 0, the dense tables are the group's, and a
    /// unit the member reads through several leaves is listed once per
    /// leaf, in node order — exactly what compiling the member alone
    /// lists, so the verifier's passes apply unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a member index.
    pub fn member_view(&self, i: usize) -> ProgramView {
        let lo = if i == 0 { 0 } else { self.roots[i - 1] + 1 };
        let root = self.roots[i];
        let mine = |node: u32| (lo..=root).contains(&node);
        let words = ((root + 1 - lo) as usize).div_ceil(64);
        let mut masks = Vec::new();
        let mut rebase = |off: u32| -> u32 {
            let new_off = masks.len();
            masks.resize(new_off + words, 0);
            let mask = &self.masks[off as usize..off as usize + self.words];
            for bit in mask_bits(mask).into_iter().filter(|&b| mine(b)) {
                Self::set_bit(&mut masks[new_off..], bit - lo);
            }
            new_off as u32
        };
        let is_ctx = |op: &&Op| matches!(op.kind, OpKind::Ctx { .. });
        let ctx_base = self
            .ops
            .iter()
            .filter(|op| op.node < lo)
            .filter(is_ctx)
            .count() as u32;
        let ops: Vec<OpView> = self
            .ops
            .iter()
            .filter(|op| mine(op.node))
            .map(|op| OpView {
                node: op.node - lo,
                mask_off: rebase(op.mask_off),
                kind: match op.kind {
                    OpKind::And => OpKindView::And,
                    OpKind::Or => OpKindView::Or,
                    OpKind::Ctx {
                        clear_off,
                        ctx_id,
                        ctx_lo,
                        member,
                    } => OpKindView::Ctx {
                        clear_off: rebase(clear_off),
                        ctx_id: ctx_id - ctx_base,
                        ctx_lo: ctx_lo - ctx_base,
                        member,
                    },
                },
            })
            .collect();
        // `(member node, unit)` of every leaf of the member that reads a
        // unit of `fires`, in node order.
        let leaves = |fires: &[u64]| -> Vec<(u32, usize)> {
            let units = fires.chunks_exact(self.words).enumerate();
            let mut leaves: Vec<(u32, usize)> = units
                .flat_map(|(unit, fire)| mask_bits(fire).into_iter().map(move |n| (n, unit)))
                .filter(|&(n, _)| mine(n))
                .map(|(n, unit)| (n - lo, unit))
                .collect();
            leaves.sort_unstable();
            leaves
        };
        let nodes = |fires: &[u64]| -> Vec<u32> {
            let leaves = leaves(fires).into_iter();
            leaves.map(|(node, _)| node).collect()
        };
        let string_dfa = |(node, unit): (u32, usize)| DfaUnitView {
            table_off: self.sdfa_off[unit],
            start: self.sdfa_start[unit],
            node,
        };
        let num_fire: Vec<u64> = self
            .numbers
            .iter()
            .flat_map(|a| &a.view().units)
            .flat_map(|unit| unit.fire.iter().copied())
            .collect();
        let subn_nodes = |keep: fn(usize) -> bool| -> Vec<u32> {
            let kept = |&(_, unit): &(u32, usize)| keep(self.subn.units[unit].block_length());
            let leaves = leaves(&self.subn.fire).into_iter().filter(kept);
            leaves.map(|(node, _)| node).collect()
        };
        let mut sub1_nodes = nodes(&self.sub1_fire);
        sub1_nodes.extend(subn_nodes(|b| b == 1));
        sub1_nodes.sort_unstable();
        ProgramView {
            num_nodes: root + 1 - lo,
            words,
            root: root - lo,
            num_ctxs: self
                .ops
                .iter()
                .filter(|op| mine(op.node))
                .filter(is_ctx)
                .count() as u32,
            ops,
            tables: self.tables.clone(),
            string_dfas: leaves(&self.sdfa_fire)
                .into_iter()
                .map(string_dfa)
                .collect(),
            number_dfas: nodes(&num_fire),
            sub1_nodes,
            subp_nodes: subn_nodes(|b| (2..=8).contains(&b)),
            wide_nodes: subn_nodes(|b| b > 8),
            masks,
        }
    }

    /// The block-hit automata of the B ≥ 2 substring units, for static
    /// verification: the packable units in compile order, split over as
    /// many automata as the table cap demands (one, short of tables past
    /// [`blockhit::MAX_TABLE_WORDS`]; none without such units). Lane *i*
    /// of an automaton is its *i*-th unit.
    pub fn block_automaton_views(&self) -> impl Iterator<Item = &BlockAutomatonView> {
        self.subn.pools.iter().map(|pool| pool.automaton.view())
    }

    /// The substring units no automaton holds, in compile order: those
    /// whose run target is past [`blockhit::MAX_PACKED_TARGET`] and those
    /// whose table alone is past [`blockhit::MAX_TABLE_WORDS`]. The word
    /// kernel steps their reference matchers byte by byte.
    pub fn reference_lanes(&self) -> impl Iterator<Item = &SubstringMatcher> {
        let units = &self.subn.units;
        self.subn.refs.iter().map(move |&u| &units[u])
    }

    /// Banks of eight packed lanes the B = 1 substring units take.
    pub fn sub1_banks(&self) -> usize {
        self.sub1_targets.len()
    }

    /// The pooled number automata of the number-range units, for static
    /// verification: the distinct units in compile order, split over as
    /// many automata as the row cap demands (one, short of hundreds of
    /// unrelated ranges; none without number units).
    pub fn number_automaton_views(&self) -> impl Iterator<Item = &NumberAutomatonView> {
        self.numbers.iter().map(NumberAutomaton::view)
    }

    /// Number of nodes in the flat program (primitives + combinators).
    pub fn num_nodes(&self) -> usize {
        self.roots.last().map_or(0, |&root| root as usize + 1)
    }

    /// The primitive units the program instantiates, after
    /// deduplication.
    pub fn unit_counts(&self) -> UnitCounts {
        let mut counts = UnitCounts {
            string_dfas: self.sdfa_off.len(),
            number_dfas: self.number_automaton_views().map(|v| v.units.len()).sum(),
            sub1: self.sub1_fire.len() / self.words,
            ..UnitCounts::default()
        };
        for unit in &self.subn.units {
            counts.add_substring(unit.block_length());
        }
        counts
    }

    /// Total size in bytes of the tables the scan reads — its working
    /// set beside the input: the dense tables of the string DFA units, the
    /// byte hit table of the B = 1 units, the block-hit automaton and the
    /// number automata.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.tables[..])
            + std::mem::size_of_val(&self.sub1_hits[..])
            + self
                .block_automaton_views()
                .map(BlockAutomatonView::table_bytes)
                .sum::<usize>()
            + self
                .number_automaton_views()
                .map(NumberAutomatonView::table_bytes)
                .sum::<usize>()
    }

    #[inline]
    fn set_bit(v: &mut [u64], i: u32) {
        v[i as usize / 64] |= 1u64 << (i % 64);
    }

    /// Whether member `i` has accepted the record the record-at-a-time
    /// API is in — the per-member form of the accept signal
    /// [`Engine::on_byte`] returns.
    pub fn member_accepts(&self, i: usize) -> bool {
        self.model.get(i).is_some_and(CompiledFilter::accepts)
    }

    /// Advances the record-at-a-time API's model one cycle, every member
    /// alike; returns the current (latched) record-accept signal: some
    /// member has accepted. This is [`CompiledFilter::on_byte`], the
    /// oracle the stream path is held to, compiled here on the first call.
    pub fn on_byte(&mut self, byte: u8) -> bool {
        if self.model.is_empty() {
            self.model = self.exprs.iter().map(CompiledFilter::compile).collect();
        }
        let mut accept = false;
        for member in &mut self.model {
            accept |= member.on_byte(byte);
        }
        accept
    }

    /// Record-boundary reset of the record-at-a-time API's model.
    pub fn reset(&mut self) {
        for member in &mut self.model {
            member.reset();
        }
    }

    /// The kernel's record-boundary reset: latches, flag levels, unit
    /// state and string/depth state.
    fn clear(&mut self) {
        self.latch.fill(0);
        self.flag_level.fill(0);
        self.sdfa_state.copy_from_slice(&self.sdfa_start);
        self.num_row.fill(0);
        self.num_token = TokenState::RESET;
        self.sub1_counters.fill(0);
        self.subn.reset();
        self.tracker.reset();
    }

    /// Whether `\n` returns every unit to its reset state, whatever state
    /// it finds it in — what lets the stream path run the kernel across
    /// record boundaries without resetting a lane: `\n` is in no B = 1
    /// hit table (the run counter drops to 0), in no needle of a block
    /// unit (class 0 of its automaton: row 0, no hit; a reference lane's
    /// windows that hold it match no block, as its reset windows of NULs
    /// do not) and sends every string-DFA state to start. Number rows
    /// return to 0 at every token end anyway. A unit may still *fire* on
    /// the separator; the kernel runs the program on that before it reads
    /// the verdict. Where this fails, every record is a run of its own.
    fn separator_resets_units(&self) -> bool {
        const NL: usize = b'\n' as usize;
        let sub1 = self.sub1_hits.iter().all(|table| table[NL] == 0);
        let block = self.subn.units.iter().all(|u| !u.needle().contains(&b'\n'));
        let ends = self.sdfa_off.iter().skip(1).map(|&off| off as usize);
        let ends = ends.chain(std::iter::once(self.tables.len()));
        let mut units = self.sdfa_off.iter().zip(ends).zip(&self.sdfa_start);
        let string = units.all(|((&off, end), &start)| {
            let mut rows = self.tables[off as usize..end].chunks_exact(256);
            rows.all(|row| row[NL] == start)
        });
        sub1 && block && string
    }

    /// The root bits of the members, `words` u64s: member `i`'s root is
    /// the `i`-th lowest.
    pub(crate) fn root_mask(&self) -> &[u64] {
        &self.root_mask
    }

    /// Asks the live prefilter about one whole record, its line with the
    /// framing CR: whether every member's prefilter rejects it. Keeps the
    /// prefilter's books and ends probation; `false` once it is off.
    fn prefilter_rejects(&mut self, record: &[u8]) -> bool {
        let Some(pf) = self.prefilter.as_mut().filter(|pf| pf.live) else {
            return false;
        };
        pf.checked += 1;
        self.stats.prefilter_checked += 1;
        let rejected = pf.filters.iter().all(|filter| {
            let (rejected, probed) = filter.rejects_counting(record);
            self.stats.prefilter_probed_bytes += probed;
            rejected
        });
        if rejected {
            pf.rejected += 1;
            self.stats.prefilter_rejected += 1;
        }
        if pf.checked == Self::PREFILTER_PROBATION && pf.rejected == 0 {
            // The stream never benefits; stop paying the scan.
            pf.live = false;
            self.stats.prefilter_disabled += 1;
        }
        rejected
    }

    /// Records checked and rejected by the literal prefilter since
    /// compile: `(checked, rejected)`.
    pub fn prefilter_stats(&self) -> (u64, u64) {
        self.prefilter
            .as_ref()
            .map_or((0, 0), |pf| (pf.checked, pf.rejected))
    }

    /// Current adaptive state of the literal prefilter — see
    /// [`PrefilterStatus`] for what each state means for the reported
    /// hit rate.
    pub fn prefilter_status(&self) -> PrefilterStatus {
        match &self.prefilter {
            None => PrefilterStatus::Absent,
            Some(pf) if !pf.live => PrefilterStatus::Disabled,
            Some(pf) if pf.checked < Self::PREFILTER_PROBATION => PrefilterStatus::Probation,
            Some(_) => PrefilterStatus::Live,
        }
    }

    /// How many records the prefilter observes before deciding whether to
    /// stay enabled.
    pub const PREFILTER_PROBATION: u64 = 512;

    /// The stream path behind the engine's
    /// [`filter_stream_verdicts_into`](crate::backend::FilterBackend::filter_stream_verdicts_into):
    /// the word kernel, `\n` an event that ends a record. With the
    /// prefilter off and a separator that resets every unit, one kernel
    /// call over the whole buffer frames every line as its separator
    /// arrives ([`Framer::frame`]). Otherwise the call is framed first and
    /// the kernel runs once per run of records ([`Engine::gate`]): while
    /// the prefilter is live, it gates each record in front of the
    /// kernel; where some unit sees `\n`, every record is a run of its
    /// own. Either way every stream byte is counted once: as
    /// `prefilter_skipped` if its line was rejected, else as `block`.
    fn filter_stream_words(&mut self, stream: &[u8], limits: IngestLimits, out: &mut Vec<Verdict>) {
        let root = self.root_mask.clone();
        let accepts =
            move |l: &[u64]| Verdict::from_decision(root.iter().zip(l).any(|(r, l)| r & l != 0));
        let live = self.prefilter.as_ref().is_some_and(|pf| pf.live);
        if live || !self.separator_resets {
            let mut run = std::mem::take(&mut self.run);
            let base = out.len();
            let verdict = |out: &mut Vec<Verdict>, slot, l: &[u64]| out[base + slot] = accepts(l);
            frame_records(stream, limits, |line, skip| match skip {
                Some(reason) => out.push(Verdict::Skipped(reason)),
                None => {
                    out.push(Verdict::NoMatch);
                    self.gate(stream, line, &mut run, &mut |slot, l| verdict(out, slot, l));
                }
            });
            self.gate_end(stream, &mut run, &mut |slot, l| verdict(out, slot, l));
            self.run = run;
        } else {
            let mut framer = Framer::new(limits);
            let (mut line_start, mut scored) = (0, 0);
            self.scan_span(stream, 0, stream.len() + 1, |nl, l| {
                if nl > stream.len() {
                    return;
                }
                let line = &stream[line_start..nl];
                line_start = nl + 1;
                if let Some(end) = framer.frame(line, nl < stream.len()) {
                    out.push(match end.skip {
                        Some(reason) => Verdict::Skipped(reason),
                        None => {
                            scored += 1;
                            accepts(l)
                        }
                    });
                }
            });
            framer.flush();
            self.stats.records += scored;
            self.stats.bytes_block += stream.len() as u64;
        }
        crate::backend::FilterBackend::flush_telemetry(self);
    }

    /// Offers the next scored record of a call to the gated stream path.
    /// The live prefilter is asked about it: a rejected record is never
    /// scanned and gets no verdict call, and it ends the pending `run`,
    /// which the kernel scans now ([`Engine::scan_run`]); a passing one
    /// joins the run. Once probation turns the prefilter off, the rest of
    /// the call is one run — unless some unit sees `\n`
    /// ([`Engine::separator_resets_units`]): then each record is scanned
    /// as a run of its own. [`Engine::gate_end`] closes the call.
    ///
    /// A run starts at its first byte, from reset state; inside it, each
    /// line's `\n` returns latches, flag levels, depth, string state and
    /// every unit to reset. Bytes past its last separator are scanned and
    /// ignored. Every byte is counted once, by the line that owns it: a
    /// rejected line and its separator as `prefilter_skipped`, all else
    /// as `block`.
    pub(crate) fn gate(
        &mut self,
        stream: &[u8],
        line: RecordLine,
        run: &mut Run,
        verdict: &mut impl FnMut(usize, &[u64]),
    ) {
        self.stats.records += 1;
        if self.prefilter_rejects(&stream[line.start..line.end]) {
            self.scan_run(stream, &run.lines, verdict);
            run.lines.clear();
            run.skipped += (line.end + 1).min(stream.len()) - line.start;
            return;
        }
        run.lines.push(line);
        if !self.separator_resets {
            self.scan_run(stream, &run.lines, verdict);
            run.lines.clear();
        }
    }

    /// Scans the last run of a call on the gated stream path, counts the
    /// call's bytes and leaves `run` and the engine at reset state.
    pub(crate) fn gate_end(
        &mut self,
        stream: &[u8],
        run: &mut Run,
        verdict: &mut impl FnMut(usize, &[u64]),
    ) {
        self.scan_run(stream, &run.lines, verdict);
        self.clear();
        self.stats.bytes_prefilter_skipped += run.skipped as u64;
        self.stats.bytes_block += (stream.len() - run.skipped) as u64;
        run.lines.clear();
        run.skipped = 0;
    }

    /// One run of the gated stream path: the kernel from the run's first
    /// byte to the word that holds its last separator
    /// ([`Engine::scan_span`]), keeping only the verdicts of the run's own
    /// separators: `verdict(slot, latch)` gets the latch after each.
    fn scan_run(
        &mut self,
        stream: &[u8],
        run: &[RecordLine],
        verdict: &mut impl FnMut(usize, &[u64]),
    ) {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return;
        };
        let mut lines = run.iter().peekable();
        self.scan_span(stream, first.start, last.end + 1, |nl, l| {
            if let Some(line) = lines.next_if(|line| line.end == nl) {
                verdict(line.slot, l);
            }
        });
    }

    /// The kernel, from reset state, over the words of `stream[start..]`
    /// up to the one that holds byte `end − 1`, reporting each
    /// separator's position and the latch after it to `end_record`.
    /// `end` may be `stream.len() + 1`: past the last whole word, one
    /// word padded with separators stands in, whose first pad closes a
    /// trailing record — the `\n` the hardware would see — and whose
    /// other pads are not lines of the stream.
    fn scan_span(
        &mut self,
        stream: &[u8],
        start: usize,
        end: usize,
        mut end_record: impl FnMut(usize, &[u64]),
    ) {
        self.clear();
        let span = &stream[start..];
        let whole = span.len() & !(swar::WORD_BYTES - 1);
        let last = (end - start).next_multiple_of(swar::WORD_BYTES).min(whole);
        if last > 0 {
            self.scan_words(&span[..last], start, &mut end_record);
        }
        if end - start > whole {
            let mut pad = [b'\n'; swar::WORD_BYTES];
            pad[..span.len() - whole].copy_from_slice(&span[whole..]);
            self.scan_words(&pad, start + whole, &mut end_record);
        }
    }

    /// The [word kernel](self#the-word-kernel) over the whole words of
    /// `words`, instantiated for the program's width — the latch words
    /// and the banks of packed lanes — each a `u64` register where one
    /// word holds it, a vector of words past that.
    fn scan_words(&mut self, words: &[u8], base: usize, end_record: impl FnMut(usize, &[u64])) {
        let one_bank = self.sub1_counters.len() <= 1 && self.subn.one_bank();
        match (self.words == 1, one_bank) {
            (true, true) => self.kernel::<u64, u64>(words, base, end_record),
            (true, false) => self.kernel::<u64, Vec<u64>>(words, base, end_record),
            (false, _) => self.kernel::<Vec<u64>, Vec<u64>>(words, base, end_record),
        }
    }

    /// The word kernel's one body: per word, three passes that share the
    /// word and the per-position fire masks.
    ///
    /// * **Unit lanes.** Both substring unit kinds read the word's eight
    ///   hit masks per bank of eight lanes — `B = 1` from a byte table,
    ///   `B ≥ 2` from the transitions of each block-hit automaton, which
    ///   need no row walk when every block is at most two bytes
    ///   ([`BlockAutomaton::word_transitions`](blockhit::BlockAutomaton::word_transitions))
    ///   — and advance their run counters once per word and bank
    ///   ([`RunWord`](blockhit::RunWord)): only `c_out = sat127(r₇ + (c_in
    ///   & m₇))` is carried to the next word. Which lane fired on which
    ///   byte is worked out, chain-free, only in the word where the bound
    ///   `(c_in & h₀) + pop ≥ target` says one may. The string DFAs and
    ///   the reference lanes step over the eight bytes in a straight line.
    /// * **Numbers.** The word's eight class masks — number and anchor
    ///   bytes and the six structural classes — come from one read of
    ///   [`KERNEL_CLASSES`] per byte ([`swar::class_masks`]). One
    ///   [`NumberAutomaton::walk_word`] of each token automaton over the
    ///   word's number bytes and token ends, and of each anchored one over
    ///   those of the anchored tokens ([`WordTokens::anchored`]); a word
    ///   with nothing to walk is skipped whole. The carried
    ///   [`TokenState`] — a token open, it is anchored, the last byte was
    ///   an anchor byte — carries the token rule across words.
    /// * **Node program.** At the word's program points, in stream order:
    ///   unmasked opens, closes and member-ending commas, and separators.
    ///   Fires on other bytes accumulate; before a point (before an
    ///   open's `depth += 1`), and once more at the end of the call, one
    ///   run with `is_close = is_comma = false` applies them. Then the
    ///   point's own event: a fire on it, or a close or comma while a
    ///   context has a pending child. Opens and closes move `depth`
    ///   whether or not they are events. Depth is constant between
    ///   points and no context ends there, so the program is a monotone
    ///   closure and latches, flag levels, depth and every decision equal
    ///   those of one run per byte.
    ///
    /// Every `\n` is an event that ends a record: after the program ran
    /// on the separator's own fires, `end_record(base + position, latch)`
    /// takes the latch, whose root bits are the verdict, and the latches,
    /// flag levels, depth and — if the separator sat inside a string —
    /// the string state are cleared. The unit lanes are back at their
    /// reset state by themselves where [`Engine::separator_resets_units`]
    /// holds; where it does not, a run holds one record.
    ///
    /// `L` holds the latch, `C` the banks of the B = 1 lanes and of the
    /// first block-hit automaton (`u64` for one bank). The unit state
    /// lives in the engine — packed run counters, rows, DFA states; the
    /// latch and the lanes held in `L` and `C` are loaded on entry and
    /// stored on exit — so the padded last word of a span carries on
    /// where the span's whole words left off.
    fn kernel<L: Latch, C: Latch>(
        &mut self,
        words: &[u8],
        base: usize,
        mut end_record: impl FnMut(usize, &[u64]),
    ) {
        let width = self.words;
        let (mut in_string, mut pending_escape, mut depth) = self.tracker.state();
        let mut l = L::load(&self.latch);
        let ctx_children = L::load(&self.ctx_children);
        // The latch before a run of the program: its pending-before view.
        let mut p = L::zeroed(width);
        // The packed run counters and targets of the B = 1 lanes and the
        // first block-hit automaton's row, counters and targets.
        let mut c1 = C::load(&self.sub1_counters);
        let mut first = self.subn.load_first::<C>();
        let (t1, has_sub1) = (C::load(&self.sub1_targets), !self.sub1_hits.is_empty());
        let has_blocks = !self.subn.units.is_empty();
        let comma_events = self.comma_events;
        let mut token = self.num_token;
        let split = self.token_automata;
        let (has_token, has_anchored) = (split > 0, split < self.numbers.len());
        let has_ctx = self.has_ctx;
        // Fire masks of the current word by byte position, and the
        // positions that have one; all zero between words.
        let mut fire: [L; swar::WORD_BYTES] = std::array::from_fn(|_| L::zeroed(width));
        // Fires since the last program point, not yet run through the
        // program, and the one run that applies them at `depth`.
        let mut pending = L::zeroed(width);
        let settle = |flag_level: &mut [u32], mut l: L, p: &mut L, pending: &mut L, depth| {
            p.clone_from(&l);
            l.or_words(pending.words());
            pending.clear();
            let ev = ByteEvent {
                depth,
                is_close: false,
                is_comma: false,
            };
            run_program(&self.ops, &self.masks, flag_level, l, p, ev)
        };

        for (w, chunk) in words.chunks_exact(swar::WORD_BYTES).enumerate() {
            let bytes: &[u8; swar::WORD_BYTES] = chunk.try_into().expect("8-byte chunk");
            let mut fired = 0u8;

            // ---- unit lanes ----
            // As many banks as `t1` has words: one, for a `u64`.
            if has_sub1 {
                for k in 0..t1.words().len() {
                    let (c, targets) = (&mut c1.words_mut()[k], t1.words()[k]);
                    let table = &self.sub1_hits[k];
                    let hits = std::array::from_fn(|j| table[bytes[j] as usize]);
                    let lane_fire = &self.sub1_fire[k * LANES * width..];
                    step_lanes(hits, c, targets, lane_fire, width, &mut fire, &mut fired);
                }
            }
            if has_blocks {
                self.subn
                    .step_word(&mut first, *bytes, &mut fire, &mut fired);
            }
            for i in 0..self.sdfa_state.len() {
                let table = &self.tables[self.sdfa_off[i] as usize..];
                let mut s = self.sdfa_state[i];
                for (j, &byte) in bytes.iter().enumerate() {
                    s = table[(s & STATE_MASK) as usize * 256 + byte as usize];
                    if s & DENSE_ACCEPT_BIT != 0 {
                        fire[j].or_words(&self.sdfa_fire[i * width..]);
                        fired |= 1 << j;
                    }
                }
                self.sdfa_state[i] = s;
            }

            // ---- byte classes ----
            let [numbers, anchors, quotes, backslashes, opens, closes, commas, newlines] =
                swar::class_masks(bytes, &KERNEL_CLASSES);

            // ---- numbers ----
            let tokens = WordTokens::new(numbers, token.in_token);
            if has_token && !tokens.is_empty() {
                let token_units = self.numbers[..split].iter().zip(&mut self.num_row);
                for (a, row) in token_units {
                    fired |= a.walk_word(row, bytes, tokens, &mut fire);
                }
            }
            if has_anchored {
                let kept = tokens.anchored(anchors, token);
                if !kept.is_empty() {
                    let rows = self.num_row[split..].iter_mut();
                    for (a, row) in self.numbers[split..].iter().zip(rows) {
                        fired |= a.walk_word(row, bytes, kept, &mut fire);
                    }
                }
                token.anchored = kept.open_at_end();
                token.after_anchor = anchors >> 7 != 0;
            }
            token.in_token = tokens.open_at_end();

            // ---- node program, in event order ----
            let mut masked = if has_ctx {
                let (masked, next) = swar::string_mask_word(
                    quotes,
                    backslashes,
                    swar::StringState {
                        in_string,
                        pending_escape,
                    },
                );
                in_string = next.in_string;
                pending_escape = next.pending_escape;
                masked
            } else {
                0
            };
            // Context-free programs read no structural byte.
            let structure = if has_ctx { u8::MAX } else { 0 };
            let marks = (opens | closes | (commas & comma_events)) & structure;
            let mut structural = marks & !masked;
            let mut points = structural | newlines;
            let mut events = points | fired;
            while events != 0 {
                let j = events.trailing_zeros() as usize;
                events &= events - 1;
                let bit = 1u8 << j;
                if points & bit == 0 {
                    pending.or_words(fire[j].words());
                    continue;
                }
                if !pending.is_zero() {
                    l = settle(&mut self.flag_level, l, &mut p, &mut pending, depth);
                }
                let is_close = structural & closes & bit != 0;
                let is_comma = structural & commas & bit != 0;
                if structural & opens & bit != 0 {
                    depth += 1;
                }
                if !fire[j].is_zero() || (is_close || is_comma) && l.meets(ctx_children.words()) {
                    p.clone_from(&l);
                    l.or_words(fire[j].words());
                    let ev = ByteEvent {
                        depth,
                        is_close,
                        is_comma,
                    };
                    l = run_program(&self.ops, &self.masks, &mut self.flag_level, l, &p, ev);
                }
                if is_close {
                    depth = depth.saturating_sub(1);
                }
                if newlines & bit != 0 {
                    end_record(base + w * swar::WORD_BYTES + j, l.words());
                    l.clear();
                    self.flag_level.fill(0);
                    depth = 0;
                    if masked & bit != 0 {
                        // The separator sat inside an unterminated
                        // string: mask the rest of the word afresh.
                        let later = !(bit | (bit - 1));
                        let (rest, next) = swar::string_mask_word(
                            quotes & later,
                            backslashes & later,
                            swar::StringState::default(),
                        );
                        masked = (masked & !later) | rest;
                        in_string = next.in_string;
                        pending_escape = next.pending_escape;
                        structural = marks & !masked;
                        points = structural | newlines;
                        events = (points | fired) & later;
                    }
                }
            }
            if fired != 0 {
                for f in &mut fire {
                    f.clear();
                }
            }
        }
        if !pending.is_zero() {
            l = settle(&mut self.flag_level, l, &mut p, &mut pending, depth);
        }

        l.store(&mut self.latch);
        c1.store(&mut self.sub1_counters);
        self.subn.store_first(&first);
        self.num_token = token;
        self.tracker.restore(in_string, pending_escape, depth);
    }

    /// Drains the per-stream tallies.
    pub(crate) fn take_stats(&mut self) -> EngineStats {
        std::mem::take(&mut self.stats)
    }
}

impl crate::backend::FilterBackend for Engine {
    fn compile(expr: &Expr) -> Self {
        Engine::compile(expr)
    }

    fn name(&self) -> &'static str {
        "engine"
    }

    fn expr(&self) -> &Expr {
        Engine::expr(self)
    }

    #[inline]
    fn on_byte(&mut self, byte: u8) -> bool {
        Engine::on_byte(self, byte)
    }

    fn reset(&mut self) {
        Engine::reset(self);
    }

    /// The stream path: the [word kernel](self#the-word-kernel) over the
    /// buffer, the separator one more event, with a live literal
    /// prefilter gating records in front of it.
    fn filter_stream_verdicts_into(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut Vec<Verdict>,
    ) {
        self.filter_stream_words(stream, limits, out);
    }

    fn flush_telemetry(&mut self) {
        let s = self.take_stats();
        if s.is_empty() {
            return;
        }
        let m = crate::metrics::engine_metrics();
        m.records.add(s.records);
        m.bytes_block.add(s.bytes_block);
        m.bytes_prefilter_skipped.add(s.bytes_prefilter_skipped);
        m.prefilter_checked.add(s.prefilter_checked);
        m.prefilter_rejected.add(s.prefilter_rejected);
        m.prefilter_disabled.add(s.prefilter_disabled);
        m.prefilter_probed_bytes.add(s.prefilter_probed_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FilterBackend;
    use crate::evaluator::CompiledFilter;
    use rfjson_jsonstream::classify::{ByteClass, BYTE_CLASS};

    const LISTING1: &[u8] = br#"{"e":[{"v":"35.2","u":"far","n":"temperature"},{"v":"12","u":"per","n":"humidity"},{"v":"713","u":"per","n":"light"},{"v":"305.01","u":"per","n":"dust"},{"v":"20","u":"per","n":"airquality_raw"}],"bt":1422748800000}"#;

    fn ctx_temp() -> Expr {
        Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ])
    }

    #[test]
    fn kernel_classes_are_the_byte_predicates() {
        for b in 0u8..=255 {
            let class = KERNEL_CLASSES[b as usize];
            let want = [
                is_number_byte(b),
                is_anchor_byte(b),
                BYTE_CLASS[b as usize] == ByteClass::Quote,
                BYTE_CLASS[b as usize] == ByteClass::Backslash,
                BYTE_CLASS[b as usize] == ByteClass::Open,
                BYTE_CLASS[b as usize] == ByteClass::Close,
                BYTE_CLASS[b as usize] == ByteClass::Comma,
                b == b'\n',
            ];
            for (k, want) in want.into_iter().enumerate() {
                assert_eq!(class >> k & 1 != 0, want, "byte {b:#04x} class {k}");
            }
        }
    }

    #[test]
    fn structural_context_rejects_listing1() {
        let mut e = Engine::compile(&ctx_temp());
        assert_eq!(e.filter_stream(LISTING1), [false]);
    }

    #[test]
    fn structural_context_accepts_true_match() {
        let mut e = Engine::compile(&ctx_temp());
        let rec = br#"{"e":[{"v":"21.4","u":"far","n":"temperature"},{"v":"99","u":"per","n":"humidity"}],"bt":1}"#;
        assert_eq!(e.filter_stream(rec), [true]);
    }

    #[test]
    fn member_scope_key_value() {
        let e = Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        );
        let mut eng = Engine::compile(&e);
        let stream = b"{\"fare_amount\":11.50,\"tolls_amount\":0.00,\"total_amount\":12.00}\n\
            {\"fare_amount\":11.50,\"tolls_amount\":5.33,\"total_amount\":17.33}";
        assert_eq!(eng.filter_stream(stream), [false, true]);
    }

    #[test]
    fn filter_stream_per_record_decisions() {
        let mut e = Engine::compile(&Expr::int_range(1, 5));
        let stream = b"{\"a\":3}\n{\"a\":9}\n{\"a\":4}";
        assert_eq!(e.filter_stream(stream), vec![true, false, true]);
    }

    #[test]
    fn state_does_not_leak_across_records() {
        let mut e = Engine::compile(&Expr::and([
            Expr::substring(b"alpha", 2).unwrap(),
            Expr::substring(b"beta", 2).unwrap(),
        ]));
        let stream = b"{\"k\":\"alpha\"}\n{\"k\":\"beta\"}\n";
        assert_eq!(e.filter_stream(stream), vec![false, false]);
    }

    #[test]
    fn crlf_and_blank_line_framing_matches_filter() {
        let expr = Expr::int_range(1, 5);
        let mut e = Engine::compile(&expr);
        let mut f = CompiledFilter::compile(&expr);
        let stream = b"{\"a\":3}\r\n\r\n{\"a\":9}\n\n{\"a\":2}";
        assert_eq!(e.filter_stream(stream), f.filter_stream(stream));
        assert_eq!(e.filter_stream(stream), vec![true, false, true]);
    }

    // The broad differential zoo (every technique × adversarial records ×
    // generated corpora × proptests) lives in tests/engine_diff.rs; the
    // tests here cover engine-internal specifics only.

    #[test]
    fn program_view_is_well_formed_and_catches_mutations() {
        let e = Engine::compile(&ctx_temp());
        let view = e.program_view();
        assert!(view.check().is_empty(), "{:?}", view.check());
        assert_eq!(view.num_nodes, 3);
        assert_eq!(view.primitive_nodes(), vec![0, 1]);

        // Dropping a latch from the context's clear mask must be caught.
        let mut dropped = view.clone();
        let OpKindView::Ctx { clear_off, .. } = dropped.ops[0].kind else {
            panic!("root op is the context");
        };
        dropped.masks[clear_off as usize] &= !1u64;
        assert!(dropped
            .check()
            .iter()
            .any(|f| matches!(f, ProgramFault::LatchClearMismatch { .. })));

        // A root that is not the final node must be caught.
        let mut bad_root = view.clone();
        bad_root.root = 7;
        assert!(bad_root
            .check()
            .iter()
            .any(|f| matches!(f, ProgramFault::BadRoot { .. })));
    }

    /// The stream path against the byte-serial model, record by record:
    /// each record right after the one before it (the first after none),
    /// behind 0–7 pad spaces so that it starts at every word offset, and
    /// every odd pad without its separator, so the padded last word closes
    /// it. Gated by the live prefilter (a fresh engine per record) and
    /// with the prefilter off.
    fn assert_stream_seams(expr: &Expr, records: &[&[u8]]) {
        let fresh = Engine::compile(expr);
        let mut ungated = fresh.clone();
        if let Some(pf) = &mut ungated.prefilter {
            pf.live = false;
        }
        let mut model = CompiledFilter::compile(expr);
        let mut dirty: &[u8] = b"";
        for &record in records {
            let mut gated = fresh.clone();
            for pad in 0..swar::WORD_BYTES {
                let end: &[u8] = if pad.is_multiple_of(2) { b"\n" } else { b"" };
                let stream = [&b"       "[..pad], dirty, b"\n", record, end].concat();
                let limits = IngestLimits::UNLIMITED;
                let mut want = Vec::new();
                crate::backend::run_verdict_driver(&mut model, &stream, limits, &mut want);
                for engine in [&mut gated, &mut ungated] {
                    let got = engine.filter_stream_verdicts(&stream, limits);
                    assert_eq!(got, want, "`{expr}` pad {pad} on {record:?}");
                }
            }
            dirty = record;
        }
    }

    #[test]
    fn stream_path_matches_the_model_on_every_lane_layout() {
        // Every program runs the word kernel, whatever its shape: past
        // one latch word, past a bank of lanes of either kind, with run
        // targets past the packed counters and with a block pool past the
        // table cap. The limits only change the lane layout.
        let sub = |needle: &[u8], b| Expr::substring(needle, b).unwrap();
        let nine = |b| {
            Expr::Or(
                (0..9)
                    .map(|i| sub(format!("key{i}").as_bytes(), b))
                    .collect(),
            )
        };
        let long = [b'k'; 130];
        let needle: Vec<u8> = (0..400u32).map(|i| b'a' + (i * i % 23) as u8).collect();
        let leaves: Vec<Expr> = (0..70).map(|i| Expr::int_range(i, i + 1)).collect();
        let mut wide = b"{\"key8\":7,\"k\":\"".to_vec();
        wide.extend([&long[..], &needle, b"\"}"].concat());
        // Records straddling word boundaries, strings with escapes and
        // structural bytes.
        let records: [&[u8]; 7] = [
            LISTING1,
            br#"{"e":[{"v":"21.4","u":"far","n":"temperature"}],"bt":1}"#,
            br#"{"fare_amount":11.50,"tolls_amount":5.33,"total_amount":17.33}"#,
            br#"{"k":"a\"}b","tolls_amount":3.00}"#,
            &wide,
            b"{}",
            b"",
        ];
        // Latch words, B = 1 banks, banks per automaton, reference lanes.
        let layouts = [
            (Expr::Or(leaves), (2, 0, vec![], 0)),
            (nine(1), (1, 2, vec![], 0)),
            (nine(2), (1, 0, vec![2], 0)),
            (sub(&long, 1), (1, 0, vec![], 1)),
            (sub(&long, 2), (1, 0, vec![], 1)),
            (sub(&needle, 300), (1, 0, vec![], 1)),
            (ctx_temp(), (1, 1, vec![], 0)),
            (sub(b"favourites_count", 9), (1, 0, vec![1], 0)),
            (
                Expr::context_scoped(
                    StructScope::Member,
                    [
                        sub(b"tolls_amount", 2),
                        Expr::float_range("2.50", "18.00").unwrap(),
                    ],
                ),
                (1, 0, vec![1], 0),
            ),
        ];
        for (expr, layout) in layouts {
            let engine = Engine::compile(&expr);
            let banks = engine.block_automaton_views().map(|v| v.banks).collect();
            let refs = engine.reference_lanes().count();
            assert_eq!((engine.words, engine.sub1_banks(), banks, refs), layout);
            assert_stream_seams(&expr, &records);
        }
    }

    #[test]
    fn only_units_the_separator_resets_run_across_it() {
        let blind = [
            ctx_temp(),
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::dfa_string(b"dust").unwrap(),
            Expr::window(b"light").unwrap(),
        ];
        for expr in &blind {
            assert!(Engine::compile(expr).separator_resets, "`{expr}`");
        }
        let sees = [
            Expr::substring(b"a\nb", 1).unwrap(),
            Expr::substring(b"ab\ncd", 2).unwrap(),
            Expr::dfa_string(b"x\ny").unwrap(),
        ];
        for expr in &sees {
            assert!(!Engine::compile(expr).separator_resets, "`{expr}`");
        }
    }

    #[test]
    fn prefilter_rejects_and_reports_stats() {
        let mut e = Engine::compile(&ctx_temp());
        assert!(!e.accepts_record(br#"{"nothing":"here"}"#));
        assert!(e.accepts_record(br#"{"e":[{"v":"21.4","n":"temperature"}],"bt":1}"#));
        let (checked, rejected) = e.prefilter_stats();
        assert_eq!(checked, 0, "accepts_record is byte-serial, no prefilter");
        assert_eq!(rejected, 0);

        // The stream path asks the prefilter about every record.
        let stream =
            b"{\"nothing\":1}\n{\"e\":[{\"v\":\"21.4\",\"n\":\"temperature\"}],\"bt\":1}\n";
        assert_eq!(e.filter_stream(stream), vec![false, true]);
        let (checked, rejected) = e.prefilter_stats();
        assert_eq!(checked, 2);
        assert_eq!(rejected, 1, "the needle-free record is proven NoMatch");
    }

    #[test]
    fn prefilter_disables_on_unselective_streams() {
        let mut e = Engine::compile(&Expr::substring(b"a", 1).unwrap());
        let hit = b"{\"a\":1}\n".repeat(Engine::PREFILTER_PROBATION as usize + 10);
        let n = e.filter_stream(&hit).len();
        assert_eq!(n, Engine::PREFILTER_PROBATION as usize + 10);
        let (checked, rejected) = e.prefilter_stats();
        assert_eq!(rejected, 0);
        assert_eq!(
            checked,
            Engine::PREFILTER_PROBATION,
            "prefilter stops paying for itself after probation"
        );
    }

    #[test]
    fn node_and_table_accounting() {
        let e = Engine::compile(&ctx_temp());
        assert_eq!(e.num_nodes(), 3, "two primitives + one context");
        let numbers: usize = e
            .number_automaton_views()
            .map(NumberAutomatonView::table_bytes)
            .sum();
        assert!(numbers > 0, "number automaton is table-backed");
        assert_eq!(
            e.table_bytes(),
            256 * 8 + numbers,
            "plus the byte hit table"
        );
        // Every table the scan reads counts: a B = 1 unit alone,
        let sub1 = Engine::compile(&Expr::substring(b"temperature", 1).unwrap());
        assert_eq!(sub1.table_bytes(), 256 * 8);
        // a block-hit automaton, a string DFA.
        let sub2 = Engine::compile(&Expr::substring(b"tolls_amount", 2).unwrap());
        let view = sub2.block_automaton_views().next().expect("a B = 2 unit");
        assert_eq!(sub2.table_bytes(), view.table_bytes());
        assert!(view.table_bytes() > 256 + view.hits.len() * 8);
        let dfa = Engine::compile(&Expr::dfa_string(b"dust").unwrap());
        assert_eq!(dfa.table_bytes(), 5 * 256 * 2);
        // QS1's five ranges are one automaton of 66 rows, where their
        // dense tables took 43 008 bytes.
        let qs1 = crate::query::query_to_exprs(&rfjson_riotbench::Query::qs1(), 1).unwrap();
        let qs1 = Engine::compile(&qs1);
        assert_eq!(qs1.unit_counts().number_dfas, 5);
        assert!(qs1.table_bytes() < 43_008 / 4, "{}", qs1.table_bytes());
    }

    #[test]
    fn many_nodes_cross_word_boundary() {
        // > 64 nodes forces multi-word bitsets through every mask path.
        let leaves: Vec<Expr> = (0..70).map(|i| Expr::int_range(i, i + 1)).collect();
        let expr = Expr::Or(leaves);
        assert_stream_seams(&expr, &[&b"{\"a\":3}"[..], b"{\"a\":69}", b"{\"a\":200}"]);
    }

    #[test]
    fn many_nodes_with_contexts_cross_word_boundary() {
        // > 64 nodes *with contexts* drives the multi-word Ctx arm
        // (pending_before word loop, clear-mask slicing, flag resets),
        // against the model at every word offset.
        let pairs: Vec<Expr> = (0..30)
            .map(|i| {
                let key = format!("k{i}");
                Expr::context_scoped(
                    if i % 2 == 0 {
                        StructScope::Object
                    } else {
                        StructScope::Member
                    },
                    [
                        Expr::substring(key.as_bytes(), 1).unwrap(),
                        Expr::int_range(i, i + 10),
                    ],
                )
            })
            .collect();
        let expr = Expr::Or(pairs); // 30 × 3 + 1 = 91 nodes
        assert!(Engine::compile(&expr).num_nodes() > 64);
        let records: Vec<&[u8]> = vec![
            br#"{"k5":7,"k6":99}"#,
            br#"{"e":[{"k12":13},{"k12":99}],"x":1}"#,
            br#"{"k29":"39","other":[1,2
,3]}"#,
            br#"{"nothing":true}"#,
            b"}{,\"k1\":2,",
        ];
        assert_stream_seams(&expr, &records);
    }
}
