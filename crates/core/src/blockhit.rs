//! The shared kernel of the B ≥ 2 approximate substring units: one
//! **block-hit automaton** for all of them plus **packed lane counters**.
//!
//! A unit `sB(needle)` fires after `N − B + 1` consecutive stream windows
//! that each equal *some* B-byte block of the needle. Stepping each unit
//! on its own costs a window compare against every block per unit and
//! byte. Here the blocks of every unit — whatever their lengths — are
//! pooled into one Mealy automaton over compressed byte classes, in the
//! way Mitra et al. compile the common pieces of all profiles into one
//! shared automaton:
//!
//! * a **state** is the longest suffix of the stream that is a proper
//!   prefix of some block (Aho–Corasick with the terminal nodes folded
//!   into their failure targets); for B = 2 that is just the class of
//!   the previous byte;
//! * a **transition** `(state, class)` yields the next state and a **hit
//!   mask**: `0xFF` in lane *i* iff the last `B_i` bytes are a block of
//!   unit *i* (eight lanes per `u64` bank, banks side by side).
//!
//! The zero-initialised hardware window is the start state: needles are
//! NUL-free, so no block matches before B real bytes arrived, and a NUL in
//! the stream is just a byte of no block.
//!
//! When every pooled block is at most two bytes long (`b = 2`, the
//! paper's evaluated case) the automaton is **definite**
//! ([`BlockAutomatonView::definite`]): the state after a byte is that
//! byte's class or the start, whatever state came before, so
//! every row's `next` equals row 0's and the row before byte *j* of a
//! word is `next[class(b_{j−1})]`. [`BlockAutomaton::word_transitions`]
//! then finds a word's eight transitions without walking the rows; pools
//! with longer blocks keep the walk.
//!
//! # Run counters, a word at a time
//!
//! The run counters live one byte per lane, for these units and the
//! B = 1 units alike: hit lanes count up and saturate at 127, miss lanes
//! reset, and a unit fires while its counter is at or past its target.
//! Stepped byte by byte that is one dependent update per stream byte.
//! [`RunWord`] advances them a word at a time instead. From the word's
//! eight hit masks `h₀..h₇` alone it computes
//!
//! * `m_j = h₀ & … & h_j`, the lanes that hit on every byte up to *j*;
//! * `r_j = (r_{j−1} + 1) & h_j`, `r_{−1} = 0`: the run since the last
//!   miss, counted from 0 inside the word;
//! * `pop`, the hits per lane.
//!
//! A counter entering the word at `c_in` stands at `c_j = r_j + (c_in &
//! m_j)` after byte *j*: the run inside the word, plus the entry count if
//! that run reaches back to the word's start. With `c_in ≤ 127` and `r_j
//! ≤ 8` that is at most 135, so it fits the lane unsaturated, and `c_j ≥
//! T` for a target `T ≤ 127` is the borrow-free `(c | ((c | 0x80) − T)) &
//! 0x80` — a lane past 127 fires through its own top bit. Only `c_out =
//! sat127(r₇ + (c_in & m₇))` is carried to the next word, one saturation
//! per word; saturating earlier changes no comparison against a target
//! ≤ [`MAX_PACKED_TARGET`].
//!
//! Which byte fired is rarely needed, so a word is resolved position by
//! position only when the bound `(c_in & h₀) + pop ≥ T` says some lane
//! may fire. It is conservative: where `m_j` is set, `h₀` is too and
//! `r_j ≤ pop`; where it is not, `c_j = r_j ≤ pop`.
//!
//! [`SubstringMatcher`] stays the reference the property tests hold the
//! word form to (`tests/block_automaton_equiv.rs`).
//! [`BlockAutomaton::step`] walks the same rows a byte at a time, as the
//! prefilter's probes do.
//!
//! # Lane layout
//!
//! An engine gives its units as many banks as they need. The units of a
//! program are pooled in order into automata, a new one started where
//! the next unit would take the table past [`MAX_TABLE_WORDS`]. A unit
//! that cannot be packed — a run target past [`MAX_PACKED_TARGET`], or a
//! table of its own past the cap — is a **reference lane**: the word
//! kernel steps its [`SubstringMatcher`] byte by byte in its unit pass,
//! as it steps the string DFAs.

use crate::engine::Latch;
use crate::primitive::{FireFilter, SubstringMatcher};

/// `0x01` in every lane.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every lane.
const LANE_HI: u64 = 0x8080_8080_8080_8080;

/// Lanes per `u64` bank.
pub const LANES: usize = 8;
/// Largest run target the packed counters compare exactly: they saturate
/// at 127, so `counter ≥ target` keeps its serial meaning up to 126. A
/// unit past it is a reference lane.
pub const MAX_PACKED_TARGET: u32 = 126;
/// Cap on `states × classes × banks`, the hit-table size in words
/// (512 KiB): a pool that would outgrow it starts another automaton.
pub const MAX_TABLE_WORDS: usize = 1 << 16;

/// Bytes per word of [`RunWord`]: the word kernel's SWAR word.
pub const WORD: usize = rfjson_jsonstream::swar::WORD_BYTES;

/// `0x80` in every lane of `c` (each ≤ 135) at or past its byte of
/// `targets` (each ≤ 127): a lane past 127 through its own top bit, the
/// others by a subtraction that cannot borrow.
#[inline]
fn reached(c: u64, targets: u64) -> u64 {
    (c | ((c | LANE_HI) - targets)) & LANE_HI
}

/// One bank of packed run counters over one word, from the word's eight
/// hit masks alone (`0xFF` in a lane that hit on that byte, `0x00` in one
/// that missed) — the counter algebra of the [module docs](self#run-counters-a-word-at-a-time).
/// Nothing here reads the counters the word is entered with: they meet
/// only in [`RunWord::carry`], and in the bound and the fires.
#[derive(Debug, Clone, Copy)]
pub struct RunWord {
    hits: [u64; WORD],
    /// `m₇`: the lanes that hit on every byte.
    all: u64,
    /// `r₇`: the run at the last byte, counted from 0 inside the word.
    tail: u64,
    /// Hits per lane.
    pop: u64,
}

impl RunWord {
    /// Reduces the hit masks of bytes `0..8`.
    #[inline]
    #[must_use]
    pub fn new(hits: [u64; WORD]) -> RunWord {
        let (mut all, mut tail, mut pop) = (!0, 0, 0);
        for h in hits {
            all &= h;
            tail = (tail + LANE_LO) & h;
            pop += h & LANE_LO;
        }
        RunWord {
            hits,
            all,
            tail,
            pop,
        }
    }

    /// The counters after the word, from the counters `c_in` before it:
    /// `sat127(r₇ + (c_in & m₇))`.
    #[inline]
    #[must_use]
    pub fn carry(&self, c_in: u64) -> u64 {
        let c = self.tail + (c_in & self.all);
        let over = c & LANE_HI;
        (c | (over - (over >> 7))) & !LANE_HI
    }

    /// Whether some lane may reach its byte of `targets` inside the word:
    /// `(c_in & h₀) + pop ≥ target`, never `false` where
    /// [`RunWord::fires`] has a bit set.
    #[inline]
    #[must_use]
    pub fn may_fire(&self, c_in: u64, targets: u64) -> bool {
        reached((c_in & self.hits[0]) + self.pop, targets) != 0
    }

    /// Per byte position, `0x80` in every lane at or past its byte of
    /// `targets` after that byte — exactly what stepping the counters
    /// byte by byte compares, each position `c_j = r_j + (c_in & m_j)`
    /// without the position before it.
    #[must_use]
    pub fn fires(&self, c_in: u64, targets: u64) -> [u64; WORD] {
        let (mut m, mut r, mut fires) = (!0, 0, [0; WORD]);
        for (f, &h) in fires.iter_mut().zip(&self.hits) {
            m &= h;
            r = (r + LANE_LO) & h;
            *f = reached(r + (c_in & m), targets);
        }
        fires
    }
}

/// The lane indices of `0x80` fire bits ([`RunWord::fires`]), in
/// ascending order.
#[inline]
pub fn fired_lanes(mut fires: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (fires != 0).then(|| {
            let lane = fires.trailing_zeros() as usize / 8;
            fires &= fires - 1;
            lane
        })
    })
}

/// Packs run targets one byte per lane, eight per bank. Unused lanes
/// hold 127, which their never-hit counters cannot reach; targets above
/// [`MAX_PACKED_TARGET`] do not fit and make a unit a reference lane.
#[must_use]
pub fn pack_targets(targets: &[u32]) -> Vec<u64> {
    let mut packed = vec![LANE_HI - LANE_LO; targets.len().div_ceil(LANES)];
    for (i, &t) in targets.iter().enumerate() {
        let shift = 8 * (i % LANES);
        packed[i / LANES] &= !(0xff << shift);
        packed[i / LANES] |= u64::from(t.min(127)) << shift;
    }
    packed
}

/// One word of a bank of packed run counters `c` with their packed
/// `targets`, from the word's hit masks by byte position ([`RunWord`]).
/// Only where the bound says some lane may fire is the word resolved:
/// each firing lane's latch bits — `words` words at `lane × words` of
/// `lane_fire` — go into `fire` at its position, and the position into
/// `fired`.
#[allow(clippy::inline_always)] // the word kernel's loop: measured, ~2 %
#[inline(always)]
pub(crate) fn step_lanes<L: Latch>(
    hits: [u64; WORD],
    c: &mut u64,
    targets: u64,
    lane_fire: &[u64],
    words: usize,
    fire: &mut [L; WORD],
    fired: &mut u8,
) {
    let run = RunWord::new(hits);
    if run.may_fire(*c, targets) {
        for (j, f) in run.fires(*c, targets).into_iter().enumerate() {
            for lane in fired_lanes(f) {
                fire[j].or_words(&lane_fire[lane * words..]);
                *fired |= 1 << j;
            }
        }
    }
    *c = run.carry(*c);
}

/// One pooled unit of a [`BlockAutomatonView`]: the source of lane *i*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockUnitView {
    /// The unit's search string.
    pub needle: Vec<u8>,
    /// Its block length B.
    pub block_len: usize,
}

/// The tables of a [`BlockAutomaton`], readable by the static verifier
/// (`rfjson-verify`, codes `B0xx`) beside
/// [`ProgramView`](crate::engine::ProgramView). A transition is indexed
/// `row + class`, where a row is a state number premultiplied by
/// `num_classes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAutomatonView {
    /// Byte → class; class 0 is every byte of no block.
    pub classes: [u8; 256],
    /// Number of byte classes (row length).
    pub num_classes: usize,
    /// `u64` hit words per transition (`units.len().div_ceil(8)`).
    pub banks: usize,
    /// Next row per transition (`states × num_classes` entries).
    pub next: Vec<u16>,
    /// Hit mask per transition, `banks` words each.
    pub hits: Vec<u64>,
    /// Run target `N − B + 1` per unit.
    pub targets: Vec<u32>,
    /// The same targets packed one byte per lane ([`pack_targets`]).
    pub targets_packed: Vec<u64>,
    /// The pooled units, in lane order.
    pub units: Vec<BlockUnitView>,
    /// Set exactly when every pooled block is at most two bytes long;
    /// then every row's `next` equals row 0's, so the row before a byte
    /// is `next[class]` of the byte before it, from whatever row.
    pub definite: bool,
}

impl BlockAutomatonView {
    /// Size in bytes of the tables a walk reads: class map, `next`, `hits`.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.classes)
            + std::mem::size_of_val(&self.next[..])
            + std::mem::size_of_val(&self.hits[..])
    }
}

/// The pooled block-hit automaton of a set of substring units — see the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use rfjson_core::blockhit::BlockAutomaton;
/// use rfjson_core::primitive::SubstringMatcher;
///
/// let unit = SubstringMatcher::new(b"tolls_amount", 2)?;
/// let automaton = BlockAutomaton::build([&unit]).expect("a few hundred table words");
/// // Lane 0 hits while the last two bytes are a block of the needle; the
/// // unit fires once its run of hits reaches its target, N − B + 1.
/// let (mut row, mut run) = (0u16, 0);
/// let mut fired = false;
/// for &byte in br#"{"tolls_amount":5.00}"# {
///     let hit = automaton.step(&mut row, byte)[0] & 0xff != 0;
///     run = if hit { run + 1 } else { 0 };
///     fired |= run >= automaton.view().targets[0];
/// }
/// assert!(fired);
/// # Ok::<(), rfjson_core::primitive::SubstringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockAutomaton {
    t: BlockAutomatonView,
}

impl BlockAutomaton {
    /// Pools the blocks of `units` (lane *i* = the *i*-th unit) into one
    /// automaton. Returns `None` when the hit table would exceed
    /// [`MAX_TABLE_WORDS`].
    pub fn build<'a>(
        units: impl IntoIterator<Item = &'a SubstringMatcher>,
    ) -> Option<BlockAutomaton> {
        let units: Vec<&SubstringMatcher> = units.into_iter().collect();
        let banks = units.len().div_ceil(LANES);

        // Every needle byte gets a class of its own, in byte order.
        let mut classes = [0u8; 256];
        for unit in &units {
            for &x in unit.needle() {
                classes[x as usize] = 1;
            }
        }
        let mut ncls = 1usize;
        for class in classes.iter_mut().filter(|c| **c != 0) {
            *class = ncls as u8; // ≤ 255: needles are NUL-free
            ncls += 1;
        }

        // Trie of all blocks; `out` holds, per node, the lanes of the
        // units with a block ending exactly there.
        let mut kids: Vec<Vec<(u8, u32)>> = vec![Vec::new()];
        let mut out = vec![0u64; banks];
        for (lane, unit) in units.iter().enumerate() {
            for block in unit.blocks() {
                let mut n = 0usize;
                for &x in block {
                    let class = classes[x as usize];
                    n = match kids[n].iter().find(|k| k.0 == class) {
                        Some(&(_, kid)) => kid as usize,
                        None => {
                            // A table row has a column for each edge of
                            // its state, so more nodes than table words
                            // cannot fit.
                            if kids.len() > MAX_TABLE_WORDS {
                                return None;
                            }
                            let kid = kids.len();
                            kids[n].push((class, kid as u32));
                            kids.push(Vec::new());
                            out.extend(std::iter::repeat_n(0, banks));
                            kid
                        }
                    };
                }
                out[n * banks + lane / LANES] |= 0xff << (8 * (lane % LANES));
            }
        }
        let kid = |n: usize, class: u8| kids[n].iter().find(|k| k.0 == class).map(|k| k.1);

        // Breadth-first failure links; a node inherits the blocks that
        // are proper suffixes of its string.
        let mut order = vec![0u32];
        let mut fail = vec![0u32; kids.len()];
        let mut i = 0;
        while i < order.len() {
            let p = order[i] as usize;
            i += 1;
            for &(class, k) in &kids[p] {
                let mut f = p;
                fail[k as usize] = loop {
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f] as usize;
                    if let Some(x) = kid(f, class) {
                        break x;
                    }
                };
                for bank in 0..banks {
                    out[k as usize * banks + bank] |= out[fail[k as usize] as usize * banks + bank];
                }
                order.push(k);
            }
        }

        // States are the nodes with children (proper prefixes); a leaf
        // steps exactly like its failure target and folds into it.
        let mut state_of = vec![u32::MAX; kids.len()];
        let mut eff = vec![0u32; kids.len()];
        let mut states: Vec<u32> = Vec::new();
        for &n in &order {
            if n == 0 || !kids[n as usize].is_empty() {
                state_of[n as usize] = states.len() as u32;
                eff[n as usize] = n;
                states.push(n);
            } else {
                eff[n as usize] = eff[fail[n as usize] as usize];
            }
        }
        let entries = states.len() * ncls;
        if entries * banks.max(1) > MAX_TABLE_WORDS {
            return None;
        }

        // Dense rows in breadth-first order: a missing edge takes the
        // (shallower, already filled) failure state's transition.
        let mut goto = vec![0u32; entries];
        for (s, &n) in states.iter().enumerate() {
            let fallback = state_of[eff[fail[n as usize] as usize] as usize] as usize;
            for class in 0..ncls {
                goto[s * ncls + class] = match kid(n as usize, class as u8) {
                    Some(k) => k,
                    None if n == 0 => 0,
                    None => goto[fallback * ncls + class],
                };
            }
        }
        let next = goto
            .iter()
            .map(|&t| (state_of[eff[t as usize] as usize] as usize * ncls) as u16)
            .collect();
        let hits = goto
            .iter()
            .flat_map(|&t| &out[t as usize * banks..(t as usize + 1) * banks])
            .copied()
            .collect();
        let targets: Vec<u32> = units.iter().map(|u| u.target()).collect();
        Some(BlockAutomaton {
            t: BlockAutomatonView {
                classes,
                num_classes: ncls,
                banks,
                next,
                hits,
                targets_packed: pack_targets(&targets),
                targets,
                units: units
                    .iter()
                    .map(|u| BlockUnitView {
                        needle: u.needle().to_vec(),
                        block_len: u.block_length(),
                    })
                    .collect(),
                definite: units.iter().all(|u| u.block_length() <= 2),
            },
        })
    }

    /// The tables, for static verification.
    #[must_use]
    pub fn view(&self) -> &BlockAutomatonView {
        &self.t
    }

    /// Advances `row` (0 = record start) by one byte and returns the
    /// transition's hit mask, one word per bank.
    #[inline]
    pub fn step(&self, row: &mut u16, byte: u8) -> &[u64] {
        let idx = *row as usize + self.t.classes[byte as usize] as usize;
        *row = self.t.next[idx];
        &self.t.hits[idx * self.t.banks..][..self.t.banks]
    }

    /// The transitions the eight bytes of a word take, advancing `row`
    /// past them. On a [definite](BlockAutomatonView::definite)
    /// automaton each byte's row is `next` of the byte before it, so the
    /// lookups carry nothing from byte to byte; otherwise they walk the
    /// rows.
    #[allow(clippy::inline_always)] // in the word kernel's loop: measured, ~3 %
    #[inline(always)]
    #[must_use]
    pub fn word_transitions(&self, row: &mut u16, bytes: &[u8; WORD]) -> [usize; WORD] {
        let t = &self.t;
        let mut steps = [0; WORD];
        let mut r = *row as usize;
        if t.definite {
            for (step, &byte) in steps.iter_mut().zip(bytes) {
                let class = t.classes[byte as usize] as usize;
                *step = r + class;
                r = t.next[class] as usize;
            }
        } else {
            for (step, &byte) in steps.iter_mut().zip(bytes) {
                *step = r + t.classes[byte as usize] as usize;
                r = t.next[*step] as usize;
            }
        }
        *row = r as u16;
        steps
    }

    /// Bank `bank`'s hit masks of the transitions of a word
    /// ([`BlockAutomaton::word_transitions`]).
    #[allow(clippy::inline_always)] // in the word kernel's loop
    #[inline(always)]
    #[must_use]
    pub fn word_hits(&self, steps: &[usize; WORD], bank: usize) -> [u64; WORD] {
        let t = &self.t;
        std::array::from_fn(|j| t.hits[steps[j] * t.banks + bank])
    }
}

/// One automaton of a split pool, with the fire masks of its lanes and
/// their per-stream state.
#[derive(Debug, Clone)]
pub(crate) struct Pool {
    pub(crate) automaton: BlockAutomaton,
    /// Fire mask of each lane, `words` words each.
    pub(crate) fire: Vec<u64>,
    pub(crate) row: u16,
    /// Run counters, packed one byte per lane, a word per bank.
    pub(crate) counters: Vec<u64>,
}

impl Pool {
    /// The automaton's part of [`BlockUnits::step_word`], from `row` and
    /// the packed `counters` and `targets`, a word per bank.
    #[allow(clippy::inline_always)] // in the word kernel's loop
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // the kernel's state, inlined
    fn step_word<L: Latch, C: Latch>(
        &self,
        row: &mut u16,
        counters: &mut C,
        targets: &C,
        words: usize,
        bytes: [u8; WORD],
        fire: &mut [L; WORD],
        fired: &mut u8,
    ) {
        let a = &self.automaton;
        let steps = a.word_transitions(row, &bytes);
        // As many banks as `targets` has words: one, for a `u64`.
        for bank in 0..targets.words().len() {
            let (c, targets) = (&mut counters.words_mut()[bank], targets.words()[bank]);
            let lane_fire = &self.fire[bank * LANES * words..];
            let hits = a.word_hits(&steps, bank);
            step_lanes(hits, c, targets, lane_fire, words, fire, fired);
        }
    }
}

/// The B ≥ 2 substring units of one program — and the B = 1 units whose
/// run target is past [`MAX_PACKED_TARGET`] — with their per-stream
/// state. The packable units are pooled in order into automata, another
/// one started whenever the next unit would take the current one past
/// [`MAX_TABLE_WORDS`], the way [`NumberAutomaton::pool`](crate::numpool::NumberAutomaton::pool)
/// splits at its row cap. A unit that cannot be packed — its run target
/// is past [`MAX_PACKED_TARGET`], or its own table alone is past the cap —
/// is a **reference lane**: its [`SubstringMatcher`] steps byte by byte.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockUnits {
    /// Every unit, in unit order; the reference lanes step theirs.
    pub(crate) units: Vec<SubstringMatcher>,
    /// Fire mask of each unit, `words` words each.
    pub(crate) fire: Vec<u64>,
    words: usize,
    /// The automata of the split pool, in unit order.
    pub(crate) pools: Vec<Pool>,
    /// The units of the reference lanes, ascending.
    pub(crate) refs: Vec<usize>,
}

impl BlockUnits {
    /// Lays out `matchers`, whose fire masks of `words` words each are
    /// `fire`, as lanes of automata and reference lanes.
    pub(crate) fn new(units: Vec<SubstringMatcher>, fire: Vec<u64>, words: usize) -> BlockUnits {
        let mut pools: Vec<(BlockAutomaton, Vec<usize>)> = Vec::new();
        let mut refs = Vec::new();
        for (u, m) in units.iter().enumerate() {
            if m.target() > MAX_PACKED_TARGET {
                refs.push(u);
                continue;
            }
            let grown = pools.last().and_then(|(_, lanes)| {
                let lanes = lanes.iter().map(|&i| &units[i]);
                BlockAutomaton::build(lanes.chain([m]))
            });
            match (grown, BlockAutomaton::build([m])) {
                (Some(grown), _) => {
                    let last = pools.last_mut().expect("the pool that grew");
                    last.0 = grown;
                    last.1.push(u);
                }
                (None, Some(alone)) => pools.push((alone, vec![u])),
                (None, None) => refs.push(u),
            }
        }
        let pools = pools
            .into_iter()
            .map(|(automaton, units)| Pool {
                fire: units
                    .iter()
                    .flat_map(|&u| &fire[u * words..(u + 1) * words])
                    .copied()
                    .collect(),
                counters: vec![0; automaton.t.banks],
                row: 0,
                automaton,
            })
            .collect();
        BlockUnits {
            units,
            fire,
            words,
            pools,
            refs,
        }
    }

    /// Whether there is at most one automaton, of at most one bank: what
    /// the word kernel's one-word instantiation holds in a register.
    pub(crate) fn one_bank(&self) -> bool {
        self.pools.len() <= 1 && self.pools.iter().all(|p| p.counters.len() <= 1)
    }

    /// The first automaton's row, packed run counters and packed
    /// targets, which the word kernel holds like its latch while it runs.
    pub(crate) fn load_first<L: Latch>(&self) -> (u16, L, L) {
        self.pools
            .first()
            .map_or((0, L::zeroed(0), L::zeroed(0)), |p| {
                let targets = &p.automaton.t.targets_packed;
                (p.row, L::load(&p.counters), L::load(targets))
            })
    }

    /// Stores back what [`BlockUnits::load_first`] loaded.
    pub(crate) fn store_first<L: Latch>(&mut self, (row, counters, _): &(u16, L, L)) {
        if let Some(p) = self.pools.first_mut() {
            p.row = *row;
            counters.store(&mut p.counters);
        }
    }

    /// The unit pass of the word kernel over one word: per automaton,
    /// the word's transitions once and [`step_lanes`] once per bank —
    /// the first automaton on `first`, its state as the kernel holds it;
    /// per reference lane, its matcher byte by byte. Fires go into `fire`
    /// by position, the positions into `fired`.
    #[allow(clippy::inline_always)] // in the word kernel's loop
    #[inline(always)]
    pub(crate) fn step_word<L: Latch, C: Latch>(
        &mut self,
        first: &mut (u16, C, C),
        bytes: [u8; WORD],
        fire: &mut [L; WORD],
        fired: &mut u8,
    ) {
        let words = self.words;
        let mut pools = self.pools.iter_mut();
        if let Some(pool) = pools.next() {
            let (row, counters, targets) = first;
            pool.step_word(row, counters, targets, words, bytes, fire, fired);
        }
        for pool in pools {
            let (mut row, mut counters) = (pool.row, std::mem::take(&mut pool.counters));
            let targets = &pool.automaton.t.targets_packed;
            pool.step_word(&mut row, &mut counters, targets, words, bytes, fire, fired);
            (pool.row, pool.counters) = (row, counters);
        }
        for &u in &self.refs {
            let m = &mut self.units[u];
            for (j, byte) in bytes.into_iter().enumerate() {
                if m.on_byte(byte) {
                    fire[j].or_words(&self.fire[u * words..]);
                    *fired |= 1 << j;
                }
            }
        }
    }

    pub(crate) fn reset(&mut self) {
        for pool in &mut self.pools {
            pool.row = 0;
            pool.counters.fill(0);
        }
        for &u in &self.refs {
            self.units[u].reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(needle: &[u8], b: usize) -> SubstringMatcher {
        SubstringMatcher::new(needle, b).unwrap()
    }

    /// Fires of every unit through the word form — each word's
    /// transitions, then a [`RunWord`] per bank — against the matchers,
    /// the stream padded to whole words with a byte of no block.
    fn assert_equiv(units: &[SubstringMatcher], stream: &[u8]) {
        let a = BlockAutomaton::build(units).expect("fits");
        let v = a.view();
        let mut reference = units.to_vec();
        let (mut row, mut counters) = (0u16, vec![0u64; v.banks]);
        let mut padded = stream.to_vec();
        padded.resize(stream.len().next_multiple_of(WORD), b'\n');
        for (w, word) in padded.chunks_exact(WORD).enumerate() {
            let steps = a.word_transitions(&mut row, word.try_into().unwrap());
            let mut fires = vec![[0u64; WORD]; v.banks];
            for (bank, c) in counters.iter_mut().enumerate() {
                let run = RunWord::new(a.word_hits(&steps, bank));
                fires[bank] = run.fires(*c, v.targets_packed[bank]);
                *c = run.carry(*c);
            }
            for (j, &byte) in word.iter().enumerate() {
                let lane = |i: usize| fires[i / LANES][j] >> (8 * (i % LANES)) & 0x80 != 0;
                let got: Vec<bool> = (0..units.len()).map(lane).collect();
                let want: Vec<bool> = reference.iter_mut().map(|m| m.on_byte(byte)).collect();
                assert_eq!(got, want, "byte {} of {stream:?}", w * WORD + j);
            }
        }
    }

    #[test]
    fn b2_state_is_the_previous_byte_class() {
        let a = BlockAutomaton::build([&unit(b"tolls_amount", 2)]).unwrap();
        let v = a.view();
        // Root plus one state per distinct first byte of a bigram.
        let firsts: std::collections::BTreeSet<u8> =
            b"tolls_amount"[..11].iter().copied().collect();
        assert_eq!(v.next.len(), (1 + firsts.len()) * v.num_classes);
        assert_eq!(v.targets, vec![11]);
        assert_eq!(v.targets_packed, vec![0x7f7f_7f7f_7f7f_7f0b]);
        assert!(v.definite);
        assert!(v
            .next
            .chunks(v.num_classes)
            .all(|row| row == &v.next[..v.num_classes]));
    }

    #[test]
    fn mixed_lengths_share_one_automaton() {
        let units = [
            unit(b"abcab", 2),
            unit(b"bcabc", 3),
            unit(b"abcab", 2),
            unit(b"favourites_count", 9),
            unit(b"aaaa", 2),
        ];
        for stream in [
            &b"abcabcabcab xabcab\0abc favourites_count aaaaaaa"[..],
            b"\0\0ab\0bcabc",
            b"favourites_favourites_count",
        ] {
            assert_equiv(&units, stream);
        }
    }

    #[test]
    fn run_word_saturates_and_resets() {
        let targets = pack_targets(&[3, 126])[0];
        let all_hit = RunWord::new([0xffff; WORD]);
        let mut c = 0u64;
        for w in 0..38u32 {
            let fires = all_hit.fires(c, targets);
            assert_eq!(all_hit.may_fire(c, targets), fires != [0; WORD]);
            for (j, f) in (1..).zip(fires) {
                let n = w * 8 + j;
                assert_eq!(f & 0x80 != 0, n >= 3);
                assert_eq!(f & 0x8000 != 0, n >= 126);
                assert_eq!(f >> 16, 0, "unused lanes never fire");
            }
            c = all_hit.carry(c);
        }
        assert_eq!(c, 0x7f7f, "saturated at 127");
        // Lane 1 misses on byte 5: it restarts from 0 there.
        let mut hits = [0xffff; WORD];
        hits[5] = 0xff;
        let word = RunWord::new(hits);
        assert_eq!(word.carry(c), 0x027f);
        let lane1 = word.fires(c, targets).map(|f| f >> 8);
        assert_eq!(lane1, [0x80, 0x80, 0x80, 0x80, 0x80, 0, 0, 0]);
    }

    #[test]
    fn counters_round_trip_through_lanes() {
        // Scalar counters of nine lanes over two banks against the packed
        // ones stepped a word at a time: firing alike on every byte
        // against targets up to 126, and equal up to the 127 ceiling after
        // every word.
        let targets = [1, 2, 126, 3, 100, 7, 8, 9, 10];
        let packed_targets = pack_targets(&targets);
        let hit = |i: usize, step: usize| !step.is_multiple_of(i + 2) || step > 200;
        let (mut scalar, mut packed) = ([0u32; 9], [0u64; 2]);
        for word in 0..50 {
            let mut want = vec![Vec::new(); WORD];
            for (j, want) in want.iter_mut().enumerate() {
                for (i, c) in scalar.iter_mut().enumerate() {
                    *c = if hit(i, word * WORD + j) { *c + 1 } else { 0 };
                    if *c >= targets[i] {
                        want.push(i);
                    }
                }
            }
            let mut fired = vec![Vec::new(); WORD];
            for (bank, c) in packed.iter_mut().enumerate() {
                let run = RunWord::new(std::array::from_fn(|j| {
                    let lanes = (bank * LANES..9).take(LANES);
                    let lanes = lanes.filter(|&i| hit(i, word * WORD + j));
                    lanes.fold(0u64, |h, i| h | 0xff << (8 * (i % LANES)))
                }));
                let fires = run.fires(*c, packed_targets[bank]);
                for (fired, f) in fired.iter_mut().zip(fires) {
                    fired.extend(fired_lanes(f).map(|lane| bank * LANES + lane));
                }
                *c = run.carry(*c);
            }
            assert_eq!(fired, want, "word {word}");
            for (i, &c) in scalar.iter().enumerate() {
                let lane = packed[i / LANES] >> (8 * (i % LANES)) & 0xff;
                assert_eq!(lane, u64::from(c.min(127)), "lane {i} after word {word}");
            }
        }
    }

    #[test]
    fn oversized_pool_keeps_reference_matchers() {
        let needle: Vec<u8> = (0..600u32).map(|i| b'a' + (i * i % 23) as u8).collect();
        let big = unit(&needle, 300);
        assert!(BlockAutomaton::build([&big]).is_none());
        // Beside it, a packable unit and one whose target is past the
        // packed counters: the big one and the long one are reference
        // lanes, the small one a lane of the one automaton.
        let long = unit(&[b'a'; 130], 2);
        let small = unit(b"abc", 2);
        let pool = vec![big.clone(), small.clone(), long.clone()];
        let mut units = BlockUnits::new(pool, vec![1, 2, 4], 1);
        assert_eq!(units.refs, [0, 2]);
        assert_eq!(units.pools.len(), 1);
        assert_eq!(units.pools[0].automaton.view().units.len(), 1);
        let mut reference = [big, small, long];
        let mut stream: Vec<u8> = [&needle[..], b"xxabcx", &[b'a'; 140]].concat();
        stream.resize(stream.len().next_multiple_of(WORD) + WORD, b'\n');
        let mut first = units.load_first::<u64>();
        for word in stream.chunks_exact(WORD) {
            let (mut fire, mut fired) = ([0u64; WORD], 0u8);
            units.step_word(&mut first, word.try_into().unwrap(), &mut fire, &mut fired);
            for (j, &byte) in word.iter().enumerate() {
                let want = (0..3).filter(|&i| reference[i].on_byte(byte));
                assert_eq!(fire[j], want.fold(0, |f, i| f | 1 << i));
                assert_eq!(fired >> j & 1 != 0, fire[j] != 0);
            }
        }
    }
}
