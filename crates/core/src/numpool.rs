//! The shared kernel of the number-range units: one **pooled number
//! automaton** for all of them.
//!
//! Every number unit `v(lo ≤ x ≤ hi)` reads the same bytes — the digits,
//! signs, point and exponent letters of the current token — and is asked
//! one question, at the token's end: does its range automaton accept.
//! Stepping each unit's DFA on its own costs a dependent table walk per
//! unit and number byte. Here the units of a program are pooled into
//! their **product automaton** over the fifteen number bytes
//! ([`NUMBER_BYTES`]), as [`blockhit`](crate::blockhit) pools the blocks
//! of the B ≥ 2 substring units and as Mitra et al. compile the common
//! pieces of all profiles into one datapath:
//!
//! * a **row** is one reachable tuple of unit states; rows are numbered
//!   breadth-first from the start tuple, so row 0 is "no token byte seen";
//! * a **transition** `row + column` yields the next row, premultiplied
//!   by [`COLUMNS`]; the sixteenth column is the **token end**, taken by
//!   every other byte, and leads back to row 0 from everywhere;
//! * every row carries one **fire mask**: the OR of the latch bits of the
//!   units that accept in it, read when a token ends there.
//!
//! Units reading the same digits agree on most of what they remember, so
//! the product is smaller than the sum of its parts (66 rows for the 84
//! states of QS1's five ranges), and a walk costs one lookup per number
//! byte however many units there are. Both paths of an engine walk the
//! same table, so a block seam hands over one row.
//!
//! A product can also grow: [`NumberAutomaton::pool`] adds the units in
//! order and starts another automaton when the next unit would take the
//! current one past its row cap, so a program holds a list of automata —
//! of one element for every query in this repository. The units of one
//! automaton share one [`NumberTechnique`], which the automaton carries:
//! the pool keeps the paper's token units and the anchored ones apart.
//! [`NumberBounds::to_dfa`] stays the reference the property tests compare
//! against (`tests/number_automaton_equiv.rs`).
//!
//! # The word walk
//!
//! The word kernel walks eight bytes at a time with
//! [`NumberAutomaton::walk_word`], over the number bytes and token ends
//! of [`WordTokens`]. A token end rearms to row 0 without reading the
//! token-end column, so no lookup waits on the row of the token before.
//!
//! An anchored automaton walks only the **anchored tokens**
//! ([`WordTokens::anchored`]): from the word's anchor bytes and the two
//! bits carried in [`TokenState`] (the byte before the word was an
//! anchor byte; the open token is anchored),
//! the runs of number bytes that start after any other byte are cleared
//! with one add, `(numbers + unanchored starts) & numbers`: the carry of
//! each start runs through its own run and stops at the byte after it.
//! Every kept token's end still rearms the row, but only an end whose
//! byte is an anchor byte fires. On Taxi records this leaves a third of
//! the tokens and half of the number bytes to walk — the hex digits of
//! IDs, the `e`s of key names and the pieces of dates drop out. The byte
//! loop steps an anchored automaton over anchored tokens only, so rows
//! agree at every seam: 0 outside an anchored token on both paths.

use crate::engine::Latch;
use crate::expr::NumberTechnique;
use rfjson_redfa::range::NUMBER_BYTES;
use rfjson_redfa::{Dfa, NumberBounds};
use std::collections::HashMap;

/// Row length: the fifteen number bytes plus the token-end column.
pub const COLUMNS: usize = 16;
/// The column of every byte that is not a number byte.
pub const END_COLUMN: usize = 15;
/// Most rows of one automaton: premultiplied row numbers stay in a `u16`.
pub const MAX_ROWS: usize = (u16::MAX as usize + 1) / COLUMNS;

/// Byte → column: the byte's index in [`NUMBER_BYTES`], or [`END_COLUMN`].
const COLUMN_OF: [u8; 256] = {
    let mut columns = [END_COLUMN as u8; 256];
    let mut i = 0;
    while i < NUMBER_BYTES.len() {
        columns[NUMBER_BYTES[i] as usize] = i as u8;
        i += 1;
    }
    columns
};

/// What the number walk carries from one byte to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenState {
    /// The last byte was a number byte: a token is open.
    pub in_token: bool,
    /// The open token started after an anchor byte.
    pub anchored: bool,
    /// The last byte was an anchor byte.
    pub after_anchor: bool,
}

impl TokenState {
    /// The state at a record start: no token, and the separator before
    /// it is an anchor byte.
    pub const RESET: TokenState = TokenState {
        in_token: false,
        anchored: false,
        after_anchor: true,
    };
}

/// The number bytes and token ends of one word, as
/// [`NumberAutomaton::walk_word`] visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordTokens {
    /// The bytes that may appear inside a number token
    /// ([`is_number_byte`](rfjson_redfa::range::is_number_byte)), bit `j`
    /// = byte `j`. Anchored, only those of anchored tokens.
    numbers: u8,
    /// Token ends: the first other byte after a number byte, the word
    /// before included. Each rearms the row.
    ends: u8,
    /// The ends that fire: all of them, or anchored, those on an anchor
    /// byte.
    fires: u8,
}

impl WordTokens {
    /// The tokens of a word whose number bytes are `numbers`, entered
    /// with a token open or not.
    #[inline]
    #[must_use]
    pub fn new(numbers: u8, in_token: bool) -> WordTokens {
        let ends = !numbers & (numbers << 1 | u8::from(in_token));
        WordTokens {
            numbers,
            ends,
            fires: ends,
        }
    }

    /// The anchored tokens among these, of a word whose anchor bytes
    /// ([`is_anchor_byte`](crate::primitive::is_anchor_byte)) are
    /// `anchors`, entered in `state` — see the
    /// [module docs](self#the-word-walk).
    #[inline]
    #[must_use]
    pub fn anchored(self, anchors: u8, state: TokenState) -> WordTokens {
        let numbers = self.numbers;
        // A start after neither a number byte nor an anchor byte, and the
        // open token's run if it is not anchored.
        let before = (numbers | anchors) << 1 | u8::from(state.in_token | state.after_anchor);
        let open_unanchored = u8::from(state.in_token && !state.anchored);
        let unanchored = numbers & !before | open_unanchored;
        let kept = numbers.wrapping_add(unanchored) & numbers;
        let ends = !numbers & (kept << 1 | u8::from(state.in_token && state.anchored));
        WordTokens {
            numbers: kept,
            ends,
            fires: ends & anchors,
        }
    }

    /// No number byte and no token end: nothing to walk.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.numbers | self.ends == 0
    }

    /// Whether a token (an anchored one, for [`WordTokens::anchored`]) is
    /// still open after the word.
    #[inline]
    #[must_use]
    pub fn open_at_end(&self) -> bool {
        self.numbers >> 7 != 0
    }
}

/// One pooled unit of a [`NumberAutomatonView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumberUnitView {
    /// The range the unit checks.
    pub bounds: NumberBounds,
    /// The technique that implements it.
    pub technique: NumberTechnique,
    /// The latch bits of every leaf the unit stands for,
    /// [`NumberAutomatonView::words`] words.
    pub fire: Vec<u64>,
}

/// The tables of a [`NumberAutomaton`], readable by the static verifier
/// (`rfjson-verify`, codes `N02x`) beside
/// [`BlockAutomatonView`](crate::blockhit::BlockAutomatonView).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumberAutomatonView {
    /// The technique of every pooled unit, and so of the walk.
    pub technique: NumberTechnique,
    /// `u64` words per fire mask: the latch width of the program.
    pub words: usize,
    /// Next row per transition, premultiplied by [`COLUMNS`]
    /// (`rows × COLUMNS` entries).
    pub next: Vec<u16>,
    /// Fire mask per row, `words` words each.
    pub fires: Vec<u64>,
    /// The pooled units, in compile order.
    pub units: Vec<NumberUnitView>,
}

impl NumberAutomatonView {
    /// Size in bytes of the tables a walk reads.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.next[..]) + std::mem::size_of_val(&self.fires[..])
    }
}

/// The pooled automaton of a set of number-range units — see the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use rfjson_core::numpool::{NumberAutomaton, MAX_ROWS};
/// use rfjson_core::NumberTechnique::Token;
/// use rfjson_redfa::NumberBounds;
///
/// // Two units, latch bits 0 and 1 of a one-word latch.
/// let (low, high) = (NumberBounds::int_range(12, 49), NumberBounds::int_range(40, 99));
/// let units = [(&low, Token, &[0b01][..]), (&high, Token, &[0b10][..])];
/// let pool = NumberAutomaton::pool(units, 1, MAX_ROWS);
/// let automaton = &pool[0];
/// let mut row = 0;
/// for &byte in b"42" {
///     row = automaton.step(row, byte);
/// }
/// assert_eq!(automaton.fire(row), [0b11]);
/// assert_eq!(automaton.step(row, b','), 0, "a token end rearms");
/// ```
#[derive(Debug, Clone)]
pub struct NumberAutomaton {
    t: NumberAutomatonView,
}

impl NumberAutomaton {
    /// Pools `units` — bounds, technique and fire mask of `words` words
    /// each — into automata of one technique each: the token units, then
    /// the anchored ones, each in order, starting another automaton
    /// whenever the next unit would take the current one past `max_rows`
    /// (an engine passes [`MAX_ROWS`]). No units, no automaton.
    ///
    /// # Panics
    ///
    /// Panics if one unit alone needs more than [`MAX_ROWS`] rows (bounds
    /// of a thousand digits).
    #[must_use]
    pub fn pool<'a>(
        units: impl IntoIterator<Item = (&'a NumberBounds, NumberTechnique, &'a [u64])>,
        words: usize,
        max_rows: usize,
    ) -> Vec<NumberAutomaton> {
        let units: Vec<_> = units.into_iter().collect();
        let mut pool: Vec<NumberAutomaton> = Vec::new();
        for technique in [NumberTechnique::Token, NumberTechnique::Anchored] {
            let first = pool.len();
            for &(bounds, _, fire) in units.iter().filter(|u| u.1 == technique) {
                let dfa = bounds.to_dfa();
                let last = pool[first..].last();
                let grown = last.and_then(|a| a.with_unit(bounds, &dfa, fire, max_rows));
                match grown {
                    Some(grown) => *pool.last_mut().expect("the automaton that grew") = grown,
                    None => pool.push(
                        NumberAutomaton::empty(technique, words)
                            .with_unit(bounds, &dfa, fire, MAX_ROWS)
                            .expect("a number unit's automaton fits the row space"),
                    ),
                }
            }
        }
        pool
    }

    /// The automaton of no units: one row that fires nothing.
    fn empty(technique: NumberTechnique, words: usize) -> NumberAutomaton {
        NumberAutomaton {
            t: NumberAutomatonView {
                technique,
                words,
                next: vec![0; COLUMNS],
                fires: vec![0; words],
                units: Vec::new(),
            },
        }
    }

    /// The product of this automaton and one more unit, or `None` past
    /// `max_rows` rows.
    fn with_unit(
        &self,
        bounds: &NumberBounds,
        dfa: &Dfa,
        fire: &[u64],
        max_rows: usize,
    ) -> Option<NumberAutomaton> {
        let words = self.t.words;
        // A row of the product is a row of `self` paired with a state of
        // `dfa`, numbered in breadth-first order of discovery.
        let start = (0u16, dfa.start());
        let mut pairs = vec![start];
        let mut row_of = HashMap::from([(start, 0usize)]);
        let mut next = Vec::new();
        let mut at = 0;
        while at < pairs.len() {
            let (row, state) = pairs[at];
            at += 1;
            for (column, &byte) in NUMBER_BYTES.iter().enumerate() {
                let pair = (self.t.next[row as usize + column], dfa.step(state, byte));
                let target = *row_of.entry(pair).or_insert_with(|| {
                    pairs.push(pair);
                    pairs.len() - 1
                });
                if pairs.len() > max_rows {
                    return None;
                }
                next.push((target * COLUMNS) as u16);
            }
            next.push(0); // token end
        }
        let mut fires = Vec::with_capacity(pairs.len() * words);
        for &(row, state) in &pairs {
            let mine = if dfa.is_accept(state) { u64::MAX } else { 0 };
            let theirs = self.fire(row);
            fires.extend(theirs.iter().zip(fire).map(|(t, f)| t | (f & mine)));
        }
        let unit = NumberUnitView {
            bounds: bounds.clone(),
            technique: self.t.technique,
            fire: fire.to_vec(),
        };
        Some(NumberAutomaton {
            t: NumberAutomatonView {
                technique: self.t.technique,
                words,
                next,
                fires,
                units: self.t.units.iter().cloned().chain([unit]).collect(),
            },
        })
    }

    /// The tables, for static verification.
    #[must_use]
    pub fn view(&self) -> &NumberAutomatonView {
        &self.t
    }

    /// The technique of the pooled units.
    #[inline]
    #[must_use]
    pub fn technique(&self) -> NumberTechnique {
        self.t.technique
    }

    /// The row after `byte`: the product step for a number byte, row 0
    /// (token start) for any other.
    #[inline]
    #[must_use]
    pub fn step(&self, row: u16, byte: u8) -> u16 {
        self.t.next[row as usize + COLUMN_OF[byte as usize] as usize]
    }

    /// The latch bits a token ending in `row` fires.
    #[inline]
    #[must_use]
    pub fn fire(&self, row: u16) -> &[u64] {
        let words = self.t.words;
        &self.t.fires[row as usize / COLUMNS * words..][..words]
    }

    /// The [word walk](self#the-word-walk) over `bytes`, whose tokens are
    /// `tokens` (of this automaton's technique), from `row` (0 unless a
    /// token is open): each number byte steps the row; each token end
    /// rearms to row 0, and a firing one first ORs the fire mask into
    /// `fire` at its position. Returns the positions whose fire was not
    /// zero.
    #[allow(clippy::inline_always)] // two calls in the word kernel's loop: measured, ~2 %
    #[inline(always)]
    pub fn walk_word<L: Latch>(
        &self,
        row: &mut u16,
        bytes: &[u8; 8],
        tokens: WordTokens,
        fire: &mut [L; 8],
    ) -> u8 {
        let mut todo = tokens.numbers | tokens.ends;
        let mut r = *row;
        let mut fired = 0;
        while todo != 0 {
            let j = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if tokens.ends >> j & 1 != 0 {
                // A non-firing end reads row 0, which fires nothing.
                let judged = u16::from(tokens.fires >> j & 1 != 0).wrapping_neg();
                let f = &self.t.fires[(r & judged) as usize / COLUMNS * self.t.words..];
                fired |= u8::from(fire[j].or_any(f)) << j;
                r = 0;
            } else {
                r = self.step(r, bytes[j]);
            }
        }
        *row = r;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::is_anchor_byte;
    use rfjson_jsonstream::swar;
    use rfjson_redfa::range::is_number_byte;

    /// Unit `i` fires bit `i` of a one-word latch.
    fn pool(bounds: &[NumberBounds], max_rows: usize) -> Vec<NumberAutomaton> {
        let bits: Vec<u64> = (0..bounds.len()).map(|i| 1 << i).collect();
        let units = bounds.iter().zip(bits.chunks(1));
        NumberAutomaton::pool(
            units.map(|(b, f)| (b, NumberTechnique::Token, f)),
            1,
            max_rows,
        )
    }

    /// The fire mask at the end of `token`, through every automaton.
    fn fired(pool: &[NumberAutomaton], token: &[u8]) -> u64 {
        let walk = |a: &NumberAutomaton| {
            let row = token.iter().fold(0, |row, &b| a.step(row, b));
            a.fire(row)[0]
        };
        pool.iter().map(walk).fold(0, |all, f| all | f)
    }

    #[test]
    fn number_mask_matches_the_byte_predicate() {
        // The number and anchor masks the word walk reads, from the
        // kernel's class table.
        let masks = |chunk: &[u8; 8]| {
            let classes = swar::class_masks(chunk, &crate::engine::KERNEL_CLASSES);
            (classes[0], classes[1])
        };
        let want = |chunk: &[u8; 8]| {
            let bits = |class: fn(u8) -> bool| {
                let bytes = chunk.iter().enumerate();
                bytes.map(|(j, &x)| u8::from(class(x)) << j).sum::<u8>()
            };
            (bits(is_number_byte), bits(is_anchor_byte))
        };
        for b in 0u16..=255 {
            let b = b as u8;
            for lane in 0..8 {
                let mut chunk = [b'x'; 8];
                chunk[lane] = b;
                assert_eq!(masks(&chunk), want(&chunk), "byte {b:#x}");
                // Against a background of number, anchor and high bytes too.
                let mut chunk = [b'7', 0xff, b'e', 0x80, b'-', b',', b' ', b'E'];
                chunk[lane] = b;
                assert_eq!(masks(&chunk), want(&chunk), "byte {b:#x}");
            }
        }
    }

    #[test]
    fn product_accepts_what_each_unit_accepts() {
        let bounds = vec![
            NumberBounds::int_range(12, 49),
            NumberBounds::int_range(40, 99),
            NumberBounds::int_range(-5, 5),
        ];
        let dfas: Vec<Dfa> = bounds.iter().map(NumberBounds::to_dfa).collect();
        let pool = pool(&bounds, MAX_ROWS);
        assert_eq!(pool.len(), 1);
        let states: usize = dfas.iter().map(Dfa::num_states).sum();
        let rows = pool[0].view().next.len() / COLUMNS;
        assert!(rows < states, "{rows} rows for {states} unit states");
        for token in [
            &b"42"[..],
            b"12",
            b"-3",
            b"100",
            b"4e",
            b"1e5",
            b"+",
            b"e",
            b"",
        ] {
            let want = dfas
                .iter()
                .enumerate()
                .map(|(i, d)| u64::from(d.accepts(token)) << i)
                .sum::<u64>();
            assert_eq!(fired(&pool, token), want, "{token:?}");
        }
    }

    #[test]
    fn row_cap_starts_another_automaton() {
        let bounds: Vec<NumberBounds> = (0..6)
            .map(|i| NumberBounds::int_range(i * 7, i * 7 + 30))
            .collect();
        let one = pool(&bounds, MAX_ROWS);
        let split = pool(&bounds, 12);
        assert_eq!(one.len(), 1);
        assert!(split.len() > 1);
        let pooled: usize = split.iter().map(|a| a.view().units.len()).sum();
        assert_eq!(pooled, 6);
        for n in 0..80 {
            let token = n.to_string();
            assert_eq!(
                fired(&one, token.as_bytes()),
                fired(&split, token.as_bytes())
            );
        }
    }

    #[test]
    fn no_units_no_automaton() {
        assert!(pool(&[], MAX_ROWS).is_empty());
    }

    #[test]
    fn anchored_tokens_match_the_byte_serial_rule() {
        // Every word of number and anchor bytes (disjoint, as the bytes
        // are), from every carried state, against the byte-by-byte rule.
        for numbers in 0..=255u8 {
            for anchors in (0..=255u8).filter(|a| a & numbers == 0) {
                for carried in 0..8u8 {
                    let state = TokenState {
                        in_token: carried & 1 != 0,
                        anchored: carried & 2 != 0,
                        after_anchor: carried & 4 != 0,
                    };
                    let got = WordTokens::new(numbers, state.in_token).anchored(anchors, state);
                    let mut t = state;
                    let mut want = WordTokens::new(0, false);
                    for j in 0..8 {
                        let bit = 1u8 << j;
                        if numbers & bit != 0 {
                            if !t.in_token {
                                t.anchored = t.after_anchor;
                            }
                            want.numbers |= if t.anchored { bit } else { 0 };
                            t.in_token = true;
                            t.after_anchor = false;
                        } else {
                            if t.in_token && t.anchored {
                                want.ends |= bit;
                                want.fires |= if anchors & bit != 0 { bit } else { 0 };
                            }
                            t.in_token = false;
                            t.after_anchor = anchors & bit != 0;
                        }
                    }
                    assert_eq!(
                        got, want,
                        "numbers {numbers:08b} anchors {anchors:08b} {state:?}"
                    );
                    assert_eq!(got.open_at_end(), t.in_token && t.anchored);
                }
            }
        }
    }

    #[test]
    fn pool_keeps_techniques_apart() {
        let bounds = [
            NumberBounds::int_range(1, 9),
            NumberBounds::int_range(5, 50),
            NumberBounds::int_range(1, 9),
        ];
        let techniques = [
            NumberTechnique::Anchored,
            NumberTechnique::Token,
            NumberTechnique::Anchored,
        ];
        let bits = [[1u64], [2], [4]];
        let units = bounds.iter().zip(techniques).zip(&bits);
        let pool = NumberAutomaton::pool(units.map(|((b, t), f)| (b, t, &f[..])), 1, MAX_ROWS);
        let shape: Vec<(NumberTechnique, usize)> = pool
            .iter()
            .map(|a| (a.technique(), a.view().units.len()))
            .collect();
        assert_eq!(
            shape,
            [(NumberTechnique::Token, 1), (NumberTechnique::Anchored, 2)]
        );
        for a in &pool {
            assert!(a.view().units.iter().all(|u| u.technique == a.technique()));
        }
    }
}
