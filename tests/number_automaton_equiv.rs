//! The pooled number automaton against the reference automata: for any
//! set of number-range units, the set of units accepting at every token
//! end of a stream must equal what one [`NumberBounds::to_dfa`] per unit
//! computes when stepped on its own — in the byte-serial walk, in the
//! word kernel's walk ([`NumberAutomaton::walk_word`]), across the seams
//! between the two, and whether the units share one automaton or the row
//! cap split them over several. The word walk reports only the token
//! ends that fire something: a fire mask of zero leaves no trace.
//!
//! Both techniques: the paper's, which judges every token, and the
//! anchored one, whose reference judges a token only where the byte
//! before it (or the stream start) and the byte that ends it are anchor
//! bytes — read off the stream by position, not carried as state.

mod zoo;

use proptest::prelude::*;
use rfjson_core::numpool::{NumberAutomaton, TokenState, WordTokens, COLUMNS, MAX_ROWS};
use rfjson_core::primitive::is_anchor_byte;
use rfjson_core::NumberTechnique::{self, Anchored, Token};
use rfjson_redfa::range::{is_number_byte, NumberKind};
use rfjson_redfa::{Dfa, NumberBounds};

/// `(position, accepting units)` of every token end of `stream`, one bit
/// per unit.
type TokenEnds = Vec<(usize, u64)>;

/// The pool of `bounds` under a row cap: unit `i` fires bit `i` of a
/// one-word latch, duplicates included.
fn pool(
    bounds: &[NumberBounds],
    technique: NumberTechnique,
    max_rows: usize,
) -> Vec<NumberAutomaton> {
    let bits: Vec<u64> = (0..bounds.len()).map(|i| 1 << i).collect();
    let units = bounds.iter().zip(bits.chunks(1));
    NumberAutomaton::pool(units.map(|(b, f)| (b, technique, f)), 1, max_rows)
}

/// The reference: every unit's own automaton, stepped over the token
/// bytes and asked at the first byte after them — anchored, only where
/// the token sits between anchor bytes.
fn reference_ends(bounds: &[NumberBounds], technique: NumberTechnique, stream: &[u8]) -> TokenEnds {
    let dfas: Vec<Dfa> = bounds.iter().map(NumberBounds::to_dfa).collect();
    let mut states: Vec<u16> = dfas.iter().map(Dfa::start).collect();
    let mut start = None;
    let mut ends = Vec::new();
    for (pos, &byte) in stream.iter().enumerate() {
        if is_number_byte(byte) {
            for (d, s) in dfas.iter().zip(&mut states) {
                *s = d.step(*s, byte);
            }
            start.get_or_insert(pos);
        } else if let Some(from) = start.take() {
            let accepting = dfas.iter().zip(&states).enumerate();
            let mask = accepting.map(|(i, (d, &s))| u64::from(d.is_accept(s)) << i);
            let anchored = (from == 0 || is_anchor_byte(stream[from - 1])) && is_anchor_byte(byte);
            if technique == Token || anchored {
                ends.push((pos, mask.sum()));
            }
            states = dfas.iter().map(Dfa::start).collect();
        }
    }
    ends
}

/// The token ends of `stream` that fire something: what the word walk
/// reports.
fn firing_ends(bounds: &[NumberBounds], technique: NumberTechnique, stream: &[u8]) -> TokenEnds {
    let mut ends = reference_ends(bounds, technique, stream);
    ends.retain(|&(_, fired)| fired != 0);
    ends
}

/// The pool over `stream`, cut at `cuts` into pieces walked byte by byte
/// and with [`NumberAutomaton::walk_word`] in turn — the walk the word
/// kernel runs; rows and the [`TokenState`] are all that crosses a seam.
/// Reports the token ends that fire something.
fn pooled_ends(pool: &[NumberAutomaton], stream: &[u8], cuts: &[usize]) -> TokenEnds {
    let mut rows = vec![0u16; pool.len()];
    let mut state = TokenState::RESET;
    let mut ends = Vec::new();
    let mut bounds = vec![0];
    bounds.extend(cuts.iter().map(|&c| c.min(stream.len())));
    bounds.push(stream.len());
    bounds.sort_unstable();
    for (piece, window) in bounds.windows(2).enumerate() {
        let (from, to) = (window[0], window[1]);
        let words = if piece % 2 == 1 { (to - from) / 8 } else { 0 };
        for w in 0..words {
            let base = from + w * 8;
            let bytes: &[u8; 8] = stream[base..base + 8].try_into().unwrap();
            let mask = |class: fn(u8) -> bool| {
                let bits = bytes.iter().enumerate();
                bits.fold(0u8, |m, (j, &b)| m | u8::from(class(b)) << j)
            };
            let tokens = WordTokens::new(mask(is_number_byte), state.in_token);
            let anchors = mask(is_anchor_byte);
            let kept = tokens.anchored(anchors, state);
            let mut fire = [0u64; 8];
            let mut fired = 0u8;
            for (a, row) in pool.iter().zip(&mut rows) {
                let t = if a.technique() == Token { tokens } else { kept };
                fired |= a.walk_word(row, bytes, t, &mut fire);
            }
            for (j, &f) in fire.iter().enumerate() {
                assert_eq!(fired >> j & 1 != 0, f != 0, "fired bit {j} at {base}");
                if f != 0 {
                    ends.push((base + j, f));
                }
            }
            state = TokenState {
                in_token: tokens.open_at_end(),
                anchored: kept.open_at_end(),
                after_anchor: anchors >> 7 != 0,
            };
        }
        for (pos, &byte) in stream.iter().enumerate().take(to).skip(from + words * 8) {
            let (number, anchor) = (is_number_byte(byte), is_anchor_byte(byte));
            if number && !state.in_token {
                state.anchored = state.after_anchor;
            }
            if !number && state.in_token {
                let judged =
                    |a: &NumberAutomaton| a.technique() == Token || state.anchored && anchor;
                let masks = pool.iter().zip(&rows).filter(|(a, _)| judged(a));
                let fired = masks.fold(0, |all, (a, &row)| all | a.fire(row)[0]);
                if fired != 0 {
                    ends.push((pos, fired));
                }
            }
            // An anchored automaton walks anchored tokens only.
            for (a, row) in pool.iter().zip(&mut rows) {
                if !number || a.technique() == Token || state.anchored {
                    *row = a.step(*row, byte);
                }
            }
            state.in_token = number;
            state.after_anchor = anchor;
        }
    }
    ends
}

fn float_bounds(lo_cents: i64, span_cents: i64) -> NumberBounds {
    let decimal = |cents: i64| {
        let sign = if cents < 0 { "-" } else { "" };
        let text = format!("{sign}{}.{:02}", cents.abs() / 100, cents.abs() % 100);
        text.parse().expect("a decimal literal")
    };
    let (lo, hi) = (decimal(lo_cents), decimal(lo_cents + span_cents));
    NumberBounds::new(lo, hi, NumberKind::Float).expect("lo ≤ hi")
}

#[test]
fn seventy_unit_ranges_pool_into_fewer_rows_than_states() {
    let bounds: Vec<NumberBounds> = (0..70).map(|i| NumberBounds::int_range(i, i + 1)).collect();
    // Past one latch word: two words per fire mask.
    let mut fires = vec![0u64; 2 * bounds.len()];
    for i in 0..bounds.len() {
        fires[2 * i + i / 64] = 1 << (i % 64);
    }
    let units = bounds.iter().zip(fires.chunks(2));
    let pool = NumberAutomaton::pool(units.map(|(b, f)| (b, Token, f)), 2, MAX_ROWS);
    assert_eq!(pool.len(), 1);
    let rows = pool[0].view().next.len() / COLUMNS;
    let states: usize = bounds.iter().map(|b| b.to_dfa().num_states()).sum();
    assert!(rows * 4 < states, "{rows} rows for {states} unit states");
    // 69 is in 68..=69 and 69..=70: units 68 and 69, across the word seam.
    let row = b"69".iter().fold(0, |row, &b| pool[0].step(row, b));
    assert_eq!(pool[0].fire(row), [0, 0b11 << 4]);
    let row = b"64".iter().fold(0, |row, &b| pool[0].step(row, b));
    assert_eq!(pool[0].fire(row), [1 << 63, 1]);
}

#[test]
fn token_ends_are_found_at_every_word_offset() {
    let bounds = [
        NumberBounds::int_range(12, 49),
        float_bounds(70, 3440), // 0.70 ..= 35.10
    ];
    let pool = pool(&bounds, Token, MAX_ROWS);
    // A token over a word seam, one ending on a word's last byte, one at
    // its first, sign- and exponent-only tokens, an unterminated tail.
    let stream = b"xxxxxx21.4,xxx35,12345678,e,-,+.,1e5 E 3";
    let want = reference_ends(&bounds, Token, stream);
    assert_eq!(
        want,
        [
            (10, 0b10), // 21.4
            (16, 0b11), // 35, fired by the next word's first byte
            (25, 0),
            (27, 0),
            (29, 0),
            (32, 0),
            (36, 0b11), // the exponent acceptor is in every unit
            (38, 0),
        ]
    );
    let firing = firing_ends(&bounds, Token, stream);
    for offset in 0..8 {
        assert_eq!(
            pooled_ends(&pool, stream, &[offset]),
            firing,
            "offset {offset}"
        );
    }
}

#[test]
fn anchored_tokens_are_found_at_every_word_offset() {
    let bounds = [NumberBounds::int_range(12, 49), float_bounds(70, 3440)];
    let anchored = pool(&bounds, Anchored, MAX_ROWS);
    // Unanchored starts (after `x`, `F`, `k`) and ends (on `x`, `C`, `e`
    // of a key) beside anchored tokens after `:`, `[`, `"`, space, tab,
    // a record-start token, and a token run over the seams.
    let stream = b"21,x21 [35]\"96F7E95C\" k12:{\"v\":\" 35 \"},\t13x,12345678,e14 22\t1e5";
    let want = firing_ends(&bounds, Anchored, stream);
    assert_eq!(
        want.iter().map(|&(pos, _)| pos).collect::<Vec<_>>(),
        [2, 10, 35, 59],
        "{want:?}"
    );
    // Both techniques side by side, bits 0–1 token and 2–3 anchored: each
    // keeps its own ends.
    let units = [
        (&bounds[0], Token, &[0b0001][..]),
        (&bounds[1], Token, &[0b0010]),
    ];
    let anchored_units = [
        (&bounds[0], Anchored, &[0b0100][..]),
        (&bounds[1], Anchored, &[0b1000]),
    ];
    let mixed = NumberAutomaton::pool(units.into_iter().chain(anchored_units), 1, MAX_ROWS);
    assert_eq!(mixed.len(), 2);
    let mut merged = firing_ends(&bounds, Token, stream);
    for &(pos, f) in &want {
        let end = merged
            .iter_mut()
            .find(|(p, _)| *p == pos)
            .expect("a token end too");
        end.1 |= f << 2;
    }
    for offset in 0..stream.len() {
        assert_eq!(
            pooled_ends(&anchored, stream, &[offset]),
            want,
            "offset {offset}"
        );
        for shift in 0..8 {
            let cuts = [shift, shift + 8 + offset % 8, offset];
            assert_eq!(pooled_ends(&anchored, stream, &cuts), want, "cuts {cuts:?}");
        }
        assert_eq!(
            pooled_ends(&mixed, stream, &[offset]),
            merged,
            "offset {offset}"
        );
    }
}

#[test]
fn the_anchoring_zoo_walks_alike_at_every_seam() {
    // The zoo's records where anchoring decides, one stream, under both
    // techniques and both together, cut at every position.
    let bounds = [
        NumberBounds::int_range(12, 49),
        NumberBounds::int_range(140, 3155),
        float_bounds(-1250, 5560), // -12.50 ..= 43.10
    ];
    let stream = zoo::anchoring_records().join(&b'\n');
    for technique in [Token, Anchored] {
        let want = firing_ends(&bounds, technique, &stream);
        assert!(!want.is_empty());
        let pool = pool(&bounds, technique, MAX_ROWS);
        for cut in 0..stream.len() {
            assert_eq!(
                pooled_ends(&pool, &stream, &[cut, cut + 13]),
                want,
                "{technique:?} cut {cut}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random integer and float ranges with duplicates among them, 1–40
    /// units, a soup of number bytes and separators, random seams between
    /// the byte walk and the word walk — and the same again under a row
    /// cap small enough to split any pool of two units.
    #[test]
    fn pool_equals_reference_automata(
        specs in proptest::collection::vec(
            (any::<bool>(), -3000i64..3000, 0i64..2500),
            1..40,
        ),
        duplicate in 0usize..40,
        soup in proptest::collection::vec(prop_oneof![
            12 => b'0'..=b'9',
            2 => Just(b'.'), 1 => Just(b'-'), 1 => Just(b'+'),
            1 => Just(b'e'), 1 => Just(b'E'),
            3 => Just(b','), 1 => Just(b' '), 1 => Just(b'"'), 1 => Just(b'}'),
            1 => Just(b':'), 1 => Just(b'['), 1 => Just(b'\t'),
            1 => Just(b'x'), 1 => Just(b'F'), 1 => Just(0xffu8),
        ], 0..200),
        cuts in proptest::collection::vec(0usize..200, 0..6),
    ) {
        let mut bounds: Vec<NumberBounds> = specs
            .iter()
            .map(|&(float, lo, span)| if float {
                float_bounds(lo, span)
            } else {
                NumberBounds::int_range(lo / 10, (lo + span) / 10)
            })
            .collect();
        bounds.push(bounds[duplicate % bounds.len()].clone());
        for technique in [Token, Anchored] {
            let want = firing_ends(&bounds, technique, &soup);

            let one = pool(&bounds, technique, MAX_ROWS);
            prop_assert_eq!(&pooled_ends(&one, &soup, &cuts), &want);
            prop_assert_eq!(&pooled_ends(&one, &soup, &[]), &want);

            let split = pool(&bounds, technique, 5);
            prop_assert_eq!(split.len(), bounds.len(), "a unit alone has more rows than the cap");
            prop_assert_eq!(&pooled_ends(&split, &soup, &cuts), &want);

            let halves = pool(&bounds, technique, 40);
            let pooled: usize = halves.iter().map(|a| a.view().units.len()).sum();
            prop_assert_eq!(pooled, bounds.len());
            prop_assert_eq!(&pooled_ends(&halves, &soup, &cuts), &want);
        }
    }
}
