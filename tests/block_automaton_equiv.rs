//! The pooled block-hit automaton and its packed lane counters against
//! the reference primitive: for any set of `sB(needle)` units, the
//! per-byte hit lanes and fire signals of [`BlockAutomaton`] must equal
//! what one [`SubstringMatcher`] per unit computes — in the word form,
//! across its seams with stretches stepped a byte at a time (which hand
//! the run counts over), and past the point where the packed counters
//! saturate — and, as the engines run them, on their stream paths.

mod zoo;

use proptest::prelude::*;
use rfjson_core::blockhit::{pack_targets, BlockAutomaton, RunWord, LANES, WORD};
use rfjson_core::primitive::{FireFilter, SubstringMatcher};
use rfjson_core::Expr;

/// Whether the last `B` bytes of `seen` — over the zero-initialised
/// window of a fresh record — are a block of `unit`.
fn window_hits(unit: &SubstringMatcher, seen: &[u8]) -> bool {
    let b = unit.block_length();
    let mut window = vec![0u8; b.saturating_sub(seen.len())];
    window.extend_from_slice(&seen[seen.len().saturating_sub(b)..]);
    unit.needle().windows(b).any(|block| block == window)
}

/// The unit indices whose lane is set in a banked word vector (`0x80`
/// fire bits or `0xFF` hit bytes alike).
fn lanes_of(words: &[u64], units: usize) -> Vec<usize> {
    (0..units)
        .filter(|&i| words[i / LANES] >> (8 * (i % LANES)) & 0x80 != 0)
        .collect()
}

/// Feeds `stream` through the automaton of `units` from the record
/// start, byte by byte and word by word, and checks hit lanes and fires
/// of every byte against the reference matchers. Where `packed(pos)`
/// holds and a whole word remains, the word at `pos` goes through its
/// transitions and the per-word counter step ([`RunWord`]) of every bank,
/// on the run counts packed one byte per lane; every other byte steps the
/// row with [`BlockAutomaton::step`] and a scalar run count per unit, so
/// the counts cross from one form to the other at every seam between
/// them.
fn assert_equiv(units: &[SubstringMatcher], stream: &[u8], packed: impl Fn(usize) -> bool) {
    let a = BlockAutomaton::build(units).expect("test pools are small");
    let v = a.view();
    let mut reference = units.to_vec();
    let want_hits: Vec<Vec<usize>> = (0..stream.len())
        .map(|pos| {
            let hit = |i: &usize| window_hits(&units[*i], &stream[..=pos]);
            (0..units.len()).filter(hit).collect()
        })
        .collect();
    let want_fires: Vec<Vec<usize>> = stream
        .iter()
        .map(|&byte| {
            (0..units.len())
                .filter(|&i| reference[i].on_byte(byte))
                .collect()
        })
        .collect();

    let mut row = 0u16;
    // The run count of each unit: saturated at the packed counters' 127
    // ceiling, which changes no comparison against a target ≤ 126.
    let mut runs = vec![0u32; units.len()];
    let mut pos = 0;
    while pos < stream.len() {
        if packed(pos) && pos + WORD <= stream.len() {
            let word: &[u8; WORD] = stream[pos..pos + WORD].try_into().unwrap();
            let mut word_row = row;
            let steps = a.word_transitions(&mut word_row, word);
            // Hit masks by bank and position.
            let mut hits = vec![[0u64; WORD]; v.banks];
            for (j, &byte) in word.iter().enumerate() {
                for (bank, &h) in a.step(&mut row, byte).iter().enumerate() {
                    hits[bank][j] = h;
                }
            }
            assert_eq!(word_row, row, "word at {pos}");
            for (bank, bank_hits) in hits.iter().enumerate() {
                assert_eq!(
                    a.word_hits(&steps, bank),
                    *bank_hits,
                    "bank {bank} at {pos}"
                );
            }
            let mut lanes = pack_counts(&runs, v.banks);
            let mut fires = vec![[0u64; WORD]; v.banks];
            for (bank, hits) in hits.iter().enumerate() {
                let (run, targets) = (RunWord::new(*hits), v.targets_packed[bank]);
                fires[bank] = run.fires(lanes[bank], targets);
                if fires[bank] != [0; WORD] {
                    assert!(run.may_fire(lanes[bank], targets), "bound at {pos}");
                }
                lanes[bank] = run.carry(lanes[bank]);
            }
            for (i, count) in runs.iter_mut().enumerate() {
                *count = (lanes[i / LANES] >> (8 * (i % LANES)) & 0xff) as u32;
            }
            for j in 0..WORD {
                let at = |words: &[[u64; WORD]]| words.iter().map(|w| w[j]).collect::<Vec<_>>();
                let at_pos = format!("byte {} of {stream:?}", pos + j);
                assert_eq!(
                    lanes_of(&at(&hits), units.len()),
                    want_hits[pos + j],
                    "hits at {at_pos}"
                );
                assert_eq!(
                    lanes_of(&at(&fires), units.len()),
                    want_fires[pos + j],
                    "fires at {at_pos}"
                );
            }
            pos += WORD;
        } else {
            let hits = a.step(&mut row, stream[pos]).to_vec();
            assert_eq!(
                lanes_of(&hits, units.len()),
                want_hits[pos],
                "hits at byte {pos} of {stream:?}"
            );
            let mut got_fires = Vec::new();
            for (i, count) in runs.iter_mut().enumerate() {
                let hit = hits[i / LANES] >> (8 * (i % LANES)) & 0x80 != 0;
                *count = if hit { (*count + 1).min(127) } else { 0 };
                if *count >= v.targets[i] {
                    got_fires.push(i);
                }
            }
            assert_eq!(
                got_fires, want_fires[pos],
                "fires at byte {pos} of {stream:?}"
            );
            pos += 1;
        }
    }
}

/// Run counts packed one byte per lane, a word per bank.
fn pack_counts(runs: &[u32], banks: usize) -> Vec<u64> {
    let mut lanes = vec![0u64; banks];
    for (i, &count) in runs.iter().enumerate() {
        lanes[i / LANES] |= u64::from(count) << (8 * (i % LANES));
    }
    lanes
}

fn unit(needle: &[u8], b: usize) -> SubstringMatcher {
    SubstringMatcher::new(needle, b).unwrap()
}

#[test]
fn saturated_run_fires_across_the_seam_and_resets_on_the_first_miss() {
    // `aa` is the only block of s2("aaaa"); 310 hitting bytes push the
    // packed counter far past its 127 ceiling.
    let units = [unit(b"aaaa", 2), unit(b"aab", 2)];
    let mut stream = b"xa".to_vec();
    stream.extend_from_slice(&[b'a'; 310]);
    stream.extend_from_slice(b"xaaxaaaa");
    // Word by word up to mid-run, byte by byte for a stretch, word by word
    // again, on every word alignment: the saturated count crosses both
    // seams.
    for align in 0..WORD {
        assert_equiv(&units, &stream, |pos| {
            pos >= align && !(157..=200).contains(&pos)
        });
        assert_equiv(&units, &stream, |pos| pos >= 157 + align);
    }
    // The fire pattern itself, spelled out: from the third `aa` window
    // of the run to its end, nothing on `xaax`, again on the last `a`.
    let mut m = unit(b"aaaa", 2);
    let fires = m.fire_positions(&stream);
    assert_eq!(fires.first(), Some(&4));
    assert_eq!(fires[fires.len() - 2..], [311, stream.len() - 1]);
}

/// Engine and fused engine over the records on their stream paths, each
/// record at every word offset right after another, gated and ungated,
/// against the byte-serial model: the counters cross every word seam
/// inside a needle run and restart at every separator.
#[test]
fn engines_agree_with_the_model_at_every_block_seam() {
    let q = |needle: &[u8], b| Expr::substring(needle, b).unwrap();
    let long_run = q(&[b'a'; 120], 2); // fires on the 119th `aa` window
    let exprs = [
        q(b"tolls_amount", 2),
        q(b"total_amount", 3),
        q(b"favourites_count", 9),
        Expr::and([q(b"aaaa", 2), q(b"amount", 6)]),
        long_run,
        // The saturated run sits in an object that fails the range; the
        // short runs of the next one must not fire.
        Expr::context([q(b"aaaa", 2), Expr::int_range(1, 1)]),
    ];
    let mut saturating = b"[{\"".to_vec();
    saturating.extend_from_slice(&[b'a'; 310]);
    saturating.extend_from_slice(b"\":9},{\"aaxaa\":1},{\"k\":\"aaaa\",\"v\":1}]");
    let records: [&[u8]; 3] = [
        br#"{"tolls_amount":5.33,"total_amount":17.33,"favourites_count":12}"#,
        b"tototal_amountolls_amount\0tolls_amounfavourites_favourites_count",
        &saturating,
    ];
    for expr in &exprs {
        zoo::assert_engine_seams(expr, &records);
    }
    zoo::assert_batch_seams(&exprs, &records);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The per-word counter step against the scalar saturating counter:
    /// random hit patterns (dense and sparse words, and words where every
    /// lane hits), counters entering at 0..=127 — often close enough to
    /// 127 to saturate inside the word — targets 1..=126 and 127 in the
    /// unused lanes. The counters leaving the word and every position's
    /// fires must match, and the may-fire bound must hold wherever a lane
    /// fires.
    #[test]
    fn run_word_equals_the_scalar_counter(
        used in 1usize..=LANES,
        hit_bits in prop_oneof![
            3 => proptest::collection::vec(prop_oneof![
                2 => any::<u8>(), 1 => Just(0xffu8), 1 => Just(0u8),
            ], WORD),
            1 => Just(vec![0xffu8; WORD]),
        ],
        c_in in proptest::collection::vec(prop_oneof![0u32..=127, 119u32..=127], LANES),
        targets in proptest::collection::vec(1u32..=126, LANES),
    ) {
        // Bit `lane` of `hit_bits[j]`: whether that lane hits on byte j.
        let hit_word = |bits: u8| {
            let lanes = (0..LANES).filter(|lane| bits >> lane & 1 != 0);
            lanes.fold(0u64, |w, lane| w | 0xff << (8 * lane))
        };
        let run = RunWord::new(std::array::from_fn(|j| hit_word(hit_bits[j])));
        let packed_targets = pack_targets(&targets[..used])[0];
        // Counters one byte per lane, clamped at the 127 ceiling.
        let pack = |c: &[u32]| {
            (0..LANES).fold(0u64, |w, lane| w | u64::from(c[lane].min(127)) << (8 * lane))
        };
        let packed_in = pack(&c_in);
        let fires = run.fires(packed_in, packed_targets);

        let mut want_fires = [0u64; WORD];
        let mut c = [0u32; LANES];
        for lane in 0..LANES {
            let target = if lane < used { targets[lane] } else { 127 };
            c[lane] = c_in[lane];
            for (j, bits) in hit_bits.iter().enumerate() {
                c[lane] = if bits >> lane & 1 != 0 { (c[lane] + 1).min(127) } else { 0 };
                if c[lane] >= target {
                    want_fires[j] |= 0x80 << (8 * lane);
                }
            }
        }
        prop_assert_eq!(run.carry(packed_in), pack(&c));
        prop_assert_eq!(fires, want_fires);
        if fires != [0; WORD] {
            prop_assert!(run.may_fire(packed_in, packed_targets));
        }
    }

    /// Random NUL-free needles over a tiny alphabet (repeated letters,
    /// overlapping and duplicate blocks, units sharing blocks, sometimes
    /// more than one bank of them), every block length up to 12, random
    /// soup with NUL bytes in it, and a random word/byte schedule on
    /// a random word alignment.
    #[test]
    fn automaton_equals_reference_matchers(
        specs in proptest::collection::vec(
            (proptest::collection::vec(prop_oneof![
                4 => Just(b'a'), 3 => Just(b'b'), 2 => Just(b'c'), 1 => Just(b'_'),
            ], 1..16), 1usize..=12),
            1..12,
        ),
        soup in proptest::collection::vec(prop_oneof![
            4 => Just(b'a'), 3 => Just(b'b'), 2 => Just(b'c'), 1 => Just(b'_'),
            1 => Just(0u8), 1 => Just(b'x'),
        ], 0..160),
        period in 1usize..40,
        align in 0..WORD,
    ) {
        let mut units: Vec<SubstringMatcher> = specs
            .iter()
            .map(|(needle, b)| unit(needle, (*b).min(needle.len())))
            .collect();
        units.push(units[0].clone()); // a duplicate unit keeps its own lane
        // The needles themselves make the soup hit.
        let mut stream = soup.clone();
        for (needle, _) in &specs {
            stream.extend_from_slice(needle);
        }
        stream.extend_from_slice(&soup);
        assert_equiv(&units, &stream, |pos| pos >= align && (pos - align) / period % 2 == 0);
        assert_equiv(&units, &stream, |pos| pos >= align);
        assert_equiv(&units, &stream, |_| false);
    }
}
