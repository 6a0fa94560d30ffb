//! SWAR (SIMD-within-a-register) word-level byte classification.
//!
//! The paper's FPGA derives every structural fact in one LUT stage per
//! byte; the software analogue of that spatial parallelism is word-level
//! parallelism. This module classifies 8 bytes per step using only safe
//! integer arithmetic (the workspace forbids `unsafe`, so no `std::arch`
//! intrinsics): [`class_masks`] reads eight one-bit classes per byte from
//! a 256-entry table and transposes them into one mask per class —
//! [`STRUCTURE_CLASSES`] holds the structural ones (quotes, backslashes,
//! openers, closers, commas, newlines) — and [`string_mask_word`] is a
//! carry-aware resolution of the [`StringMask`](crate::StringMask)
//! automaton over a whole word at once. The newline hop, [`find_byte`],
//! tests 32 bytes per step with a compare loop the compiler vectorises,
//! still in safe code.
//!
//! Bit `j` of every `u8` mask refers to byte `j` of the word in stream
//! order (words are loaded little-endian so lane order equals byte
//! order on every supported target).
//!
//! The equivalence contract — these masks agree bit-for-bit with the
//! byte-serial [`classify`](crate::classify::classify) LUT and
//! [`StringMask`](crate::StringMask), and the depths, closes and commas
//! they give equal [`StreamTracker`](crate::StreamTracker)'s — is held by
//! unit tests here and the property tests in `tests/swar_equiv.rs`.

use crate::classify::BYTE_CLASS;

/// Bytes per SWAR word.
pub const WORD_BYTES: usize = 8;

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Loads 8 stream bytes into a word; lane `j` (bits `8j..8j+8`) is byte
/// `j` in stream order.
#[inline]
pub fn load_word(chunk: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*chunk)
}

/// `0x80` in every lane of `w` whose byte is zero, `0x00` elsewhere.
///
/// Exact per-lane zero detection (Hacker's Delight): a lane is zero iff
/// its low 7 bits are zero (no carry out of `(w & LOW7) + LOW7`) *and*
/// its high bit is zero. No carry ever crosses a lane boundary, so —
/// unlike the classic `(w - LO) & !w & HI` — this form has no false
/// positives next to `0x01`/`0x00` lane pairs.
#[inline]
pub fn zero_bytes(w: u64) -> u64 {
    let carries = (w & LOW7) + LOW7;
    !(carries | w) & HI
}

/// `0x80` in every lane of `w` whose byte equals `b`.
#[inline]
pub fn eq_bytes(w: u64, b: u8) -> u64 {
    zero_bytes(w ^ (u64::from(b) * LO))
}

/// Per-word structural bitmasks — the SWAR image of the byte-class LUT
/// ([`BYTE_CLASS`]) plus the newline mask
/// used for framing. Bit `j` of each mask refers to byte `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WordMasks {
    /// `"` bytes.
    pub quotes: u8,
    /// `\` bytes.
    pub backslashes: u8,
    /// `{` or `[` bytes.
    pub opens: u8,
    /// `}` or `]` bytes.
    pub closes: u8,
    /// `,` bytes.
    pub commas: u8,
    /// `\n` bytes.
    pub newlines: u8,
}

impl WordMasks {
    /// All bytes with any structural class (everything but
    /// [`ByteClass::Other`](crate::classify::ByteClass::Other)).
    #[inline]
    pub fn specials(&self) -> u8 {
        self.quotes | self.backslashes | self.opens | self.closes | self.commas
    }
}

/// The structural byte classes, one bit each in [`WordMasks`] field
/// order: quote, backslash, open, close and comma — the classes of
/// [`BYTE_CLASS`] — and newline. Bits 6 and 7 are clear, so a caller can
/// shift the table up to make room for classes of its own.
pub const STRUCTURE_CLASSES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        // `ByteClass` numbers Other 0 and the structural classes 1..=5 in
        // field order, so class `c` is bit `c - 1` and Other no bit.
        table[b] = (1u8 << BYTE_CLASS[b] as u8) >> 1;
        b += 1;
    }
    table[b'\n' as usize] = 1 << 5;
    table
};

/// Classifies all 8 bytes of a word at once: [`class_masks`] over
/// [`STRUCTURE_CLASSES`], one field per class. Agrees bit-for-bit with
/// [`classify`](crate::classify::classify) per byte.
#[inline]
pub fn classify_word(w: u64) -> WordMasks {
    let [quotes, backslashes, opens, closes, commas, newlines, ..] =
        class_masks(&w.to_le_bytes(), &STRUCTURE_CLASSES);
    WordMasks {
        quotes,
        backslashes,
        opens,
        closes,
        commas,
        newlines,
    }
}

/// Eight one-bit byte classes of a word at once, through a class table:
/// bit `k` of `table[b]` says whether byte value `b` is in class `k`, and
/// byte `k` of the result is class `k`'s mask over `bytes` (bit `j` =
/// byte `j`).
///
/// One table read per byte and an 8 × 8 bit transpose (Hacker's Delight
/// §7-3) answer eight classes for the price of one, where compares would
/// cost a compare and a packing multiply per class.
#[inline]
pub fn class_masks(bytes: &[u8; WORD_BYTES], table: &[u8; 256]) -> [u8; 8] {
    // Lane j holds byte j's classes: row j of the matrix, bit 8j + k.
    let mut x = u64::from_le_bytes(bytes.map(|b| table[b as usize]));
    // Swap bit 8j + k with bit 8k + j: 2 × 2, then 4 × 4 blocks.
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x.to_le_bytes()
}

/// The two state bits of the [`StringMask`](crate::StringMask)
/// automaton, carried between words.
///
/// Invariant (inherited from `StringMask`): `pending_escape` implies
/// `in_string` — an escape can only be pending inside a string literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StringState {
    /// Inside a string literal.
    pub in_string: bool,
    /// The next byte is escaped by a preceding `\`.
    pub pending_escape: bool,
}

/// Inclusive 8-bit prefix XOR: bit `j` of the result is the XOR of bits
/// `0..=j` of `m` (log-step Sklansky form).
#[inline]
fn prefix_xor(mut m: u8) -> u8 {
    m ^= m << 1;
    m ^= m << 2;
    m ^= m << 4;
    m
}

/// Resolves one word of the string-mask automaton: given the word's
/// quote and backslash masks and the carry-in state, returns the
/// per-byte *masked* bits (bit `j` set iff byte `j` is part of a string
/// literal) and the carry-out state — bit-identical to feeding the 8
/// bytes through [`StringMask::on_byte`](crate::StringMask::on_byte).
///
/// Fast path: a word with no backslashes and no pending escape toggles
/// the in-string state at every quote, so the per-byte state is a
/// prefix XOR of the quote mask. Otherwise the (rare) special positions
/// are stepped through the exact two-bit automaton — in particular a
/// backslash **outside** a string escapes nothing, which is where the
/// well-known simdjson backslash-run trick diverges from `StringMask`
/// on arbitrary byte soup.
#[inline]
pub fn string_mask_word(quotes: u8, backslashes: u8, state: StringState) -> (u8, StringState) {
    let carry = if state.in_string { 0xff } else { 0x00 };
    if backslashes == 0 && !state.pending_escape {
        // Every quote toggles; in-string-before is the exclusive prefix
        // XOR of the toggle mask, seeded with the carry.
        let before = (prefix_xor(quotes) << 1) ^ carry;
        let masked = before | quotes;
        let out = StringState {
            in_string: state.in_string ^ (quotes.count_ones() & 1 == 1),
            pending_escape: false,
        };
        return (masked, out);
    }
    // Exact automaton over the special positions only; ordinary bytes
    // cannot change the state (they at most consume a pending escape,
    // tracked by position).
    let mut in_s = state.in_string;
    let mut toggles: u8 = 0;
    // Position of the byte consumed by a pending escape; 9 = none
    // (a carry-in escape consumes byte 0).
    let mut esc_pos: u32 = if state.pending_escape { 0 } else { 9 };
    let mut specials = quotes | backslashes;
    while specials != 0 {
        let i = specials.trailing_zeros();
        specials &= specials - 1;
        if i == esc_pos {
            continue; // this special byte is escaped: no effect
        }
        if quotes & (1 << i) != 0 {
            in_s = !in_s;
            toggles |= 1 << i;
        } else if in_s {
            // Backslash inside a string escapes the next byte; outside
            // a string it is inert.
            esc_pos = i + 1;
        }
    }
    let before = (prefix_xor(toggles) << 1) ^ carry;
    // Quotes are always masked: opening (outside → inside), closing and
    // escaped quotes are all part of the literal.
    let masked = before | quotes;
    let out = StringState {
        in_string: in_s,
        pending_escape: esc_pos == 8,
    };
    (masked, out)
}

/// Bytes per block of the [`find_byte`] hop: four words.
pub const BLOCK_BYTES: usize = 32;

/// Index of the first occurrence of `needle` in `hay` — the newline hop
/// of every framing loop, and the candidate scan of [`contains`].
///
/// Whole 32-byte blocks are tested with a branch-free OR-reduction of
/// per-byte compares, which the compiler turns into vector compares at
/// the target's baseline (SSE2 on x86-64) from safe code; the block that
/// hits, and the sub-block tail, are searched a word at a time
/// ([`eq_bytes`]).
#[inline]
pub fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let mut blocks = hay.chunks_exact(BLOCK_BYTES);
    let mut offset = 0usize;
    for block in blocks.by_ref() {
        let block: &[u8; BLOCK_BYTES] = block.try_into().expect("32-byte block");
        if block.iter().fold(0, |a, &b| a | u8::from(b == needle)) != 0 {
            return find_byte_words(block, needle).map(|p| offset + p);
        }
        offset += BLOCK_BYTES;
    }
    find_byte_words(blocks.remainder(), needle).map(|p| offset + p)
}

/// [`find_byte`] eight bytes per step, with a byte loop for the tail.
#[inline]
fn find_byte_words(hay: &[u8], needle: u8) -> Option<usize> {
    let mut chunks = hay.chunks_exact(WORD_BYTES);
    let mut offset = 0usize;
    for chunk in chunks.by_ref() {
        let w = load_word(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let m = eq_bytes(w, needle);
        if m != 0 {
            // First matching lane j has bit 8j+7 set.
            return Some(offset + m.trailing_zeros() as usize / 8);
        }
        offset += WORD_BYTES;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|p| offset + p)
}

/// Whether `hay` contains `needle` as a contiguous substring —
/// first-byte candidates from [`find_byte`] plus verification, used
/// by the record-level literal prefilter. An empty needle is always
/// contained.
pub fn contains(hay: &[u8], needle: &[u8]) -> bool {
    match needle.len() {
        0 => true,
        1 => find_byte(hay, needle[0]).is_some(),
        n if n > hay.len() => false,
        n => {
            let first = needle[0];
            let last_start = hay.len() - n;
            let mut from = 0usize;
            while from <= last_start {
                match find_byte(&hay[from..=last_start], first) {
                    Some(p) => {
                        let pos = from + p;
                        if &hay[pos..pos + n] == needle {
                            return true;
                        }
                        from = pos + 1;
                    }
                    None => return false,
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ByteClass};
    use crate::StringMask;

    #[test]
    fn zero_bytes_is_exact_per_lane() {
        assert_eq!(zero_bytes(0), HI);
        assert_eq!(zero_bytes(u64::MAX), 0);
        // The classic borrow-propagating detector flags lane 1 of
        // 0x0100; the exact form must not (lane 1 holds 0x01 — only
        // lane 0 and the upper all-zero lanes report).
        assert_eq!(zero_bytes(0x0100), HI & !(0x80u64 << 8));
        for lane in 0..8 {
            for v in [0u64, 1, 0x7f, 0x80, 0xff] {
                let w = !(0xffu64 << (8 * lane)) | (v << (8 * lane));
                let expect = if v == 0 { 0x80u64 << (8 * lane) } else { 0 };
                assert_eq!(zero_bytes(w), expect, "lane {lane} value {v:#x}");
            }
        }
    }

    #[test]
    fn classify_word_matches_lut_on_all_bytes() {
        // Every byte value, each in every lane position against a
        // neutral background.
        use ByteClass::{Backslash, Close, Comma, Open, Quote};
        for b in 0u8..=255 {
            let class = classify(b);
            for lane in 0..8 {
                let mut chunk = [b'x'; 8];
                chunk[lane] = b;
                let m = classify_word(load_word(&chunk));
                let want = |hit: bool| u8::from(hit) << lane;
                let got = [m.quotes, m.backslashes, m.opens, m.closes, m.commas];
                for (mask, c) in got.into_iter().zip([Quote, Backslash, Open, Close, Comma]) {
                    assert_eq!(mask, want(class == c), "byte {b:#x} as {c:?}");
                }
                assert_eq!(m.newlines, want(b == b'\n'), "byte {b:#x}");
                assert_eq!(m.specials(), want(class != ByteClass::Other));
            }
        }
    }

    #[test]
    fn class_masks_transpose_the_table_bits() {
        // A table whose classes are bits of the byte value itself, and
        // one of scattered classes, over words of every single value in
        // every lane and a few mixed words.
        let identity: [u8; 256] = std::array::from_fn(|b| b as u8);
        let scattered: [u8; 256] = std::array::from_fn(|b| (b as u8).wrapping_mul(167) ^ 0x5a);
        let mut words: Vec<[u8; 8]> = vec![*b"{\"v\":-1e", [0xff; 8], [0; 8], *b"a\\b,\n]}["];
        for b in 0u16..=255 {
            for lane in 0..8 {
                let mut word = [b'x'; 8];
                word[lane] = b as u8;
                words.push(word);
            }
        }
        for table in [&identity, &scattered] {
            for bytes in &words {
                let masks = class_masks(bytes, table);
                for (k, &mask) in masks.iter().enumerate() {
                    let want = bytes
                        .iter()
                        .enumerate()
                        .map(|(j, &b)| (table[b as usize] >> k & 1) << j)
                        .fold(0, |m, bit| m | bit);
                    assert_eq!(mask, want, "class {k} of {bytes:?}");
                }
            }
        }
    }

    /// Scalar reference: run `StringMask` over the word, returning the
    /// per-byte mask bits and the carry-out state.
    fn scalar_string_mask(chunk: [u8; 8], state: StringState) -> (u8, StringState) {
        let mut m = StringMask::new();
        m.restore(state.in_string, state.pending_escape);
        let mut masked = 0u8;
        for (j, &b) in chunk.iter().enumerate() {
            if m.on_byte(b) {
                masked |= 1 << j;
            }
        }
        (
            masked,
            StringState {
                in_string: m.in_string(),
                pending_escape: m.pending_escape(),
            },
        )
    }

    fn assert_word_matches(chunk: [u8; 8], state: StringState) {
        let w = load_word(&chunk);
        let masks = classify_word(w);
        let got = string_mask_word(masks.quotes, masks.backslashes, state);
        let expect = scalar_string_mask(chunk, state);
        assert_eq!(
            got,
            expect,
            "chunk {:?} state {state:?}",
            String::from_utf8_lossy(&chunk)
        );
    }

    #[test]
    fn string_mask_word_matches_scalar_on_escape_zoo() {
        let states = [
            StringState::default(),
            StringState {
                in_string: true,
                pending_escape: false,
            },
            StringState {
                in_string: true,
                pending_escape: true,
            },
        ];
        let chunks: Vec<&[u8; 8]> = vec![
            b"abcdefgh",
            br#""a"b"c"d"#,
            br#"x\"y"z"w"#, // backslash OUTSIDE a string escapes nothing
            br#""a\"b\\""#,
            br"\\\\\\\\",
            br#""\\\\\\\"#, // escape chain ending at the word boundary
            br#"\"quoted"#,
            br#"{"k":"v""#,
            b"\xff\"\xfe\\\x80\"\x00\"",
        ];
        for chunk in chunks {
            for state in states {
                assert_word_matches(*chunk, state);
            }
        }
    }

    #[test]
    fn string_mask_word_carries_across_words_exhaustively() {
        // All 4^8 words over the alphabet {quote, backslash, 'a', 'Z'}
        // chained two words deep from every start state — the escape
        // and quote interactions this small alphabet generates cover
        // every transition of the automaton, including carries.
        let alphabet = [b'"', b'\\', b'a', b'Z'];
        for code in 0u32..4u32.pow(8) {
            let mut chunk = [0u8; 8];
            let mut c = code;
            for slot in &mut chunk {
                *slot = alphabet[(c & 3) as usize];
                c >>= 2;
            }
            let mut state = StringState::default();
            for _ in 0..2 {
                let w = load_word(&chunk);
                let masks = classify_word(w);
                let (got_mask, got_state) =
                    string_mask_word(masks.quotes, masks.backslashes, state);
                let (want_mask, want_state) = scalar_string_mask(chunk, state);
                assert_eq!(
                    (got_mask, got_state),
                    (want_mask, want_state),
                    "chunk {:?} state {state:?}",
                    String::from_utf8_lossy(&chunk)
                );
                state = got_state;
            }
        }
    }

    #[test]
    fn find_byte_matches_position() {
        let hay = b"{\"a\":1}\r\n{\"b\":2}\n tail without newline";
        for needle in [b'\n', b'\r', b'"', b'z', b'{', b' '] {
            assert_eq!(
                find_byte(hay, needle),
                hay.iter().position(|&b| b == needle),
                "needle {needle:#x}"
            );
        }
        for len in 0..hay.len() {
            assert_eq!(
                find_byte(&hay[..len], b'\n'),
                hay[..len].iter().position(|&b| b == b'\n'),
                "prefix {len}"
            );
        }
        assert_eq!(find_byte(b"", b'\n'), None);
    }

    #[test]
    fn contains_matches_windows_scan() {
        let hay: &[u8] = br#"{"name":"temperature","value":35.2}"#;
        let needles: Vec<&[u8]> = vec![
            b"",
            b"t",
            b"temperature",
            b"35.2}",
            br#"{"name"#,
            b"humidity",
            b"temperaturf",
            br#"{"name":"temperature","value":35.2}"#,
            br#"{"name":"temperature","value":35.2}x"#,
        ];
        for needle in needles {
            let expect = needle.is_empty()
                || (needle.len() <= hay.len() && hay.windows(needle.len()).any(|w| w == needle));
            assert_eq!(
                contains(hay, needle),
                expect,
                "needle {:?}",
                String::from_utf8_lossy(needle)
            );
        }
    }
}
