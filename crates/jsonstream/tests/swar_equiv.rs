//! Differential properties: the SWAR word classifier against the scalar
//! byte-class LUT and `StringMask`, on arbitrary byte soup — including
//! `\"`/`\\` escape chains that span word boundaries, CRLF, NUL and
//! non-ASCII bytes.

use proptest::prelude::*;
use rfjson_jsonstream::swar::{
    self, classify_word, load_word, string_mask_word, StringState, WORD_BYTES,
};
use rfjson_jsonstream::{classify, ByteClass, StringMask};

/// Scalar oracle: per-byte class bits and string-mask bits for a whole
/// stream, chunked exactly like the SWAR path would see it.
fn scalar_masks(stream: &[u8]) -> (Vec<ByteClass>, Vec<bool>) {
    let classes = stream.iter().map(|&b| classify(b)).collect();
    (classes, StringMask::mask_of(stream))
}

/// Runs the SWAR classifier word-by-word (scalar tail), carrying the
/// string state across words, and flattens the per-byte facts.
fn swar_masks(stream: &[u8]) -> (Vec<ByteClass>, Vec<bool>) {
    let mut classes = Vec::with_capacity(stream.len());
    let mut masked = Vec::with_capacity(stream.len());
    let mut state = StringState::default();
    let mut chunks = stream.chunks_exact(WORD_BYTES);
    for chunk in chunks.by_ref() {
        let w = load_word(chunk.try_into().unwrap());
        let m = classify_word(w);
        let (mask_bits, next) = string_mask_word(m.quotes, m.backslashes, state);
        state = next;
        for (j, &b) in chunk.iter().enumerate() {
            let bit = 1u8 << j;
            let class = if m.quotes & bit != 0 {
                ByteClass::Quote
            } else if m.backslashes & bit != 0 {
                ByteClass::Backslash
            } else if m.opens & bit != 0 {
                ByteClass::Open
            } else if m.closes & bit != 0 {
                ByteClass::Close
            } else if m.commas & bit != 0 {
                ByteClass::Comma
            } else {
                ByteClass::Other
            };
            assert_eq!(m.newlines & bit != 0, b == b'\n', "newline mask");
            classes.push(class);
            masked.push(mask_bits & bit != 0);
        }
    }
    // Word-boundary fallback: the tail runs byte-serial from the synced
    // carry state, exactly like the engine's block path.
    let mut tail_mask = StringMask::new();
    tail_mask.restore(state.in_string, state.pending_escape);
    for &b in chunks.remainder() {
        classes.push(classify(b));
        masked.push(tail_mask.on_byte(b));
    }
    (classes, masked)
}

fn assert_equiv(stream: &[u8]) {
    let (want_classes, want_masked) = scalar_masks(stream);
    let (got_classes, got_masked) = swar_masks(stream);
    assert_eq!(got_classes, want_classes, "{stream:?}");
    assert_eq!(got_masked, want_masked, "{stream:?}");
}

#[test]
fn escape_chains_spanning_word_boundaries() {
    // Backslash runs of every length straddling the 8-byte boundary at
    // every offset, inside and outside strings.
    for open in [true, false] {
        for run in 0..12usize {
            for offset in 0..9usize {
                let mut s = Vec::new();
                if open {
                    s.push(b'"');
                }
                s.extend(std::iter::repeat_n(b'x', offset));
                s.extend(std::iter::repeat_n(b'\\', run));
                s.extend_from_slice(b"\"tail\"with{struct},bytes");
                assert_equiv(&s);
            }
        }
    }
}

#[test]
fn crlf_nul_and_non_ascii() {
    let streams: Vec<&[u8]> = vec![
        b"{\"a\":1}\r\n{\"b\":\"\xc3\xa9\"}\r\n",
        b"\x00\x00\"\x00\\\x00\"\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        b"\xff\xfe\xfd{\x80[\x81]\x82},\"\xf0\x9f\x92\xa9\"",
        b"\r\r\r\r\r\r\r\r\n",
    ];
    for s in streams {
        assert_equiv(s);
    }
}

proptest! {
    #[test]
    fn classifier_matches_lut_on_byte_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        assert_equiv(&bytes);
    }

    #[test]
    fn string_heavy_soup_matches(
        // Skew the alphabet toward the structural characters so quote
        // and escape interactions dominate.
        picks in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        const ALPHABET: &[u8] = b"\"\\{}[],\r\nax\xff\x00";
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&p| ALPHABET[p as usize % ALPHABET.len()])
            .collect();
        assert_equiv(&bytes);
    }

    #[test]
    fn find_byte_matches_position_on_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        needle in any::<u8>(),
        from in 0usize..200,
    ) {
        let from = from.min(bytes.len());
        prop_assert_eq!(
            swar::find_byte(&bytes[from..], needle),
            bytes[from..].iter().position(|&b| b == needle)
        );
    }

    #[test]
    fn contains_matches_naive_search(
        hay in prop::collection::vec(any::<u8>(), 0..120),
        needle in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        let expect = needle.is_empty()
            || (needle.len() <= hay.len()
                && hay.windows(needle.len()).any(|w| w == &needle[..]));
        prop_assert_eq!(swar::contains(&hay, &needle), expect);
    }
}

/// Needle bytes at the edges of the byte range and of the compare: NUL,
/// the separator, the first byte with the high bit set, and all ones.
const HOP_NEEDLES: [u8; 4] = [0x00, b'\n', 0x80, 0xff];

/// A hay of `len` bytes none of which is `needle`, varied so that every
/// other needle value occurs in it.
fn hay_without(len: usize, needle: u8) -> Vec<u8> {
    (0..len)
        .map(|i| match (i * 37 % 256) as u8 {
            b if b == needle => needle ^ 1,
            b => b,
        })
        .collect()
}

#[test]
fn find_byte_finds_the_needle_at_every_position_across_blocks() {
    // Lengths past four 32-byte blocks, so the needle sits in the first,
    // a middle and the last block, on both sides of each block edge
    // (31 | 32 | 33, 63 | 64 | 65), and in the sub-block tail.
    for needle in HOP_NEEDLES {
        for len in 0..=160 {
            let hay = hay_without(len, needle);
            assert_eq!(swar::find_byte(&hay, needle), None, "absent, len {len}");
            for at in 0..len {
                let mut hay = hay.clone();
                hay[at] = needle;
                assert_eq!(
                    swar::find_byte(&hay, needle),
                    Some(at),
                    "needle {needle:#x} at {at} of {len}"
                );
                // A second occurrence later does not move the answer.
                if at + 1 < len {
                    hay[len - 1] = needle;
                    assert_eq!(swar::find_byte(&hay, needle), Some(at));
                }
            }
        }
    }
}

#[test]
fn contains_matches_naive_search_at_every_position_across_blocks() {
    let naive = |hay: &[u8], needle: &[u8]| {
        needle.is_empty()
            || (needle.len() <= hay.len() && hay.windows(needle.len()).any(|w| w == needle))
    };
    for first in HOP_NEEDLES {
        let needle = [first, b'"', first];
        for len in 0..=160 {
            let hay = hay_without(len, first);
            assert!(!swar::contains(&hay, &needle), "absent, len {len}");
            for at in 0..len {
                let mut hay = hay.clone();
                // The full needle where it fits, else a cut-off prefix.
                let end = (at + needle.len()).min(len);
                hay[at..end].copy_from_slice(&needle[..end - at]);
                assert_eq!(
                    swar::contains(&hay, &needle),
                    naive(&hay, &needle),
                    "needle {needle:?} at {at} of {len}"
                );
                assert!(swar::contains(&hay, &[first]), "one byte at {at} of {len}");
            }
        }
    }
}
