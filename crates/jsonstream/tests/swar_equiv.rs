//! Differential properties: the SWAR word classifier against the scalar
//! byte-class LUT, `StringMask` and the structure oracle `StreamTracker`,
//! on arbitrary byte soup — including `\"`/`\\` escape chains that span
//! word boundaries, CRLF, NUL and non-ASCII bytes.

use proptest::prelude::*;
use rfjson_jsonstream::swar::{
    self, class_masks, string_mask_word, StringState, STRUCTURE_CLASSES, WORD_BYTES,
};
use rfjson_jsonstream::{classify, ByteClass, ByteInfo, StreamTracker, StringMask};

/// What one byte is, as the word kernel needs to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Facts {
    class: ByteClass,
    newline: bool,
    in_string: bool,
    structure: ByteInfo,
}

/// The structural classes of [`STRUCTURE_CLASSES`], in bit order, before
/// the newline bit.
const CLASSES: [ByteClass; 5] = [
    ByteClass::Quote,
    ByteClass::Backslash,
    ByteClass::Open,
    ByteClass::Close,
    ByteClass::Comma,
];

/// Scalar oracle: the byte-class LUT, `StringMask` and `StreamTracker`,
/// a byte at a time.
fn scalar_facts(stream: &[u8]) -> Vec<Facts> {
    let masked = StringMask::mask_of(stream);
    let mut tracker = StreamTracker::new();
    stream
        .iter()
        .zip(masked)
        .map(|(&b, in_string)| Facts {
            class: classify(b),
            newline: b == b'\n',
            in_string,
            structure: tracker.on_byte(b),
        })
        .collect()
}

/// The word form, as the engine kernel runs it: the stream padded to
/// whole words with separators, one [`class_masks`] read of
/// [`STRUCTURE_CLASSES`] and one [`string_mask_word`] per word, carrying
/// the string state across words; then the kernel's depth rule over the
/// unmasked opens and closes — an open counts inside the level it opens,
/// a close inside the level it closes. The kernel's reset at `\n` is left
/// out: the tracker knows no records, its caller resets it.
fn word_facts(stream: &[u8]) -> Vec<Facts> {
    let mut padded = stream.to_vec();
    padded.resize(stream.len().next_multiple_of(WORD_BYTES), b'\n');
    let mut facts = Vec::with_capacity(padded.len());
    let mut state = StringState::default();
    let mut depth = 0u32;
    for chunk in padded.chunks_exact(WORD_BYTES) {
        let bytes: &[u8; WORD_BYTES] = chunk.try_into().unwrap();
        let masks = class_masks(bytes, &STRUCTURE_CLASSES);
        let [quotes, backslashes, opens, closes, commas, newlines, spare @ ..] = masks;
        assert_eq!(spare, [0, 0], "{bytes:?}");
        let (masked, next) = string_mask_word(quotes, backslashes, state);
        state = next;
        for (j, &byte) in bytes.iter().enumerate() {
            let bit = 1u8 << j;
            let mut hits = CLASSES.iter().zip(masks).filter(|(_, m)| m & bit != 0);
            let class = hits.next().map_or(ByteClass::Other, |(&c, _)| c);
            assert!(hits.next().is_none(), "two classes for {byte:#04x}");
            let structural = !masked & bit != 0;
            if structural && opens & bit != 0 {
                depth += 1;
            }
            let is_close = structural && closes & bit != 0;
            facts.push(Facts {
                class,
                newline: newlines & bit != 0,
                in_string: masked & bit != 0,
                structure: ByteInfo {
                    byte,
                    depth,
                    is_close,
                    is_comma: structural && commas & bit != 0,
                },
            });
            if is_close {
                depth = depth.saturating_sub(1);
            }
        }
    }
    facts.truncate(stream.len());
    facts
}

fn assert_equiv(stream: &[u8]) {
    let want = scalar_facts(stream);
    let got = word_facts(stream);
    assert_eq!(got.len(), want.len());
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "byte {i} of {stream:?}");
    }
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
