//! The number / number-range raw filter (§III-B).
//!
//! A range DFA (from `rfjson-redfa`) runs over every **number token** — a
//! maximal run of bytes from `0-9 + - . e E`. The verdict is taken at the
//! first byte *after* the token ("the DFA is evaluated every time a
//! non-numeric character is seen, as it has to mark the end of the
//! number"), then the automaton resets and waits for the next token.
//!
//! That is the paper's primitive, [`NumberTechnique::Token`]: it judges
//! the hex digits of an ID, the `e`s of a key and the pieces of a date
//! as well. [`NumberTechnique::Anchored`] judges a token only where a
//! parser could read it as a whole number: the byte before its first
//! byte is an **anchor byte** ([`is_anchor_byte`]: JSON whitespace and
//! the other bytes ≤ `0x20`, `"`, `,`, `:`, `[`, `]`, `{`, `}`) or the
//! token starts the record, and the byte that ends it is one too. A
//! number the parser reads is an unquoted value, preceded by `:`, `,`,
//! `[` or whitespace and followed by `,`, `}`, `]` or whitespace, or a
//! string whose whitespace-trimmed content is the number, so `"` joins
//! both sides; one set serves both tests and the technique drops no
//! record the parser would select. It costs two state bits — "the byte
//! before was an anchor byte" (set at reset: the separator is one) and
//! "the open token is anchored" — and one byte-set test.

use super::FireFilter;
use crate::expr::NumberTechnique;
use rfjson_redfa::range::is_number_byte;
use rfjson_redfa::{Dfa, NumberBounds};

/// Whether `b` is an anchor byte of [`NumberTechnique::Anchored`]: at
/// most `0x20`, or one of `"`, `,`, `:`, `[`, `]`, `{`, `}`.
#[inline]
pub const fn is_anchor_byte(b: u8) -> bool {
    b <= 0x20 || matches!(b, b'"' | b',' | b':' | b'[' | b']' | b'{' | b'}')
}

/// Byte-serial number-range filter, `v(ℓ ≤ i|f ≤ u)` in paper notation
/// (`va(…)` anchored).
///
/// # Example
///
/// ```
/// use rfjson_core::primitive::{NumberMatcher, FireFilter};
/// use rfjson_core::NumberTechnique;
/// use rfjson_redfa::NumberBounds;
///
/// let bounds = NumberBounds::int_range(12, 49);
/// let mut v = NumberMatcher::new(bounds.clone(), NumberTechnique::Token);
/// assert!(v.fired_in_record(br#"{"v":"20","u":"per"}"#));
/// assert!(!v.fired_in_record(br#"{"v":"350","u":"per"}"#));
/// // Inside an ID only the paper's technique fires.
/// assert!(v.fired_in_record(br#"{"id":"AB20CD"}"#));
/// let mut va = NumberMatcher::new(bounds, NumberTechnique::Anchored);
/// assert!(va.fired_in_record(br#"{"v":"20","u":"per"}"#));
/// assert!(!va.fired_in_record(br#"{"id":"AB20CD"}"#));
/// ```
#[derive(Debug, Clone)]
pub struct NumberMatcher {
    bounds: NumberBounds,
    technique: NumberTechnique,
    dfa: Dfa,
    state: u16,
    in_token: bool,
    /// The open token started after an anchor byte (or at reset).
    anchored: bool,
    /// The byte before was an anchor byte; set at reset.
    after_anchor: bool,
}

impl NumberMatcher {
    /// Builds the filter for `bounds` (with the approximate exponent
    /// clause, as synthesised in the paper), implemented by `technique`.
    pub fn new(bounds: NumberBounds, technique: NumberTechnique) -> Self {
        let dfa = bounds.to_dfa();
        let state = dfa.start();
        NumberMatcher {
            bounds,
            technique,
            dfa,
            state,
            in_token: false,
            anchored: false,
            after_anchor: true,
        }
    }

    /// The value range.
    pub fn bounds(&self) -> &NumberBounds {
        &self.bounds
    }

    /// The range automaton (for elaboration / resource reports).
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }
}

impl FireFilter for NumberMatcher {
    fn on_byte(&mut self, b: u8) -> bool {
        if is_number_byte(b) {
            if !self.in_token {
                self.anchored = self.after_anchor;
            }
            self.state = self.dfa.step(self.state, b);
            self.in_token = true;
            self.after_anchor = false;
            false
        } else {
            let anchor = is_anchor_byte(b);
            let judged = match self.technique {
                NumberTechnique::Token => true,
                NumberTechnique::Anchored => self.anchored && anchor,
            };
            let fire = self.in_token && judged && self.dfa.is_accept(self.state);
            self.state = self.dfa.start();
            self.in_token = false;
            self.after_anchor = anchor;
            fire
        }
    }

    fn reset(&mut self) {
        self.state = self.dfa.start();
        self.in_token = false;
        self.anchored = false;
        self.after_anchor = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfjson_redfa::range::NumberKind;
    use rfjson_redfa::Decimal;

    fn float_bounds(lo: &str, hi: &str) -> NumberBounds {
        NumberBounds::new(
            lo.parse::<Decimal>().unwrap(),
            hi.parse::<Decimal>().unwrap(),
            NumberKind::Float,
        )
        .unwrap()
    }

    #[test]
    fn fires_at_token_boundary() {
        let mut v = NumberMatcher::new(NumberBounds::int_range(10, 20), NumberTechnique::Token);
        // "15," — fire happens at the comma, not at the digits.
        assert!(!v.on_byte(b'1'));
        assert!(!v.on_byte(b'5'));
        assert!(v.on_byte(b','));
        // And the automaton restarts cleanly.
        assert!(!v.on_byte(b'9'));
        assert!(!v.on_byte(b','));
    }

    #[test]
    fn quoted_senml_values_are_tokens_too() {
        // SenML stores numbers as strings; the raw filter doesn't care.
        let mut v = NumberMatcher::new(float_bounds("0.7", "35.1"), NumberTechnique::Token);
        assert!(v.fired_in_record(br#"{"v":"21.5","u":"far"}"#));
        assert!(!v.fired_in_record(br#"{"v":"35.2","u":"far"}"#));
    }

    #[test]
    fn letters_with_e_do_not_false_fire() {
        // 'e' is a number byte; "far"/"per" contain no digits though, and
        // keys like "temperature" form letter runs with embedded 'e' —
        // the DFA must reject all of them.
        let mut v = NumberMatcher::new(
            NumberBounds::int_range(0, 9_999_999),
            NumberTechnique::Token,
        );
        assert!(!v.fired_in_record(br#"{"n":"temperature"}"#));
        assert!(!v.fired_in_record(br#"{"u":"per"}"#));
    }

    #[test]
    fn exponent_tokens_accepted_approximately() {
        let mut v = NumberMatcher::new(NumberBounds::int_range(10, 20), NumberTechnique::Token);
        assert!(v.fired_in_record(b"[999e9]"), "digit+e accepted, may be FP");
        assert!(!v.fired_in_record(b"[999]"), "plain out-of-range rejected");
    }

    #[test]
    fn timestamp_not_in_range() {
        let mut v = NumberMatcher::new(NumberBounds::int_range(12, 49), NumberTechnique::Token);
        assert!(!v.fired_in_record(br#"{"bt":1422748800000}"#));
        assert!(v.fired_in_record(br#"{"bt":1422748800000,"x":13}"#));
    }

    #[test]
    fn token_at_record_end_fires_via_newline() {
        // fired_in_record appends the newline the hardware sees.
        let mut v = NumberMatcher::new(NumberBounds::int_range(1, 5), NumberTechnique::Token);
        assert!(v.fired_in_record(b"3"));
    }

    #[test]
    fn negative_values() {
        let mut v = NumberMatcher::new(float_bounds("-12.5", "43.1"), NumberTechnique::Token);
        assert!(v.fired_in_record(br#"{"v":"-12.5"}"#));
        assert!(v.fired_in_record(br#"{"v":"-0.1"}"#));
        assert!(!v.fired_in_record(br#"{"v":"-12.6"}"#));
    }

    #[test]
    fn reset_mid_token() {
        let mut v = NumberMatcher::new(NumberBounds::int_range(1, 5), NumberTechnique::Token);
        v.on_byte(b'3');
        v.reset();
        // After reset the pending token is forgotten.
        assert!(!v.on_byte(b','));
    }

    #[test]
    fn anchor_bytes_are_exactly_the_defined_set() {
        for b in 0u16..=255 {
            let b = b as u8;
            let want = b <= 0x20 || b"\",:[]{}".contains(&b);
            assert_eq!(is_anchor_byte(b), want, "byte {b:#04x}");
            // No number byte is an anchor: a token never anchors itself.
            assert!(!(is_anchor_byte(b) && is_number_byte(b)), "byte {b:#04x}");
        }
    }

    #[test]
    fn hex_ids_fire_only_the_paper_technique() {
        let bounds = NumberBounds::int_range(140, 3155);
        let record = br#"{"medallion":"96F7E95C"}"#;
        let mut token = NumberMatcher::new(bounds.clone(), NumberTechnique::Token);
        let mut anchored = NumberMatcher::new(bounds, NumberTechnique::Anchored);
        // "7E95" is a number token in range under the exponent clause.
        assert!(token.fired_in_record(record));
        assert!(!anchored.fired_in_record(record));
        assert!(anchored.fired_in_record(br#"{"trip_time_in_secs":600}"#));
    }

    #[test]
    fn anchoring_needs_both_edges() {
        let mut v = NumberMatcher::new(NumberBounds::int_range(10, 20), NumberTechnique::Anchored);
        for (record, fires) in [
            (&b"15"[..], true),           // record start, separator end
            (b"[15]", true),              // after [, before ]
            (b"{\"v\": 15 }", true),      // after and before whitespace
            (b"{\"v\":\" 15\t\"}", true), // inside padded quotes
            (b"{\"v\":\"\t15\r\"}", true),
            (b"{\"v\":x15}", false), // start not anchored
            (b"{\"v\":15x}", false), // end not anchored
            (b"{\"v\":\"15kg\"}", false),
            (b"{\"k15\":0}", false),
        ] {
            assert_eq!(
                v.fired_in_record(record),
                fires,
                "{:?}",
                String::from_utf8_lossy(record)
            );
        }
    }
}
