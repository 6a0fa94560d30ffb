//! Raw-filter primitives (§III-A, §III-B).
//!
//! Every primitive is a byte-serial machine emitting a **fire** signal per
//! cycle (the paper's per-cycle match output). Record- or context-level
//! latching happens in the composition layer, not here.

mod number;
mod string_dfa;
mod string_substr;
mod string_window;

pub use number::{is_anchor_byte, NumberMatcher};
pub use string_dfa::DfaStringMatcher;
pub use string_substr::{substrings, Substring, SubstringError, SubstringMatcher};
pub use string_window::WindowMatcher;

use std::fmt;

/// A byte-serial filter primitive: consumes one byte per cycle, emits a
/// fire signal, and can be reset at record boundaries.
pub trait FireFilter: fmt::Debug {
    /// Advances one cycle with input `b`; returns the fire signal for this
    /// cycle.
    fn on_byte(&mut self, b: u8) -> bool;

    /// Returns to the power-on state (record boundary).
    fn reset(&mut self);

    /// Convenience: scans a whole record (with its terminating newline,
    /// like the hardware sees) and reports whether the primitive fired at
    /// least once. Resets first.
    fn fired_in_record(&mut self, record: &[u8]) -> bool {
        self.reset();
        let mut fired = false;
        for &b in record {
            fired |= self.on_byte(b);
        }
        fired |= self.on_byte(b'\n');
        self.reset();
        fired
    }

    /// Positions (byte indices) at which the primitive fires within
    /// `record` — used for the positional false-positive measurements of
    /// Tables I–III. The virtual trailing newline is index `record.len()`.
    fn fire_positions(&mut self, record: &[u8]) -> Vec<usize> {
        self.reset();
        let mut out = Vec::new();
        for (i, &b) in record.iter().enumerate() {
            if self.on_byte(b) {
                out.push(i);
            }
        }
        if self.on_byte(b'\n') {
            out.push(record.len());
        }
        self.reset();
        out
    }
}

/// Positions at which `needle` ends as an exact substring of `record` —
/// the exact-match reference against which approximate matchers are
/// scored.
pub fn exact_end_positions(record: &[u8], needle: &[u8]) -> Vec<usize> {
    if needle.is_empty() || needle.len() > record.len() {
        return Vec::new();
    }
    (needle.len()..=record.len())
        .filter(|&end| &record[end - needle.len()..end] == needle)
        .map(|end| end - 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_positions() {
        assert_eq!(exact_end_positions(b"xabcabc", b"abc"), vec![3, 6]);
        assert_eq!(exact_end_positions(b"aaa", b"aa"), vec![1, 2]);
        assert_eq!(exact_end_positions(b"abc", b"xyz"), Vec::<usize>::new());
        assert_eq!(exact_end_positions(b"ab", b"abc"), Vec::<usize>::new());
        assert_eq!(exact_end_positions(b"", b"a"), Vec::<usize>::new());
    }
}
