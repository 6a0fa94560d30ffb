//! Streaming structure tracking: the one byte-serial structure oracle.
//!
//! §III-C of the paper: *"This sensitivity for nesting levels is achieved by
//! incrementing a counter with every `[`,`{` and decrementing it with every
//! `}`,`]`"* — counting only brackets **outside** string literals, which is
//! what [`crate::mask::StringMask`] provides. Commas outside strings end a
//! member: *"we just need to check that the key RF and the value RF both
//! appear before the same unescaped comma"*.

use crate::classify::{ByteClass, BYTE_CLASS};
use crate::mask::StringMask;

/// Per-byte structural facts shared by all nodes of a filter (computed
/// once per cycle by the shared mask/nesting logic, as in hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteInfo {
    /// The input byte.
    pub byte: u8,
    /// Nesting depth this byte belongs to (open-bracket bytes already
    /// count inside; close-bracket bytes still count inside).
    pub depth: u32,
    /// Unmasked `}` or `]`.
    pub is_close: bool,
    /// Unmasked `,`.
    pub is_comma: bool,
}

/// Shared streaming tracker producing [`ByteInfo`] (string-mask aware).
///
/// Depth convention: an opening bracket byte already belongs to the new
/// (deeper) level and a closing bracket byte still belongs to the level it
/// closes, so every byte from `{` to the matching `}` inclusive reports the
/// same depth. Unmatched closing brackets saturate at depth 0.
///
/// # Example
///
/// ```
/// use rfjson_jsonstream::StreamTracker;
///
/// let mut t = StreamTracker::new();
/// let depths: Vec<u32> = br#"{"a":[1]}"#.iter().map(|&b| t.on_byte(b).depth).collect();
/// assert_eq!(depths, vec![1, 1, 1, 1, 1, 2, 2, 2, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamTracker {
    mask: StringMask,
    depth: u32,
}

impl StreamTracker {
    /// Fresh tracker at depth 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one byte.
    #[inline]
    pub fn on_byte(&mut self, byte: u8) -> ByteInfo {
        let masked = self.mask.on_byte(byte);
        let mut depth = self.depth;
        let mut is_close = false;
        let mut is_comma = false;
        if !masked {
            match BYTE_CLASS[byte as usize] {
                ByteClass::Open => {
                    // Open-bracket bytes already count inside the new level.
                    self.depth += 1;
                    depth = self.depth;
                }
                ByteClass::Close => {
                    // Close-bracket bytes still count inside the old level.
                    is_close = true;
                    self.depth = depth.saturating_sub(1);
                }
                ByteClass::Comma => is_comma = true,
                _ => {}
            }
        }
        ByteInfo {
            byte,
            depth,
            is_close,
            is_comma,
        }
    }

    /// Record-boundary reset.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The state `(in_string, pending_escape, depth)`: what a word kernel
    /// takes over and hands back through [`restore`](Self::restore).
    pub fn state(&self) -> (bool, bool, u32) {
        (
            self.mask.in_string(),
            self.mask.pending_escape(),
            self.depth,
        )
    }

    /// Restores a [`state`](Self::state), as a word kernel advanced it.
    pub fn restore(&mut self, in_string: bool, pending_escape: bool, depth: u32) {
        self.mask.restore(in_string, pending_escape);
        self.depth = depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-byte infos of `input`, and the tracker's state after it.
    fn track(input: &[u8]) -> (Vec<ByteInfo>, (bool, bool, u32)) {
        let mut t = StreamTracker::new();
        let infos = input.iter().map(|&b| t.on_byte(b)).collect();
        (infos, t.state())
    }

    /// Depths of the bytes whose info satisfies `pick`, by position.
    fn depths(input: &[u8], pick: fn(&ByteInfo) -> bool) -> Vec<(usize, u32)> {
        let (infos, _) = track(input);
        let picked = infos.iter().enumerate().filter(|(_, i)| pick(i));
        picked.map(|(p, i)| (p, i.depth)).collect()
    }

    #[test]
    fn flat_object_depths() {
        let all = depths(br#"{"a":1}"#, |_| true);
        assert!(all.iter().all(|&(_, d)| d == 1), "{all:?}");
    }

    #[test]
    fn nested_example_from_listing1() {
        // Sketch of the SenML shape: {"e":[{...},{...}],"bt":1}
        let input = br#"{"e":[{"v":1},{"v":2}],"bt":3}"#;
        let (infos, end) = track(input);
        let d: Vec<u32> = infos.iter().map(|i| i.depth).collect();
        assert_eq!((d[0], d[5], d[6]), (1, 2, 3), "outer {{, [, inner {{");
        assert_eq!(*d.last().unwrap(), 1, "outer }}");
        assert_eq!(end, (false, false, 0), "balanced record returns to 0");
    }

    #[test]
    fn brackets_in_strings_do_not_count() {
        // Brackets and commas inside the string are neither structure
        // nor member ends; only the outer braces are.
        let input = br#"{"k":"}}]],,[{"}"#;
        assert_eq!(track(input).1, (false, false, 0));
        assert!(depths(input, |_| true).iter().all(|&(_, d)| d == 1));
        assert_eq!(depths(input, |i| i.is_comma), vec![]);
        assert_eq!(depths(input, |i| i.is_close), vec![(input.len() - 1, 1)]);
    }

    #[test]
    fn underflow_saturates() {
        assert_eq!(depths(b"}]", |_| true), vec![(0, 0), (1, 0)]);
        assert_eq!(track(b"}]").1, (false, false, 0));
    }

    #[test]
    fn member_boundaries() {
        // The structural comma at index 6 ends a member, and the closing
        // brace ends the last one; the comma inside "x,y" ends nothing.
        let input = br#"{"a":1,"b":"x,y"}"#;
        assert_eq!(depths(input, |i| i.is_comma), vec![(6, 1)]);
        assert_eq!(depths(input, |i| i.is_close), vec![(16, 1)]);
    }

    #[test]
    fn reset_restores_zero() {
        let mut t = StreamTracker::new();
        for &b in br#"{"\"# {
            t.on_byte(b);
        }
        assert_eq!(t.state(), (true, true, 1));
        t.reset();
        assert_eq!(t.state(), (false, false, 0));
        t.restore(true, false, 3);
        assert_eq!(t.on_byte(b'}').depth, 3, "masked close inside a string");
    }

    #[test]
    fn tracker_depth_and_commas() {
        // The comma between 1 and 2 is at depth 2; the one after ']' is at
        // depth 1. Each close reports the level it closes.
        let input = br#"{"a":[1,2],"b":3}"#;
        assert_eq!(depths(input, |i| i.is_comma), vec![(7, 2), (10, 1)]);
        assert_eq!(depths(input, |i| i.is_close), vec![(9, 2), (16, 1)]);
    }
}
