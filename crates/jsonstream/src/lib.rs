//! # rfjson-jsonstream — streaming JSON substrate and reference parser
//!
//! Raw filters inspect JSON **as a byte stream**, without parsing. The two
//! stream-level facts the paper's structural awareness needs (§III-C) are
//! provided here exactly as the hardware derives them:
//!
//! * [`mask::StringMask`] — which bytes lie inside string literals
//!   (quote/escape/escaped-escape tracking, one byte per cycle);
//! * [`nesting::StreamTracker`] — the nesting level and member ends,
//!   counting only *unmasked* brackets and commas: the one byte-serial
//!   structure oracle, which [`swar`] reproduces a word at a time.
//!
//! The crate also contains the very thing raw filtering protects the CPU
//! from running too often: a complete recursive-descent JSON parser
//! ([`parser`], [`value::Value`]) used as the ground-truth oracle for
//! false-positive measurement and as the downstream "costly parse" in the
//! end-to-end benchmarks, plus a writer ([`mod@write`]) used by the workload
//! generators, and record framing ([`frame`]) for newline-delimited streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod frame;
pub mod mask;
pub mod nesting;
pub mod parser;
pub mod swar;
pub mod telemetry;
pub mod value;
pub mod write;

pub use classify::{classify, ByteClass, BYTE_CLASS};
pub use frame::{shard_ranges, IngestLimits, SkipReason, Verdict};
pub use mask::StringMask;
pub use nesting::{ByteInfo, StreamTracker};
pub use parser::{parse, ParseJsonError};
pub use value::Value;
