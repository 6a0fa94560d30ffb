//! # rfjson-core — raw filtering of JSON data, the FPGA way
//!
//! This crate is the primary contribution of *"Raw Filtering of JSON Data
//! on FPGAs"* (Hahn, Becher, Wildermann, Teich — DATE 2022), reproduced in
//! Rust: **raw filters (RFs)** that scan a JSON byte stream one byte per
//! cycle *before* any parser runs, discarding most non-matching records
//! while guaranteeing **no false negatives**.
//!
//! ## The pieces
//!
//! * [`primitive`] — the paper's §III-A/§III-B filter primitives:
//!   * [`primitive::DfaStringMatcher`] — technique (i), an N+1-state DFA;
//!   * [`primitive::WindowMatcher`] — technique (ii), an N-byte compare;
//!   * [`primitive::SubstringMatcher`] — technique (iii), the approximate
//!     B-byte-block matcher with OR-reduced comparators and a run counter;
//!   * [`primitive::NumberMatcher`] — the value/range filter evaluated at
//!     number-token boundaries.
//! * [`expr`] — composition (§III-C/D): conjunction, disjunction, and the
//!   structure-aware context `{RF1 & RF2}` that only combines results found
//!   in the same structural context.
//! * [`backend`] — the execution seam: the [`FilterBackend`] trait every
//!   execution path implements (compile from an expression, one byte per
//!   cycle, shared NDJSON stream framing), and the [`Lane`] trait that a
//!   single query and a batch share, with the one record driver over it.
//! * [`evaluator`] — the byte-serial software model, cycle-equivalent to
//!   the hardware.
//! * [`engine`] — the flattened table-driven batch execution engine:
//!   same semantics as [`evaluator`] (held equal by differential tests),
//!   several times faster; the path to use for bulk software filtering.
//! * [`blockhit`] — the kernel the engine steps its B ≥ 2 substring
//!   units with: one pooled block-hit automaton plus packed lane counters.
//! * [`numpool`] — the kernel it evaluates its number-range units with:
//!   their product automaton over the fifteen number bytes, one lookup per
//!   number byte however many ranges there are.
//! * [`prefilter`] — the engine's record-level literal prefilter: proves a
//!   record `NoMatch` from every N-th byte when a required string unit
//!   cannot fire anywhere in it.
//! * [`multi`] — the fused multi-query engine: a batch partitioned into
//!   groups of queries that share needles, each group one [`engine`]
//!   program over deduplicated matcher units, each record routed by its
//!   group's prefilter; behind the [`MultiBackend`] surface.
//! * [`cosim`] — the elaborated netlist running in the cycle-accurate
//!   RTL simulator, behind the same backend interface.
//! * [`elaborate`] — elaboration of any composed filter into an
//!   `rfjson-rtl` netlist (what would be synthesised), with
//!   `rfjson-techmap` providing the LUT costs the paper reports.
//! * [`query`], [`design`] — the §III-D design flow: extract primitives
//!   from a query, enumerate configurations, evaluate FPR vs. LUTs, and
//!   extract Pareto-optimal raw filters (Tables V–VII, Fig. 3).
//! * [`arch`] — the §IV-B system architecture model: parallel RF lanes fed
//!   by DMA at one byte per cycle per lane.
//!
//! ## Quickstart
//!
//! The paper's running example — Listing 2's query on Listing 1's record:
//!
//! ```
//! use rfjson_core::expr::Expr;
//! use rfjson_core::evaluator::CompiledFilter;
//! use rfjson_core::FilterBackend;
//!
//! // { s1("temperature") & v(0.7 <= f <= 35.1) }
//! let expr = Expr::context([
//!     Expr::substring(b"temperature", 1)?,
//!     Expr::float_range("0.7", "35.1")?,
//! ]);
//! let mut filter = CompiledFilter::compile(&expr);
//!
//! let listing1 = br#"{"e":[{"v":"35.2","u":"far","n":"temperature"},
//!                    {"v":"12","u":"per","n":"humidity"}],"bt":1422748800000}"#;
//! // 35.2 exceeds the range and "12" sits in a different measurement
//! // object: the structure-aware filter correctly rejects the record.
//! assert!(!filter.accepts_record(listing1));
//!
//! let matching = br#"{"e":[{"v":"21.0","u":"far","n":"temperature"}],"bt":0}"#;
//! assert!(filter.accepts_record(matching));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod backend;
pub mod blockhit;
pub mod cosim;
pub mod cost;
pub mod design;
pub mod elaborate;
pub mod engine;
pub mod eval;
pub mod evaluator;
pub mod expr;
mod metrics;
pub mod multi;
pub mod numpool;
pub mod prefilter;
pub mod primitive;
pub mod query;

pub use backend::{
    CompileError, FilterBackend, IngestLimits, Lane, SkipReason, Verdict, VerdictSink,
};
pub use cosim::CosimBackend;
pub use engine::{Engine, Latch, PrefilterStatus, ProgramView};
pub use evaluator::CompiledFilter;
pub use expr::{Expr, NumberTechnique, StructScope};
pub use multi::{BatchVerdicts, MultiBackend, MultiEngine, MultiLanes, ShareStats, UnitCounts};

/// Convenience prelude for downstream users.
pub mod prelude {
    pub use crate::arch::RawFilterSystem;
    pub use crate::backend::{CompileError, FilterBackend, IngestLimits, SkipReason, Verdict};
    pub use crate::cosim::CosimBackend;
    pub use crate::design::{explore, DesignPoint, ExploreOptions};
    pub use crate::elaborate::elaborate_filter;
    pub use crate::engine::Engine;
    pub use crate::eval::{measure, Measurement};
    pub use crate::evaluator::CompiledFilter;
    pub use crate::expr::{Expr, NumberTechnique, StructScope};
    pub use crate::multi::{BatchVerdicts, MultiBackend, MultiEngine, MultiLanes};
    pub use crate::query::query_to_exprs;
}
