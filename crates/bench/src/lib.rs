//! # rfjson-bench — regeneration harness for every table and figure
//!
//! One binary per artefact of the paper's evaluation:
//!
//! | artefact | binary |
//! |---|---|
//! | Tables I–III (string matcher FPR/LUTs) | `table1_2_3` |
//! | Table IV (substring blocks) | `table4` |
//! | Fig. 1 (B = 2 matcher RTL) | `fig1_rtl` |
//! | Fig. 2 (range → regex → DFA) | `fig2_dfa` |
//! | Tables V–VII + Fig. 3 (design space, Pareto fronts, scatter CSVs) | `tables5_6_7` |
//! | Table VIII (query selectivities) | `table8` |
//! | §IV-B system throughput | `system_throughput` |
//! | §V ablations (omitted substrings, widened range bounds) | `ablation` |
//!
//! Criterion benches (`benches/`): primitive byte throughput, raw-filter
//! vs full parse, construction/mapping times, and the SWAR word kernels
//! against their byte-serial counterparts (`swar_scan`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rfjson_riotbench::{corpus, Dataset};

/// Standard seed for all benchmark datasets (reproducibility) — the
/// workspace-wide [`corpus::CORPUS_SEED`].
pub const SEED: u64 = corpus::CORPUS_SEED;

/// Standard record count for FPR evaluation.
pub const RECORDS: usize = 2000;

/// The three evaluation datasets at standard size.
pub fn standard_datasets() -> (Dataset, Dataset, Dataset) {
    (
        corpus::smartcity_corpus(RECORDS),
        corpus::taxi_corpus(RECORDS),
        corpus::twitter_corpus(RECORDS),
    )
}

/// Needles of Table I (SmartCity).
pub const SMARTCITY_NEEDLES: [&str; 5] =
    ["light", "temperature", "dust", "humidity", "airquality_raw"];

/// Needles of Table II (Taxi).
pub const TAXI_NEEDLES: [&str; 5] = [
    "tolls_amount",
    "trip_distance",
    "fare_amount",
    "trip_time_in_secs",
    "tip_amount",
];

/// Needles of Table III (Twitter).
pub const TWITTER_NEEDLES: [&str; 5] =
    ["created_at", "user", "location", "lang", "favourites_count"];

/// Renders one FPR/LUT cell pair like the paper's tables.
pub fn cell(fpr: f64, luts: usize) -> String {
    format!("{fpr:.3} {luts:>4}")
}

/// Simple fixed-width table printer.
pub fn print_row(cols: &[String], widths: &[usize]) {
    use std::fmt::Write;
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        let _ = write!(line, "{c:<w$}  ");
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_reproducible() {
        let (a, _, _) = standard_datasets();
        let (b, _, _) = standard_datasets();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.len(), RECORDS);
    }

    #[test]
    fn cell_format() {
        assert_eq!(cell(0.0215, 81), "0.021   81");
    }
}
