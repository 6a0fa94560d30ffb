//! Standard seeded corpora: the fixed workloads every FPR table,
//! criterion bench and differential test runs against.
//!
//! Centralising the seeds here keeps numbers comparable across crates and
//! across changes: two measurements only compare if both read the same
//! byte streams.

use crate::dataset::Dataset;
use crate::{smartcity, taxi, twitter};

/// Workspace-wide corpus seed (all derived seeds offset from this).
pub const CORPUS_SEED: u64 = 0x5EED_2022;

/// The standard SmartCity corpus (SenML records, QS0/QS1 ground truth).
pub fn smartcity_corpus(records: usize) -> Dataset {
    smartcity::generate(CORPUS_SEED, records)
}

/// The standard Taxi corpus (flat records, QT ground truth).
pub fn taxi_corpus(records: usize) -> Dataset {
    taxi::generate(CORPUS_SEED + 1, records)
}

/// The standard Twitter corpus (string-heavy status records).
pub fn twitter_corpus(records: usize) -> Dataset {
    twitter::generate(CORPUS_SEED + 2, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_reproducible_and_distinct() {
        assert_eq!(
            smartcity_corpus(50).records(),
            smartcity_corpus(50).records()
        );
        assert_eq!(taxi_corpus(10).len(), 10);
        assert_ne!(smartcity_corpus(10).records(), twitter_corpus(10).records());
    }
}
