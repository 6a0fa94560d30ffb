//! Workload corpora, a pure function of `--seed`.
//!
//! The generators see the seed; the program under test only ever sees
//! the bytes. A corpus is four freshly generated ~4 MiB segments
//! (≈ 16 MiB, four times the private L2), visited round-robin so that a
//! segment has left L2 by the time it is revisited.

use crate::calib::fnv1a;
use rfjson_jsonstream::swar::find_byte;
use rfjson_riotbench::{smartcity, taxi, twitter, Dataset};
use std::ops::Range;
use std::time::Instant;

pub const SEGMENTS: usize = 4;
pub const SEGMENT_BYTES: usize = 4 * 1024 * 1024;
/// Records generated first to learn a dataset's bytes per record.
const PROBE_RECORDS: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    SmartCity,
    Taxi,
    /// SmartCity, Taxi and Twitter records interleaved one by one.
    Mixed,
}

pub struct Corpus {
    /// Newline-delimited streams, each ending in `\n`.
    pub segments: Vec<Vec<u8>>,
    pub records: usize,
    /// Wall-clock seconds the generators took (not set-up: reported as
    /// `riotbench.generate_s`).
    pub generate_s: f64,
}

impl Corpus {
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    pub fn segment_hashes(&self) -> Vec<u64> {
        self.segments.iter().map(|s| fnv1a(s)).collect()
    }
}

fn generate(source: Source, seed: u64, records: usize) -> Vec<Dataset> {
    match source {
        Source::SmartCity => vec![smartcity::generate(seed, records)],
        Source::Taxi => vec![taxi::generate(seed + 1, records)],
        Source::Mixed => vec![
            smartcity::generate(seed, records),
            taxi::generate(seed + 1, records),
            twitter::generate(seed + 2, records),
        ],
    }
}

/// Builds the corpus for `source` from `seed`, sized to [`SEGMENTS`] ×
/// [`SEGMENT_BYTES`] from a probe of the generators' record sizes.
pub fn build(source: Source, seed: u64) -> Corpus {
    let t = Instant::now();
    let probe: usize = generate(source, seed, PROBE_RECORDS)
        .iter()
        .map(|d| d.payload_bytes() + d.len())
        .sum();
    let per_round = probe as f64 / PROBE_RECORDS as f64;
    let rounds = (SEGMENTS * SEGMENT_BYTES) as f64 / per_round;
    let per_segment = (rounds / SEGMENTS as f64).ceil() as usize;
    let datasets = generate(source, seed, per_segment * SEGMENTS);
    let generate_s = t.elapsed().as_secs_f64();

    let segments = (0..SEGMENTS)
        .map(|s| {
            let mut out = Vec::with_capacity(SEGMENT_BYTES + SEGMENT_BYTES / 16);
            for i in s * per_segment..(s + 1) * per_segment {
                for d in &datasets {
                    out.extend_from_slice(&d.records()[i]);
                    out.push(b'\n');
                }
            }
            out
        })
        .collect();
    Corpus {
        segments,
        records: per_segment * SEGMENTS * datasets.len(),
        generate_s,
    }
}

/// The first record-aligned `target` bytes of `stream`: up to and
/// including the first `\n` at or beyond `target` (the whole stream if
/// there is none).
pub fn record_aligned_prefix(stream: &[u8], target: usize) -> &[u8] {
    let from = target.min(stream.len());
    let end = find_byte(&stream[from..], b'\n').map_or(stream.len(), |p| from + p + 1);
    &stream[..end]
}

/// Cuts `stream` into consecutive record-aligned ranges of at least
/// `target` bytes (the last may be shorter).
pub fn record_aligned_chunks(stream: &[u8], target: usize) -> Vec<Range<usize>> {
    let mut chunks = Vec::new();
    let mut start = 0;
    while start < stream.len() {
        let end = start + record_aligned_prefix(&stream[start..], target).len();
        chunks.push(start..end);
        start = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_pure_function_of_the_seed() {
        let a = build(Source::Mixed, 7);
        let b = build(Source::Mixed, 7);
        let c = build(Source::Mixed, 8);
        assert_eq!(a.segment_hashes(), b.segment_hashes());
        assert_ne!(a.segment_hashes(), c.segment_hashes());
        assert_eq!(a.records, b.records);
        let h = a.segment_hashes();
        assert!(h.iter().all(|x| h.iter().filter(|y| *y == x).count() == 1));
    }

    #[test]
    fn segments_are_sized_and_newline_terminated() {
        for source in [Source::SmartCity, Source::Taxi] {
            let c = build(source, 3);
            assert_eq!(c.segments.len(), SEGMENTS);
            for s in &c.segments {
                assert_eq!(s.last(), Some(&b'\n'));
                let ratio = s.len() as f64 / SEGMENT_BYTES as f64;
                assert!(
                    (0.95..1.05).contains(&ratio),
                    "segment is {} bytes",
                    s.len()
                );
            }
        }
    }

    #[test]
    fn chunks_are_record_aligned_and_cover_the_stream() {
        let stream = b"aaaa\nbb\ncccccc\nd\n";
        let chunks = record_aligned_chunks(stream, 6);
        assert_eq!(chunks, vec![0..8, 8..15, 15..17]);
        assert_eq!(record_aligned_prefix(stream, 6), b"aaaa\nbb\n");
        assert_eq!(record_aligned_chunks(b"", 6), vec![]);
        let unterminated = record_aligned_chunks(b"aaaa\nbb", 2);
        assert_eq!(unterminated, vec![0..5, 5..7]);
    }
}
