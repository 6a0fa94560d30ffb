//! Record framing for newline-delimited JSON streams — the **single
//! source of truth** for the framing rules every execution path shares.
//!
//! RiotBench (and most IoT ingestion paths) stream one JSON record per
//! line. The raw-filter hardware needs the same framing to know when to
//! reset per-record state, the software backends need it to emit one
//! decision per record, and the sharded runtime needs it to split a
//! buffer at record boundaries. If any of those disagreed on CR
//! handling, blank lines, or the trailing record, their decision vectors
//! would diverge — so the rules live exactly once, here:
//!
//! * `\n` separates records;
//! * one CR immediately before the LF is framing, not content
//!   ([`trim_cr`]);
//! * a line whose bytes are all `\r` (in particular an empty line) is
//!   **blank** and produces no record and no decision
//!   ([`is_blank_line`]);
//! * a trailing record without a final `\n` still counts.
//!
//! One state machine applies them: [`Framer`] steps a line at a time,
//! meters [`IngestLimits`] through the one rule,
//! [`IngestLimits::skip_reason`], and keeps the stream's
//! [`FramingTally`]. Every stream driver frames through it — the record
//! driver and its byte-serial oracle in `rfjson-core`, and the engine's
//! stream path, whose word kernel finds the separators itself and hands
//! each line to [`Framer::frame`], or, while a literal prefilter gates
//! the records, frames the call with [`Framer::records`].
//! [`split_records`] is the same newline
//! hop with blank lines dropped and the framing CR trimmed, and
//! [`shard_ranges`] partitions a buffer at record boundaries for the
//! parallel runtime. Their equivalence is held by the cross-impl tests in
//! the root crate (`tests/framing_equiv.rs`) against a reference model
//! built on std `split`.

use crate::swar;
use crate::telemetry::FramingTally;
use core::fmt;
use core::ops::Range;

/// Strips the single framing CR before an LF (CRLF line endings).
/// Interior CRs — and any further trailing CRs — are record content.
#[inline]
pub fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

/// A line that produces no record: empty, or nothing but CR bytes
/// (framing debris such as a stray `\r\r\n`, never record content).
#[inline]
pub fn is_blank_line(line: &[u8]) -> bool {
    line.iter().all(|&b| b == b'\r')
}

/// The `\n`-delimited lines of a stream, each as its byte range with
/// whether a separator ended it — the one newline hop behind
/// [`Framer::records`] and [`split_records`], 32 bytes per step
/// ([`swar::find_byte`]). The text after the last separator comes last,
/// unterminated, and is empty when the stream ends with `\n`.
struct Lines<'a> {
    stream: &'a [u8],
    /// Start of the next line; past the end once the last one is out.
    at: usize,
}

impl<'a> Lines<'a> {
    fn new(stream: &'a [u8]) -> Lines<'a> {
        Lines { stream, at: 0 }
    }
}

impl Iterator for Lines<'_> {
    type Item = (Range<usize>, bool);

    #[inline]
    fn next(&mut self) -> Option<(Range<usize>, bool)> {
        let start = self.at;
        let rest = self.stream.get(start..)?;
        Some(match swar::find_byte(rest, b'\n') {
            Some(nl) => {
                self.at = start + nl + 1;
                (start..start + nl, true)
            }
            None => {
                self.at = usize::MAX;
                (start..self.stream.len(), false)
            }
        })
    }
}

/// Iterator over the records of a newline-delimited JSON byte stream.
/// Blank lines are skipped; the trailing record does not need a newline.
///
/// # Example
///
/// ```
/// use rfjson_jsonstream::frame::split_records;
///
/// let stream = b"{\"a\":1}\n\n{\"a\":2}";
/// let recs: Vec<&[u8]> = split_records(stream).collect();
/// assert_eq!(recs.len(), 2);
/// assert_eq!(recs[1], br#"{"a":2}"#);
/// ```
pub fn split_records(stream: &[u8]) -> impl Iterator<Item = &[u8]> {
    Lines::new(stream)
        .map(|(span, _)| &stream[span])
        .filter(|line| !is_blank_line(line))
        .map(trim_cr)
}

/// Per-stream ingest limits for **record quarantine**.
///
/// The paper's RF lanes are fixed-function hardware: a malformed or
/// absurdly long record cannot crash them, but in a software lane it can
/// monopolise a thread or poison downstream accounting. `IngestLimits`
/// bounds what a single stream may ask of a lane; records that violate a
/// limit are **skipped and reported** (see [`SkipReason`]) rather than
/// silently filtered or dropped.
///
/// `None` means unlimited; [`IngestLimits::UNLIMITED`] (also the
/// `Default`) never quarantines anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestLimits {
    /// Maximum record content length in bytes (the line with the framing
    /// CR/LF already excluded, exactly [`trim_cr`] of the line). Longer
    /// records are quarantined as [`SkipReason::TooLong`].
    pub max_record_bytes: Option<usize>,
    /// Maximum number of records per stream. Records at index
    /// `max_records` and beyond are quarantined as
    /// [`SkipReason::RecordLimit`].
    pub max_records: Option<usize>,
}

impl IngestLimits {
    /// No limits: nothing is ever quarantined.
    pub const UNLIMITED: IngestLimits = IngestLimits {
        max_record_bytes: None,
        max_records: None,
    };

    /// Limits that only cap record length.
    pub fn max_record_bytes(limit: usize) -> IngestLimits {
        IngestLimits {
            max_record_bytes: Some(limit),
            ..IngestLimits::UNLIMITED
        }
    }

    /// Limits that only cap the record count.
    pub fn max_records(limit: usize) -> IngestLimits {
        IngestLimits {
            max_records: Some(limit),
            ..IngestLimits::UNLIMITED
        }
    }

    /// `true` if no limit is set (the fast-path configuration).
    pub fn is_unlimited(&self) -> bool {
        *self == IngestLimits::UNLIMITED
    }

    /// Why the record at stream position `index` with `content` bytes
    /// (framing CR excluded) is quarantined, if it is. Record-count
    /// quarantine wins over length quarantine — see [`SkipReason`] for
    /// why.
    #[inline]
    pub fn skip_reason(&self, index: usize, content: usize) -> Option<SkipReason> {
        match self.max_records {
            Some(m) if index >= m => Some(SkipReason::RecordLimit { limit: m }),
            _ => match self.max_record_bytes {
                Some(m) if content > m => Some(SkipReason::TooLong {
                    limit: m,
                    actual: content,
                }),
                _ => None,
            },
        }
    }
}

/// Why a record was quarantined instead of filtered.
///
/// When a limit fires on a record that violates **both** limits, the
/// record-count limit wins: it is a property of the record's position in
/// the stream, which the sharded runtime applies globally, while
/// [`SkipReason::TooLong`] is a property of the record alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SkipReason {
    /// Record content exceeded [`IngestLimits::max_record_bytes`].
    TooLong {
        /// The configured limit.
        limit: usize,
        /// The record's actual content length.
        actual: usize,
    },
    /// The record's stream index reached [`IngestLimits::max_records`].
    RecordLimit {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::TooLong { limit, actual } => {
                write!(f, "record too long ({actual} bytes > limit {limit})")
            }
            SkipReason::RecordLimit { limit } => {
                write!(f, "record limit reached (max {limit} records)")
            }
        }
    }
}

/// Per-record filtering outcome of the quarantine-aware stream drivers.
///
/// The boolean decision API collapses this to `Verdict::Match == true`;
/// the verdict API additionally distinguishes records that were never
/// filtered because an [`IngestLimits`] rule quarantined them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The record satisfied the filter.
    Match,
    /// The record was filtered and did not satisfy the filter.
    NoMatch,
    /// The record was quarantined and never (fully) filtered.
    Skipped(SkipReason),
}

impl Verdict {
    /// Collapses to the boolean decision API: only [`Verdict::Match`]
    /// is `true` (a skipped record is conservatively a non-match).
    pub fn matched(&self) -> bool {
        matches!(self, Verdict::Match)
    }

    /// The filter decision, if the record was actually filtered.
    pub fn decision(&self) -> Option<bool> {
        match self {
            Verdict::Match => Some(true),
            Verdict::NoMatch => Some(false),
            Verdict::Skipped(_) => None,
        }
    }

    /// Lifts a boolean decision into a verdict.
    pub fn from_decision(accept: bool) -> Verdict {
        if accept {
            Verdict::Match
        } else {
            Verdict::NoMatch
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Match => write!(f, "match"),
            Verdict::NoMatch => write!(f, "no-match"),
            Verdict::Skipped(r) => write!(f, "skipped: {r}"),
        }
    }
}

/// End-of-record report from [`Framer::frame`]: `skip` is `Some` when
/// the record violated an [`IngestLimits`] rule and must be quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEnd {
    /// Why the record is quarantined, or `None` to accept its filter
    /// decision.
    pub skip: Option<SkipReason>,
}

/// The framing state machine: one step per `\n`-delimited line, with
/// [`IngestLimits`] metering — a record counter and the record's content
/// length — so oversized or limit-violating records are
/// **skipped-and-reported** instead of silently poisoning a lane, and
/// the stream's [`FramingTally`] for the `framing.*` counters.
///
/// Content is the line with the single framing CR excluded, exactly what
/// [`trim_cr`] returns, so CRLF and LF streams quarantine identically.
/// Because content is a per-record property, a record produces the same
/// [`RecordEnd`] whether the stream is framed whole or shard-by-shard
/// over [`shard_ranges`] cuts (the record counter is shard-local; the
/// parallel runtime applies [`IngestLimits::max_records`] globally
/// instead).
///
/// # Example
///
/// ```
/// use rfjson_jsonstream::frame::{Framer, IngestLimits, SkipReason};
///
/// let mut framer = Framer::new(IngestLimits::max_record_bytes(3));
/// let stream = b"abc\r\n\r\nabcd";
/// let mut ends = Vec::new();
/// framer.records(stream, |span, terminated, end| {
///     ends.push((&stream[span], terminated, end.skip));
/// });
/// framer.flush();
/// // The CR-only line is blank, the framing CR is not content, and the
/// // trailing record without a newline is metered like any other.
/// let too_long = SkipReason::TooLong { limit: 3, actual: 4 };
/// assert_eq!(ends, [(&b"abc\r"[..], true, None), (b"abcd", false, Some(too_long))]);
/// ```
#[derive(Debug, Clone)]
pub struct Framer {
    limits: IngestLimits,
    records: usize,
    tally: FramingTally,
}

impl Framer {
    /// A framer at the start of a stream.
    pub fn new(limits: IngestLimits) -> Framer {
        Framer {
            limits,
            records: 0,
            tally: FramingTally::new(),
        }
    }

    /// Frames one line, its `\n` excluded; `terminated` is `false` for
    /// the text after the stream's last separator. `None` for a blank
    /// line — no record, no verdict — and otherwise the record's end,
    /// with the reason it is quarantined if it is.
    #[inline]
    pub fn frame(&mut self, line: &[u8], terminated: bool) -> Option<RecordEnd> {
        if is_blank_line(line) {
            // Only separator-terminated blanks count: the empty tail a
            // `\n`-terminated stream leaves behind is not a line.
            self.tally.blank_lines += u64::from(terminated);
            return None;
        }
        let content = trim_cr(line).len();
        self.tally.records += 1;
        self.tally.cr_records += u64::from(content < line.len());
        let skip = self.limits.skip_reason(self.records, content);
        self.records += 1;
        if let Some(reason) = &skip {
            self.tally.quarantine(reason);
        }
        Some(RecordEnd { skip })
    }

    /// Frames every line of `stream` and calls `record(span, terminated,
    /// end)` for each non-blank one in stream order; `span` is the line's
    /// byte range in `stream`, its framing CR still included.
    pub fn records(
        &mut self,
        stream: &[u8],
        mut record: impl FnMut(Range<usize>, bool, RecordEnd),
    ) {
        for (span, terminated) in Lines::new(stream) {
            if let Some(end) = self.frame(&stream[span.clone()], terminated) {
                record(span, terminated, end);
            }
        }
    }

    /// Adds the tally to the global `framing.*` counters.
    pub fn flush(&mut self) {
        self.tally.flush();
    }
}

/// Partitions `stream` into at most `shards` contiguous byte ranges that
/// cover it exactly, cutting **only immediately after a `\n`** — so each
/// range is a self-contained NDJSON sub-stream: every shard starts at a
/// record boundary, and only the final shard can hold an unterminated
/// trailing record.
///
/// Ranges are returned in stream order and are never empty; if the
/// stream has fewer separators than `shards - 1`, fewer ranges come
/// back (one, in the degenerate single-record case). An empty stream
/// yields no ranges. Any `shards` is accepted: more shards than bytes
/// are as many as bytes.
///
/// This is the seam the sharded parallel runtime
/// (`rfjson-runtime`) splits work on: running any byte-serial filter
/// over each range independently and concatenating the per-range
/// decision vectors is byte-for-byte identical to the serial pass,
/// because the serial filter is freshly reset right after every `\n`.
///
/// # Example
///
/// ```
/// use rfjson_jsonstream::frame::shard_ranges;
///
/// let stream = b"{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
/// let ranges = shard_ranges(stream, 2);
/// assert_eq!(ranges.len(), 2);
/// assert_eq!(ranges[0].start, 0);
/// assert_eq!(ranges.last().unwrap().end, stream.len());
/// // Every cut happens right after a newline.
/// for r in &ranges[..ranges.len() - 1] {
///     assert_eq!(stream[r.end - 1], b'\n');
/// }
/// ```
pub fn shard_ranges(stream: &[u8], shards: usize) -> Vec<Range<usize>> {
    let len = stream.len();
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for k in 1..shards {
        // `len * k / shards`, in a width where the product cannot wrap.
        let ideal = (len as u128 * k as u128 / shards as u128) as usize;
        if ideal <= start {
            continue;
        }
        // Cut right after the first separator at or beyond the ideal
        // point (the separator byte stays in the left shard), with the
        // framing loops' 32-byte newline hop.
        match swar::find_byte(&stream[ideal..], b'\n') {
            Some(p) => {
                let cut = ideal + p + 1;
                if cut < len {
                    ranges.push(start..cut);
                    start = cut;
                }
            }
            None => break, // no more separators: the rest is one shard
        }
    }
    ranges.push(start..len);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_basic() {
        let recs: Vec<&[u8]> = split_records(b"a\nbb\nccc\n").collect();
        assert_eq!(recs, vec![&b"a"[..], b"bb", b"ccc"]);
    }

    #[test]
    fn split_handles_missing_trailing_newline_and_crlf() {
        let recs: Vec<&[u8]> = split_records(b"a\r\nb").collect();
        assert_eq!(recs, vec![&b"a"[..], b"b"]);
    }

    #[test]
    fn split_skips_empty_lines() {
        let recs: Vec<&[u8]> = split_records(b"\n\na\n\n\nb\n\n").collect();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn cr_only_lines_are_blank() {
        // An all-CR line is framing debris, not a record — the same rule
        // the byte-serial stream drivers apply.
        let recs: Vec<&[u8]> = split_records(b"\r\n\r\r\na\r\n").collect();
        assert_eq!(recs, vec![&b"a"[..]]);
        assert_eq!(
            run_limited(b"\r\n\r\r\na\r\n", IngestLimits::UNLIMITED).len(),
            1
        );
    }

    #[test]
    fn framer_actions_and_finish() {
        let mut f = Framer::new(IngestLimits::UNLIMITED);
        let end = Some(RecordEnd { skip: None });
        assert_eq!(f.frame(b"\r", true), None, "CR alone opens no record");
        assert_eq!(f.frame(b"x", true), end);
        assert_eq!(
            f.frame(b"", false),
            None,
            "no trailing record after a separator"
        );
        assert_eq!(f.frame(b"y", false), end, "trailing record");
        assert_eq!(f.tally.records, 2);
        assert_eq!(f.tally.blank_lines, 1, "the empty tail is not a line");
        f.flush();
        assert_eq!(f.tally.records, 0, "flush drains the tally");
    }

    /// Every split decomposition must cover the stream exactly, cut only
    /// after separators, and preserve the record sequence.
    fn assert_valid_sharding(stream: &[u8], shards: usize) {
        let ranges = shard_ranges(stream, shards);
        assert!(ranges.len() <= shards.max(1));
        if stream.is_empty() {
            assert!(ranges.is_empty());
            return;
        }
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, stream.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile the stream");
            assert_eq!(stream[w[0].end - 1], b'\n', "cuts only after newlines");
        }
        for r in &ranges {
            assert!(r.start < r.end, "no empty shard ranges");
        }
        // Record sequence is preserved.
        let serial: Vec<&[u8]> = split_records(stream).collect();
        let sharded: Vec<&[u8]> = ranges
            .iter()
            .flat_map(|r| split_records(&stream[r.clone()]))
            .collect();
        assert_eq!(serial, sharded, "shards {shards}");
    }

    #[test]
    fn shard_ranges_tile_and_preserve_records() {
        let streams: Vec<&[u8]> = vec![
            b"",
            b"x",
            b"{\"a\":1}\n",
            b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}",
            b"{\"a\":1}\r\n\r\n{\"b\":2}\n\n{\"c\":3}\r\n",
            b"\n\n\n",
            b"a\nb\nc\nd\ne\nf\ng\nh\ni\nj\n",
            b"one-very-long-record-with-no-separator-at-all-0123456789",
        ];
        for stream in &streams {
            // Shard counts past the stream length, up to ones no
            // allocation could hold, are as many shards as bytes.
            for shards in [1, 2, 3, 4, 8, 64, 1 << 40, usize::MAX] {
                assert_valid_sharding(stream, shards);
            }
        }
    }

    /// Reference implementation of per-record quarantine metadata: one
    /// `RecordEnd` per record of `stream`, derived from `split_records`
    /// (shard-local record counter starting at `base`).
    fn quarantine_oracle(stream: &[u8], limits: IngestLimits, base: usize) -> Vec<RecordEnd> {
        split_records(stream)
            .enumerate()
            .map(|(i, rec)| RecordEnd {
                skip: match limits.max_records {
                    Some(m) if base + i >= m => Some(SkipReason::RecordLimit { limit: m }),
                    _ => match limits.max_record_bytes {
                        Some(m) if rec.len() > m => Some(SkipReason::TooLong {
                            limit: m,
                            actual: rec.len(),
                        }),
                        _ => None,
                    },
                },
            })
            .collect()
    }

    /// Frames the whole stream, collecting every record end (including
    /// the unterminated trailing record).
    fn run_limited(stream: &[u8], limits: IngestLimits) -> Vec<RecordEnd> {
        let mut ends = Vec::new();
        Framer::new(limits).records(stream, |_, _, end| ends.push(end));
        ends
    }

    #[test]
    fn framer_matches_oracle_on_framing_zoo() {
        let streams: Vec<&[u8]> = vec![
            b"",
            b"x",
            b"{\"a\":1}\n",
            b"{\"a\":1}\n{\"bbbbbbbbbb\":2}\n{\"c\":3}",
            b"{\"a\":1}\r\n\r\n{\"bbbbbbbbbb\":2}\n\n{\"c\":3}\r\n",
            b"\n\n\n",
            b"a\nbb\nccc\ndddd\neeeee\nffffff\n",
            b"one-very-long-record-with-no-separator-at-all-0123456789",
        ];
        let limit_sets = [
            IngestLimits::UNLIMITED,
            IngestLimits::max_record_bytes(0),
            IngestLimits::max_record_bytes(3),
            IngestLimits::max_record_bytes(7),
            IngestLimits::max_records(0),
            IngestLimits::max_records(2),
            IngestLimits {
                max_record_bytes: Some(3),
                max_records: Some(2),
            },
        ];
        for stream in &streams {
            for limits in limit_sets {
                assert_eq!(
                    run_limited(stream, limits),
                    quarantine_oracle(stream, limits, 0),
                    "stream {:?} limits {limits:?}",
                    String::from_utf8_lossy(stream)
                );
            }
        }
    }

    #[test]
    fn trailing_record_without_newline_is_metered_at_eof() {
        // The degenerate EOF case: the last record has no `\n`, yet the
        // byte limit must still apply to it — identically whether the
        // buffer is framed whole or as the final shard of a split.
        let stream: &[u8] = b"{\"a\":1}\n{\"pad\":\"xxxxxxxxxxxxxxxx\"}";
        let limits = IngestLimits::max_record_bytes(10);
        let ends = run_limited(stream, limits);
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[0].skip, None);
        assert_eq!(
            ends[1].skip,
            Some(SkipReason::TooLong {
                limit: 10,
                actual: 26
            })
        );
        // Same verdicts when the buffer is framed shard-by-shard.
        for shards in [1, 2, 3, 8] {
            let mut sharded = Vec::new();
            for r in shard_ranges(stream, shards) {
                sharded.extend(run_limited(&stream[r], limits));
            }
            assert_eq!(sharded, ends, "shards {shards}");
        }
    }

    #[test]
    fn sharded_quarantine_equals_whole_stream_quarantine() {
        // max_record_bytes is a per-record property: framing each shard
        // independently yields the same skip decisions as framing the
        // whole stream (max_records is deliberately shard-local; the
        // runtime applies it globally — modelled here via `base`).
        let stream =
            b"{\"a\":1}\r\n{\"long-pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n\n{\"b\":2}\n{\"c\":3}\nx"
                .to_vec();
        let limits = IngestLimits::max_record_bytes(12);
        let whole = run_limited(&stream, limits);
        for shards in [1, 2, 3, 8, 64] {
            let mut sharded = Vec::new();
            let mut base = 0;
            for r in shard_ranges(&stream, shards) {
                let part = run_limited(&stream[r.clone()], limits);
                assert_eq!(
                    part,
                    quarantine_oracle(&stream[r], limits, base),
                    "oracle per shard"
                );
                base += part.len();
                sharded.extend(part);
            }
            assert_eq!(sharded, whole, "shards {shards}");
        }
    }

    #[test]
    fn crlf_framing_cr_does_not_count_as_content() {
        // "abcd\r\n": content is 4 bytes, so limit 4 keeps the record.
        assert_eq!(
            run_limited(b"abcd\r\n", IngestLimits::max_record_bytes(4)),
            [RecordEnd { skip: None }]
        );
        // Interior CRs *are* content: "ab\rcd" is 5 bytes.
        let ends = run_limited(b"ab\rcd\n", IngestLimits::max_record_bytes(4));
        assert_eq!(
            ends[0].skip,
            Some(SkipReason::TooLong {
                limit: 4,
                actual: 5
            })
        );
    }

    #[test]
    fn record_limit_wins_over_length_limit() {
        let limits = IngestLimits {
            max_record_bytes: Some(2),
            max_records: Some(1),
        };
        let ends = run_limited(b"aaaa\nbbbb\n", limits);
        assert_eq!(
            ends[0].skip,
            Some(SkipReason::TooLong {
                limit: 2,
                actual: 4
            })
        );
        assert_eq!(ends[1].skip, Some(SkipReason::RecordLimit { limit: 1 }));
    }

    #[test]
    fn verdict_accessors() {
        assert!(Verdict::Match.matched());
        assert!(!Verdict::NoMatch.matched());
        assert_eq!(Verdict::from_decision(true), Verdict::Match);
        assert_eq!(Verdict::from_decision(false), Verdict::NoMatch);
        let skipped = Verdict::Skipped(SkipReason::RecordLimit { limit: 4 });
        assert!(!skipped.matched());
        assert_eq!(skipped.decision(), None);
        assert_eq!(Verdict::Match.decision(), Some(true));
        assert_eq!(
            skipped.to_string(),
            "skipped: record limit reached (max 4 records)"
        );
        assert!(IngestLimits::UNLIMITED.is_unlimited());
        assert!(!IngestLimits::max_records(1).is_unlimited());
    }

    #[test]
    fn shard_ranges_balance_roughly() {
        // 200 equal records, 4 shards: each shard within 2 records of fair.
        let stream: Vec<u8> = b"{\"k\":12345}\n".repeat(200);
        let ranges = shard_ranges(&stream, 4);
        assert_eq!(ranges.len(), 4);
        for r in &ranges {
            let n = split_records(&stream[r.clone()]).count();
            assert!((48..=52).contains(&n), "unbalanced shard: {n} records");
        }
    }
}
