//! Framing telemetry: per-stream tallies flushed into the global
//! [`rfjson_telemetry`] registry.
//!
//! The stream drivers in `rfjson-core` accumulate framing facts in a
//! plain [`FramingTally`] — local `u64` adds, no atomics — and flush
//! once per stream. That keeps the per-record hot path free of shared
//! writes while still surfacing the anomalies the runtime cares about:
//! quarantined records (by [`SkipReason`]), blank
//! separator lines, and CR-terminated records.
//!
//! Metric names (all counters):
//!
//! | name                               | meaning                              |
//! |------------------------------------|--------------------------------------|
//! | `framing.records`                  | non-blank records framed             |
//! | `framing.blank_lines`              | blank/CR-only separator lines        |
//! | `framing.cr_records`               | records with a trailing CR trimmed   |
//! | `framing.quarantined.too_long`     | records skipped for byte-length      |
//! | `framing.quarantined.record_limit` | records skipped past the budget      |

use rfjson_telemetry::Counter;
use std::sync::OnceLock;

use crate::SkipReason;

/// Cached `&'static` handles to the `framing.*` counters (one registry
/// lookup per process, plain atomic adds after).
struct FramingMetrics {
    records: &'static Counter,
    blank_lines: &'static Counter,
    cr_records: &'static Counter,
    quarantined_too_long: &'static Counter,
    quarantined_record_limit: &'static Counter,
}

fn metrics() -> &'static FramingMetrics {
    static METRICS: OnceLock<FramingMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FramingMetrics {
        records: rfjson_telemetry::counter("framing.records"),
        blank_lines: rfjson_telemetry::counter("framing.blank_lines"),
        cr_records: rfjson_telemetry::counter("framing.cr_records"),
        quarantined_too_long: rfjson_telemetry::counter("framing.quarantined.too_long"),
        quarantined_record_limit: rfjson_telemetry::counter("framing.quarantined.record_limit"),
    })
}

/// Per-stream framing tally: plain local counters a stream driver
/// accumulates into and [`flush`][FramingTally::flush]es once at end of
/// stream. Zero-cost to carry when nothing fires; one batch of relaxed
/// atomic adds per stream when flushed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FramingTally {
    /// Non-blank records framed (quarantined or not).
    pub records: u64,
    /// Blank / CR-only separator lines skipped.
    pub blank_lines: u64,
    /// Records whose trailing CR was trimmed.
    pub cr_records: u64,
    /// Records quarantined as [`SkipReason::TooLong`].
    pub quarantined_too_long: u64,
    /// Records quarantined as [`SkipReason::RecordLimit`].
    pub quarantined_record_limit: u64,
}

impl FramingTally {
    /// A fresh all-zero tally.
    pub fn new() -> FramingTally {
        FramingTally::default()
    }

    /// Counts one quarantined record by reason (the record itself is
    /// also counted via [`records`][FramingTally::records] by the
    /// caller).
    pub fn quarantine(&mut self, reason: &SkipReason) {
        match reason {
            SkipReason::TooLong { .. } => self.quarantined_too_long += 1,
            SkipReason::RecordLimit { .. } => self.quarantined_record_limit += 1,
        }
    }

    /// Adds the tally to the global `framing.*` counters and zeroes it.
    /// No-op (and no registry touch) when every field is zero — or when
    /// built with `telemetry-off`, where the counter adds vanish.
    pub fn flush(&mut self) {
        let t = std::mem::take(self);
        if t.records == 0
            && t.blank_lines == 0
            && t.cr_records == 0
            && t.quarantined_too_long == 0
            && t.quarantined_record_limit == 0
        {
            return;
        }
        let m = metrics();
        m.records.add(t.records);
        m.blank_lines.add(t.blank_lines);
        m.cr_records.add(t.cr_records);
        m.quarantined_too_long.add(t.quarantined_too_long);
        m.quarantined_record_limit.add(t.quarantined_record_limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_moves_tally_into_registry() {
        let before = rfjson_telemetry::registry().snapshot();
        let mut t = FramingTally::new();
        t.records += 3;
        t.blank_lines += 1;
        t.cr_records += 2;
        t.quarantine(&SkipReason::TooLong {
            limit: 8,
            actual: 9,
        });
        t.quarantine(&SkipReason::RecordLimit { limit: 2 });
        t.quarantine(&SkipReason::RecordLimit { limit: 2 });
        t.flush();
        assert_eq!(t.records, 0, "flush drains the tally");
        let delta = rfjson_telemetry::registry().snapshot().delta(&before);
        if rfjson_telemetry::ENABLED {
            assert_eq!(delta.counter("framing.records"), 3);
            assert_eq!(delta.counter("framing.blank_lines"), 1);
            assert_eq!(delta.counter("framing.cr_records"), 2);
            assert_eq!(delta.counter("framing.quarantined.too_long"), 1);
            assert_eq!(delta.counter("framing.quarantined.record_limit"), 2);
        } else {
            assert_eq!(delta.counter("framing.records"), 0);
        }
    }
}
