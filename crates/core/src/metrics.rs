//! Cached handles to the global telemetry counters the engines flush
//! into.
//!
//! The hot paths never touch the registry: [`Engine`](crate::Engine)
//! and [`MultiEngine`](crate::multi::MultiEngine) accumulate per-stream
//! stats in plain `u64` fields and flush them here once per stream
//! (`flush_telemetry`, called by the stream drivers). Each handle
//! struct is resolved once per process; after that a flush is a handful
//! of relaxed atomic adds — and nothing at all under `telemetry-off`.

use rfjson_telemetry::{Counter, Gauge};
use std::sync::OnceLock;

/// `engine.*` counter handles (single-query [`Engine`](crate::Engine)).
pub(crate) struct EngineMetrics {
    /// `engine.records`: records the stream path scored.
    pub records: &'static Counter,
    /// `engine.bytes.block`: bytes of the word kernel — every stream byte
    /// of a line the prefilter did not reject.
    pub bytes_block: &'static Counter,
    /// `engine.bytes.prefilter_skipped`: bytes never scanned because the
    /// literal prefilter rejected the whole record.
    pub bytes_prefilter_skipped: &'static Counter,
    /// `engine.prefilter.checked`: records the live prefilter examined.
    pub prefilter_checked: &'static Counter,
    /// `engine.prefilter.rejected`: records it proved `NoMatch`.
    pub prefilter_rejected: &'static Counter,
    /// `engine.prefilter.disabled`: probation-end self-disable events.
    pub prefilter_disabled: &'static Counter,
    /// `engine.prefilter.probed_bytes`: record bytes the prefilter looked
    /// at to decide, once per required unit — probes and run widenings of
    /// the substring units, whole records for the containment scans of
    /// exact units.
    pub prefilter_probed_bytes: &'static Counter,
}

pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        records: rfjson_telemetry::counter("engine.records"),
        bytes_block: rfjson_telemetry::counter("engine.bytes.block"),
        bytes_prefilter_skipped: rfjson_telemetry::counter("engine.bytes.prefilter_skipped"),
        prefilter_checked: rfjson_telemetry::counter("engine.prefilter.checked"),
        prefilter_rejected: rfjson_telemetry::counter("engine.prefilter.rejected"),
        prefilter_disabled: rfjson_telemetry::counter("engine.prefilter.disabled"),
        prefilter_probed_bytes: rfjson_telemetry::counter("engine.prefilter.probed_bytes"),
    })
}

/// `multi.*` handles (fused [`MultiEngine`](crate::multi::MultiEngine)).
/// The byte counters are the group engines' tallies summed, so a stream
/// byte is counted once per group.
pub(crate) struct MultiMetrics {
    /// `multi.records`: records scored by a fused batch scan.
    pub records: &'static Counter,
    /// `multi.bytes.block`: bytes of a group's word kernel.
    pub bytes_block: &'static Counter,
    /// `multi.bytes.prefilter_skipped`: bytes of records (separator
    /// included) a group's prefilter rejected.
    pub bytes_prefilter_skipped: &'static Counter,
    /// `multi.group_scans`: (group, record) pairs the group scanned.
    pub group_scans: &'static Counter,
    /// `multi.group_rejects`: (group, record) pairs the group's prefilter
    /// rejected.
    pub group_rejects: &'static Counter,
    /// `multi.groups`: groups of the batch that flushed last.
    pub groups: &'static Gauge,
}

pub(crate) fn multi_metrics() -> &'static MultiMetrics {
    static METRICS: OnceLock<MultiMetrics> = OnceLock::new();
    METRICS.get_or_init(|| MultiMetrics {
        records: rfjson_telemetry::counter("multi.records"),
        bytes_block: rfjson_telemetry::counter("multi.bytes.block"),
        bytes_prefilter_skipped: rfjson_telemetry::counter("multi.bytes.prefilter_skipped"),
        group_scans: rfjson_telemetry::counter("multi.group_scans"),
        group_rejects: rfjson_telemetry::counter("multi.group_rejects"),
        groups: rfjson_telemetry::gauge("multi.groups"),
    })
}
