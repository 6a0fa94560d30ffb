//! Golden-snapshot test: the exact JSON text a fixed QS0 run produces.
//!
//! Two contracts are pinned at once, byte for byte:
//!
//! * the snapshot **format** (`rfjson-telemetry/v1`: schema line,
//!   two-space indent, sorted names, inline histograms, no trailing
//!   newline) that the verify CLI prints under `--telemetry` —
//!   downstream parsers may rely on it;
//! * the engine/framing **counter values** for a deterministic corpus —
//!   any accounting drift in the scan paths shows up as a diff here.
//!
//! This test lives in its own binary on purpose: telemetry counters are
//! process-global, and no other test may run in this process.

use rfjson_core::query::query_to_exprs;
use rfjson_core::{Engine, FilterBackend};
use rfjson_riotbench::{smartcity_corpus, Query};

#[test]
fn qs0_snapshot_json_is_pinned() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let corpus = smartcity_corpus(25);
    let stream = corpus.stream();
    let expr = query_to_exprs(&Query::qs0(), 1).expect("query converts");

    let before = rfjson_telemetry::registry().snapshot();
    let mut engine = Engine::compile(&expr);
    let decisions = engine.filter_stream(&stream);
    let delta = rfjson_telemetry::registry().snapshot().delta(&before);

    assert_eq!(decisions.iter().filter(|m| **m).count(), 14);

    // 25 records of the 215–220-byte smartcity distribution, 5451 bytes
    // with their separators, all through the word kernel: QS0's
    // prefilter is live (25 records are inside probation), so the
    // stream path frames the call first and asks it about each record;
    // its literals occur in every record, so it rejects none and the
    // whole call is one run — no `engine.bytes.prefilter_skipped` or
    // `engine.prefilter.rejected` entries survive the delta's
    // drop-if-unchanged rule. Finding all five
    // attribute names took the prefilter 3780 byte reads over the 5426
    // content bytes.
    let golden = concat!(
        "{\n",
        "  \"schema\": \"rfjson-telemetry/v1\",\n",
        "  \"counters\": {\n",
        "    \"engine.bytes.block\": 5451,\n",
        "    \"engine.prefilter.checked\": 25,\n",
        "    \"engine.prefilter.probed_bytes\": 3780,\n",
        "    \"engine.records\": 25,\n",
        "    \"framing.records\": 25\n",
        "  },\n",
        "  \"gauges\": {},\n",
        "  \"histograms\": {}\n",
        "}"
    );
    assert_eq!(delta.filtered(&["engine.", "framing."]).to_json(), golden);

    // Byte conservation, restated on the pinned numbers.
    assert_eq!(5451, stream.len());
}
