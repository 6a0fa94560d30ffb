//! Record-boundary reset regression: a backend that has just processed
//! one record must decide the next record exactly like a freshly
//! compiled backend — no latch, DFA state, substring run counter,
//! string-mask phase, nesting depth or context flag may leak across the
//! boundary.
//!
//! The first records are chosen adversarially: a matching record (all
//! latches high), a truncated record that ends inside a string (odd
//! quote parity), unbalanced nesting, and a dangling number token. Any
//! incomplete reset shows up as a divergent second decision.
//!
//! The record-at-a-time API of an [`Engine`] runs its byte-serial model,
//! so the engine legs of the first test reset the model; the word
//! kernel's own reset is held by the stream-path tests below.

mod zoo;

use rfjson_core::cosim::CosimBackend;
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend, StructScope};
use rfjson_runtime::{RunnerConfig, ShardedRunner};

fn exprs() -> Vec<Expr> {
    vec![
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::substring(b"dust", 4).unwrap(),
        Expr::dfa_string(b"humidity").unwrap(),
        Expr::window(b"light").unwrap(),
        Expr::int_range(12, 49),
        Expr::float_range("0.7", "35.1").unwrap(),
        Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]),
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"light", 1).unwrap(),
                Expr::int_range(12, 49),
            ],
        ),
    ]
}

/// First records designed to leave residue in any incompletely reset
/// state machine.
fn dirty_records() -> Vec<&'static [u8]> {
    vec![
        // Fully matching: every latch and context flag set.
        br#"{"e":[{"v":"21.0","n":"temperature"},{"v":"30","n":"light"},{"n":"humidity"},{"n":"dust"}]}"#,
        // Ends inside a string: odd quote parity carried over would
        // string-mask the entire next record.
        br#"{"e":[{"v":"21.0","n":"temperat"#,
        // Unbalanced nesting: depth tracker left at +3.
        br#"{"a":{"b":{"c":21"#,
        // Dangling number token at end of record.
        br#"{"v":35"#,
        // Blank-ish garbage.
        b"\xff\xfe{{{{",
    ]
}

/// Second records whose decisions are the actual assertion targets
/// (a matching and a non-matching one per shape).
fn probe_records() -> Vec<&'static [u8]> {
    vec![
        br#"{"e":[{"v":"21.0","n":"temperature"},{"v":"30","n":"light"},{"n":"humidity"},{"n":"dust"}]}"#,
        br#"{"e":[{"v":"99.0","n":"nothing"}]}"#,
        br#"{"light":13,"temperature":1.0,"humidity":1,"dust":1}"#,
        br"{}",
    ]
}

fn backends(expr: &Expr) -> Vec<Box<dyn FilterBackend>> {
    vec![
        Box::new(CompiledFilter::compile(expr)),
        Box::new(Engine::compile(expr)),
        Box::new(CosimBackend::compile(expr)),
    ]
}

#[test]
fn second_record_decision_is_reset_independent() {
    for expr in exprs() {
        for probe in probe_records() {
            // Reference: a fresh backend per probe.
            let expected: Vec<bool> = backends(&expr)
                .iter_mut()
                .map(|b| b.accepts_record(probe))
                .collect();
            for dirty in dirty_records() {
                let got: Vec<bool> = backends(&expr)
                    .iter_mut()
                    .map(|b| {
                        b.accepts_record(dirty);
                        b.accepts_record(probe)
                    })
                    .collect();
                assert_eq!(
                    got,
                    expected,
                    "expr `{expr}` after dirty record {:?} on probe {:?} (model/engine/cosim)",
                    String::from_utf8_lossy(dirty),
                    String::from_utf8_lossy(probe),
                );
            }
        }
    }
}

#[test]
fn consecutive_records_in_one_stream_match_fresh_decisions() {
    // Same property through the streaming path: the framer's in-stream
    // reset must be as complete as the explicit accepts_record reset.
    for expr in exprs() {
        for dirty in dirty_records() {
            // Truncated records can't be framed mid-stream (a record
            // separator completes them) — that's fine: framing appends
            // the separator, which is exactly what we're testing.
            for probe in probe_records() {
                let mut stream = Vec::new();
                stream.extend_from_slice(dirty);
                stream.push(b'\n');
                stream.extend_from_slice(probe);
                stream.push(b'\n');
                for b in &mut backends(&expr) {
                    let decisions = b.filter_stream(&stream);
                    assert_eq!(decisions.len(), 2, "{} framing", b.name());
                    let mut fresh = backends(&expr)
                        .into_iter()
                        .find(|f| f.name() == b.name())
                        .unwrap();
                    assert_eq!(
                        decisions[1],
                        fresh.accepts_record(probe),
                        "{} leaks state from {:?} into {:?} (expr `{expr}`)",
                        b.name(),
                        String::from_utf8_lossy(dirty),
                        String::from_utf8_lossy(probe),
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_runner_lane_reuse_matches_serial() {
    // A lane that processes many consecutive records (min_shard_bytes
    // forces few shards) must agree with per-record fresh decisions.
    for expr in exprs() {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        let mut reference = Engine::compile(&expr);
        for dirty in dirty_records() {
            for probe in probe_records() {
                for rec in [dirty, probe] {
                    stream.extend_from_slice(rec);
                    stream.push(b'\n');
                    expected.push(reference.accepts_record(rec));
                }
            }
        }
        for shards in [1, 3] {
            let mut runner: ShardedRunner<Engine> = ShardedRunner::with_config(
                &expr,
                RunnerConfig {
                    shards: Some(shards),
                    min_shard_bytes: 1,
                },
            );
            assert_eq!(
                runner.filter_stream(&stream),
                expected,
                "expr `{expr}` with {shards} shard(s)"
            );
        }
    }
}

/// The word kernel's own reset. Where a unit sees `\n`, the stream path
/// scans every record as a run of its own, and a run stops at the end of
/// the word that holds its separator — padded with `\n` at the end of
/// the stream — having stepped the next record's first bytes in that
/// word. Each run must start from the kernel's reset state, or a unit
/// carries that state into the record: here a number unit's row and
/// token state beside a `\n`-needle unit, a reference lane (run target
/// 128, past the packed counters) whose needle ends in `\n`, and a string
/// DFA and a block-hit pool that a run of `\n` pads leaves one byte short
/// of firing. Each record follows the one before it at every word offset,
/// gated by a live prefilter and ungated ([`zoo::assert_engine_seams`]).
#[test]
fn every_run_starts_from_the_kernels_reset_state() {
    let numbers = Expr::and([
        Expr::substring(b"v", 1).unwrap(),
        Expr::or([Expr::substring(b"a\nb", 1).unwrap(), Expr::int_range(5, 9)]),
    ]);
    // `7,"v…`: a fresh run reads the 7 at the record's start as anchored;
    // one that goes on from a stepped `v` does not.
    let records: [&[u8]; 7] = [
        br#"{"v":77}"#,
        br#"{"v":777777777777}"#,
        br#"{"v":7}"#,
        br#"{"v":6,"w":77}"#,
        b"77777777777777",
        br#"7,"v""#,
        br#"7,"vvvvvvvvvvvv""#,
    ];
    zoo::assert_engine_seams(&numbers, &records);

    let mut needle = vec![b'k'; 127];
    needle.push(b'\n');
    let reference = Expr::and([
        Expr::substring(b"k", 1).unwrap(),
        Expr::substring(&needle, 1).unwrap(),
    ]);
    assert_eq!(Engine::compile(&reference).reference_lanes().count(), 1);
    let runs = [126, 126, 120, 127, 126].map(|n| vec![b'k'; n]);
    zoo::assert_engine_seams(&reference, &runs);

    let short: [&[u8]; 4] = [b"y", b"y", b"yy", br#"{"y":1}"#];
    for pads_then_y in [
        Expr::dfa_string(b"\n\n\ny").unwrap(),
        Expr::substring(b"\n\n\ny", 2).unwrap(),
    ] {
        let expr = Expr::and([Expr::substring(b"y", 1).unwrap(), pads_then_y]);
        zoo::assert_engine_seams(&expr, &short);
    }
}
