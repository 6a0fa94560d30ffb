//! Differential suite of the engine's **stream path**: the word kernel
//! run over a whole buffer, `\n` an event that ends a record, against the
//! byte-serial oracle — every line framed by `Framer`, every byte of it
//! through `CompiledFilter::on_byte` ([`run_verdict_driver`]).
//!
//! The inputs aim at the record boundary: the zoo's records shifted by
//! 0–7 pad bytes so every separator lands at every word offset, records
//! shorter than a word, CRLF, CR-only and blank lines, a trailing record,
//! a separator inside an unterminated string or right after a backslash,
//! surplus closes and unclosed opens, both ingest limits. Every engine is
//! on the stream path — prefilter `Absent`, or warmed past probation and
//! `Disabled` — and with telemetry compiled in, each call proves it: all
//! of its bytes counted once, as `block`.

mod zoo;

use proptest::prelude::*;
use rfjson_core::backend::run_verdict_driver;
use rfjson_core::{
    CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, PrefilterStatus, StructScope,
    Verdict,
};
use rfjson_riotbench::{smartcity, taxi, twitter};
use std::sync::{Mutex, MutexGuard, PoisonError};
use zoo::{
    adversarial_records, anchoring_records, expression_zoo, warmed, wide_program_records,
    wide_programs,
};

/// Telemetry counters are process-global: every test measures its calls
/// alone.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const LIMITS: [IngestLimits; 2] = [
    IngestLimits::UNLIMITED,
    IngestLimits {
        max_record_bytes: Some(60),
        max_records: Some(40),
    },
];

fn oracle(expr: &Expr, stream: &[u8], limits: IngestLimits) -> Vec<Verdict> {
    let mut out = Vec::new();
    run_verdict_driver(&mut CompiledFilter::compile(expr), stream, limits, &mut out);
    out
}

/// `expr` compiled, and if it has a prefilter, warmed past probation on
/// records that hold every literal of it, so the prefilter disables
/// itself and the stream path takes over.
fn stream_engine(expr: &Expr) -> Engine {
    let engine = warmed_engine(expr);
    let status = engine.prefilter_status();
    assert!(
        matches!(status, PrefilterStatus::Absent | PrefilterStatus::Disabled),
        "`{expr}`"
    );
    engine
}

/// `expr` compiled and fed a probation window of records that hold every
/// literal of it ([`zoo::warmed`]).
fn warmed_engine(expr: &Expr) -> Engine {
    warmed(Engine::compile(expr), std::slice::from_ref(expr))
}

/// The engine's verdicts over `stream` equal the oracle's, and came from
/// the stream path — gated or not: every stream byte counted once, as
/// `block` or `prefilter_skipped`.
fn assert_gated_stream(engine: &mut Engine, expr: &Expr, stream: &[u8], limits: IngestLimits) {
    let before = rfjson_telemetry::registry().snapshot();
    let got = engine.filter_stream_verdicts(stream, limits);
    let d = rfjson_telemetry::registry().snapshot().delta(&before);
    assert_eq!(got, oracle(expr, stream, limits), "`{expr}` {limits:?}");
    if rfjson_telemetry::ENABLED {
        let block = d.counter("engine.bytes.block");
        let skipped = d.counter("engine.bytes.prefilter_skipped");
        assert_eq!(block + skipped, stream.len() as u64, "`{expr}`");
    }
}

/// The engine's verdicts over `stream` equal the oracle's, and came from
/// the stream path.
fn assert_stream(engine: &mut Engine, expr: &Expr, stream: &[u8], limits: IngestLimits) {
    let before = rfjson_telemetry::registry().snapshot();
    let got = engine.filter_stream_verdicts(stream, limits);
    let d = rfjson_telemetry::registry().snapshot().delta(&before);
    assert_eq!(
        got,
        oracle(expr, stream, limits),
        "expr `{expr}` under {limits:?} on {:?}",
        String::from_utf8_lossy(stream)
    );
    if rfjson_telemetry::ENABLED {
        assert_eq!(d.counter("engine.bytes.block"), stream.len() as u64);
    }
}

/// `records` as one stream: `pad` spaces first, so the pads 0–7 move
/// every separator through every word offset; the separator after record
/// `i` cycles through LF, CRLF, LF plus a CR-only line, and LF plus a
/// blank line; with `trailing` the last record has none.
fn stream(records: &[&[u8]], pad: usize, trailing: bool) -> Vec<u8> {
    const SEPARATORS: [&[u8]; 4] = [b"\n", b"\r\n", b"\n\r\n", b"\n\n"];
    let mut s = vec![b' '; pad];
    for (i, record) in records.iter().enumerate() {
        s.extend_from_slice(record);
        if i + 1 < records.len() || !trailing {
            s.extend_from_slice(SEPARATORS[i % SEPARATORS.len()]);
        }
    }
    s
}

/// Records whose end is the interesting part.
fn boundary_records() -> Vec<&'static [u8]> {
    // Read with the string parity of the record before inverted, its
    // first close is masked and the temperature context never ends.
    let parity_sensitive = br#"{"n":"temperature","v":"99"},{"n":"x","v":"20.0"}"#;
    vec![
        // Shorter than a word.
        b"{}",
        b"[3",
        b"7",
        b"\"n\"",
        b"{\"a\":1}",
        b"-",
        // The separator inside an unterminated string, right after a
        // backslash inside one, and after a backslash outside one.
        br#"{"k":"abc"#,
        parity_sensitive,
        br#"{"k":"ab\"#,
        parity_sensitive,
        br#"{"n":5}\"#,
        parity_sensitive,
        // Surplus closes, and opens the separator leaves unclosed.
        b"}}]],\"n\":3}",
        b"{{[{\"n\":4",
        // A member instance a comma ends before the range fires.
        br#"{"tolls_amount":0.00,"total_amount":5.33}"#,
        br#"{"v":"40.0","n":"light"},{"v":"1500","n":"temperature"}"#,
    ]
}

#[test]
fn stream_path_equals_the_oracle_at_every_word_offset() {
    let _guard = serialize();
    let generated = [
        smartcity::generate(91, 8),
        taxi::generate(92, 8),
        twitter::generate(93, 5),
    ];
    let anchoring = anchoring_records();
    let mut records: Vec<&[u8]> = adversarial_records();
    records.extend(boundary_records());
    records.extend(anchoring.iter().map(Vec::as_slice));
    for ds in &generated {
        records.extend(ds.records().iter().map(Vec::as_slice));
    }
    let mut kinds = (0, 0);
    for expr in &expression_zoo() {
        let mut engine = stream_engine(expr);
        match engine.prefilter_status() {
            PrefilterStatus::Absent => kinds.0 += 1,
            _ => kinds.1 += 1,
        }
        for pad in 0..8 {
            for trailing in [false, true] {
                let stream = stream(&records, pad, trailing);
                for limits in LIMITS {
                    assert_stream(&mut engine, expr, &stream, limits);
                }
            }
        }
    }
    assert!(kinds.0 >= 5 && kinds.1 >= 5, "{kinds:?} absent/disabled");
}

#[test]
fn short_streams_and_framing_debris() {
    let _guard = serialize();
    let streams: [&[u8]; 12] = [
        b"",
        b"\n",
        b"\r\n\r\n\n",
        b"\r",
        b"7",
        b"{\"a\":3}",
        b"{\"a\":3}\r",
        b"{\"a\":3}\n",
        b"\n\n{\"a\":3}\r\n\r\r\n{\"a\":9}",
        b"1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11",
        b"{\"k\":\"\n\"}\n{\"k\":5}\n",
        b"\\\n\"\n\\\"\n{\"n\":1}",
    ];
    for expr in &expression_zoo() {
        let mut engine = stream_engine(expr);
        for stream in streams {
            for limits in LIMITS {
                assert_stream(&mut engine, expr, stream, limits);
            }
        }
    }
}

/// The run counters at their limits: a needle whose run target is 126,
/// the largest the packed counters compare exactly, under runs of 120–300
/// needle bytes — short of the target, on it, and far past the counters'
/// 127 ceiling. Each run ends 0–7 bytes before its `\n` (a `7` and
/// filler), and the next record starts with needle bytes again, so the
/// text of a run goes on past the separator: the next record's counter
/// must start at 0. Every pad 0–7 moves the runs and separators through
/// every word offset. The needle holds a comma, so a member-scoped
/// context clears its latches inside a run: only a fire in the run's last
/// member counts, 126 to 300 bytes in.
#[test]
fn run_counters_saturate_and_restart_at_every_separator() {
    let _guard = serialize();
    let runs = [120, 125, 126, 127, 128, 133, 200, 254, 255, 256, 300];
    for b in [1, 2] {
        // Target N − B + 1 = 126; every window of the cyclic text is a
        // block of the needle.
        let text = |len: usize| {
            b"ab,"
                .iter()
                .copied()
                .cycle()
                .take(len)
                .collect::<Vec<u8>>()
        };
        let needle = text(125 + b);
        let unit = Expr::substring(&needle, b).unwrap();
        let mut records = Vec::new();
        for (i, &run) in runs.iter().enumerate() {
            for gap in 0..8 {
                let phase = (i + gap) % 3;
                let mut record = text(run + phase)[phase..].to_vec();
                record.extend_from_slice(&b"7xxxxxx"[..gap]);
                records.push(record);
            }
        }
        let records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        // A run of L bytes is L − B + 1 windows.
        let short = runs.iter().filter(|&&run| run < 125 + b).count() * 8;
        let last_member =
            Expr::context_scoped(StructScope::Member, [unit.clone(), Expr::int_range(7, 7)]);
        let exprs = [
            unit.clone(),
            Expr::or([unit, Expr::int_range(40, 49)]),
            last_member,
        ];
        for (k, expr) in exprs.iter().enumerate() {
            let mut engine = stream_engine(expr);
            for pad in 0..8 {
                let stream = stream(&records, pad, false);
                assert_stream(&mut engine, expr, &stream, IngestLimits::UNLIMITED);
                if k < 2 {
                    let got = engine.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
                    let matched = got.iter().filter(|v| v.matched()).count();
                    assert_eq!(matched, records.len() - short, "`{expr}`, pad {pad}");
                }
            }
        }
    }
}

/// Where `\n` is part of a needle, a unit can carry state across the
/// separator (or be left mid-run by it): the compile-time check fails and
/// the stream path scans every record as a run of its own, from its first
/// byte and from reset state. On the stream below a run spans each
/// separator, so running the kernel across it would fire where the
/// oracle does not.
#[test]
fn a_unit_that_sees_the_separator_scans_each_record_alone() {
    let _guard = serialize();
    let stream = b"{\"k\":\"xa\"}a\nb{\"k\":\"by\"}\r\nab\ncd\nx\ny\n{\"k\":\"a\nb\",\"v\":5}\nx";
    for unit in [
        Expr::substring(b"a\nb", 1).unwrap(),
        Expr::substring(b"ab\ncd", 2).unwrap(),
        Expr::dfa_string(b"x\ny").unwrap(),
    ] {
        // An `Or` root has no prefilter to gate the records, and a unit
        // alone has a live one: both cut the stream into runs.
        let or_root = Expr::or([unit.clone(), Expr::int_range(40, 49)]);
        for expr in [or_root, unit] {
            let mut engine = Engine::compile(&expr);
            for limits in LIMITS {
                assert_gated_stream(&mut engine, &expr, stream, limits);
            }
        }
    }
}

/// The wide programs take the stream path, on every word offset: gated
/// by a live prefilter (a fresh engine stays in probation over these
/// calls) and, where the prefilter is absent or disables itself,
/// ungated.
#[test]
fn wide_programs_take_the_stream_path_gated_and_ungated() {
    let _guard = serialize();
    let records = wide_program_records();
    let mut records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
    records.extend(boundary_records());
    for expr in &wide_programs() {
        let mut gated = Engine::compile(expr);
        let mut ungated = warmed_engine(expr);
        let status = ungated.prefilter_status();
        let ungated_too = matches!(status, PrefilterStatus::Absent | PrefilterStatus::Disabled);
        for pad in [0, 3, 7] {
            for trailing in [false, true] {
                let stream = stream(&records, pad, trailing);
                for limits in LIMITS {
                    assert_gated_stream(&mut gated, expr, &stream, limits);
                    if ungated_too {
                        assert_stream(&mut ungated, expr, &stream, limits);
                    }
                }
            }
        }
        assert_ne!(
            gated.prefilter_status(),
            PrefilterStatus::Disabled,
            "`{expr}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural soup with separators: every latch, clear and string
    /// corner case, cut into records anywhere.
    #[test]
    fn stream_path_equals_the_oracle_on_soup(
        soup in proptest::collection::vec(
            prop_oneof![
                Just(b'{'), Just(b'}'), Just(b'['), Just(b']'),
                Just(b'"'), Just(b'\\'), Just(b','), Just(b':'),
                Just(b'1'), Just(b'9'), Just(b'.'), Just(b'e'),
                Just(b'n'), Just(b't'), Just(b'\n'), Just(b'\r'),
            ],
            0..160,
        ),
        max_len in 0usize..24,
        max_recs in 0usize..8,
    ) {
        let _guard = serialize();
        let exprs = [
            Expr::context([
                Expr::substring(b"n", 1).unwrap(),
                Expr::int_range(0, 99),
            ]),
            Expr::context_scoped(
                StructScope::Member,
                [Expr::substring(b"t", 1).unwrap(), Expr::int_range(1, 19)],
            ),
            Expr::or([
                Expr::context([
                    Expr::substring(b"nt", 1).unwrap(),
                    Expr::float_range("0.9", "99.1").unwrap(),
                ]),
                Expr::int_range(1, 9),
            ]),
        ];
        let limits = IngestLimits {
            max_record_bytes: Some(max_len),
            max_records: Some(max_recs),
        };
        for expr in &exprs {
            let mut engine = stream_engine(expr);
            for limits in [IngestLimits::UNLIMITED, limits] {
                assert_stream(&mut engine, expr, &soup, limits);
            }
        }
    }
}
