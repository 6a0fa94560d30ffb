//! The literal prefilter against what it stands in for.
//!
//! [`Prefilter::rejects`] decides from every N-th byte whether a required
//! `sB(needle)` unit can fire anywhere in a record. The property here is
//! that it returns, bit for bit, what stepping the reference
//! [`SubstringMatcher`] over the whole record from its reset state
//! returns — for any needle, block length, record and probe phase — and
//! that it reads no more than the record once per unit. The second half
//! drives whole streams through [`Engine`] with a prefilter that stays
//! live past probation and holds every verdict equal to the byte-serial
//! model's, serially and sharded. The third holds the gated stream path —
//! the prefilter in front of the word kernel, which scans the runs of
//! records between two rejected ones — of [`Engine`] and [`MultiEngine`]
//! to the byte-serial oracle [`run_verdict_driver`] at every word offset
//! a run can start or end at.

use proptest::prelude::*;
use rfjson_core::backend::run_verdict_driver;
use rfjson_core::engine::PrefilterStatus;
use rfjson_core::multi::{BatchVerdicts, MultiBackend, MultiEngine, MultiLanes};
use rfjson_core::prefilter::Prefilter;
use rfjson_core::primitive::{FireFilter, SubstringMatcher};
use rfjson_core::{CompiledFilter, Engine, Expr, FilterBackend, IngestLimits, StructScope};
use rfjson_runtime::ShardedRunner;

/// The check the prefilter replaces: the unit, reset, stepped over every
/// byte of the record.
fn fires_somewhere(needle: &[u8], b: usize, record: &[u8]) -> bool {
    let mut unit = SubstringMatcher::new(needle, b).unwrap();
    unit.reset();
    record.iter().any(|&byte| unit.on_byte(byte))
}

/// Asserts the prefilter of `and(units)` equals the reference on
/// `record`, and that it read at most the record once per unit.
fn assert_equiv(pf: &Prefilter, units: &[(Vec<u8>, usize)], record: &[u8]) {
    let want = !units
        .iter()
        .all(|(needle, b)| fires_somewhere(needle, *b, record));
    let (got, probed) = pf.rejects_counting(record);
    assert_eq!(
        got,
        want,
        "units {units:?} on {:?}",
        String::from_utf8_lossy(record)
    );
    assert_eq!(pf.rejects(record), got);
    assert!(
        probed <= (pf.required_units() * record.len()) as u64,
        "read {probed} bytes of {} for {units:?}",
        record.len()
    );
}

/// Records that put `needle` (and things that merely look like it) at
/// every place the probe loop treats differently: nowhere, alone, cut
/// short, at offset 0, at the very end, and behind 0..2N bytes of padding
/// so that it straddles every probe phase — with needle bytes, non-needle
/// bytes and NUL bytes as the padding.
fn placements(needle: &[u8], soup: &[u8]) -> Vec<Vec<u8>> {
    let n = needle.len();
    let mut lookalike = needle.to_vec();
    lookalike.reverse();
    let cat = |parts: &[&[u8]]| parts.concat();
    let mut records = vec![
        Vec::new(),
        soup.to_vec(),
        needle.to_vec(),
        needle[..n - 1].to_vec(),
        needle[1..].to_vec(),
        lookalike.clone(),
        cat(&[needle, soup]),
        cat(&[soup, needle]),
        cat(&[soup, &lookalike, b"\0", &needle[..n - 1]]),
        cat(&[&needle[..n - 1], b"x", needle, needle]),
    ];
    for phase in 0..2 * n {
        for pad in [b'x', 0u8, needle[phase % n]] {
            let padding = vec![pad; phase];
            records.push(cat(&[&padding, needle, b"x", soup]));
            records.push(cat(&[&padding, &needle[..n - 1], b"\0", &lookalike]));
        }
        records.push(cat(&[&soup[..phase.min(soup.len())], needle]));
    }
    records
}

fn letter() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => Just(b'a'), 3 => Just(b'b'), 2 => Just(b'c'), 1 => Just(b'_'),
    ]
}

fn soup_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => Just(b'a'), 3 => Just(b'b'), 2 => Just(b'c'), 1 => Just(b'_'),
        1 => Just(0u8), 2 => Just(b'x'),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// One unit: random NUL-free needle over a tiny alphabet (repeated
    /// letters, duplicate blocks), N 1..=16, B 1..=N, random soup with NUL
    /// bytes in it.
    #[test]
    fn single_unit_equals_the_reference_matcher(
        needle in proptest::collection::vec(letter(), 1..=16),
        b in 1usize..=16,
        soup in proptest::collection::vec(soup_byte(), 0..96),
    ) {
        let b = b.min(needle.len());
        let pf = Prefilter::build(&Expr::substring(&needle, b).unwrap()).expect("one unit");
        let units = [(needle.clone(), b)];
        for record in placements(&needle, &soup) {
            assert_equiv(&pf, &units, &record);
        }
    }

    /// A conjunction of units — several lanes of one pooled automaton,
    /// B = 1 units beside them, duplicates folded — rejects iff some unit
    /// never fires.
    #[test]
    fn conjunction_equals_the_reference_matchers(
        specs in proptest::collection::vec(
            (proptest::collection::vec(letter(), 1..=12), 1usize..=12),
            2..6,
        ),
        soup in proptest::collection::vec(soup_byte(), 0..64),
    ) {
        let mut units: Vec<(Vec<u8>, usize)> = specs
            .into_iter()
            .map(|(needle, b)| { let b = b.min(needle.len()); (needle, b) })
            .collect();
        units.push(units[0].clone());
        let expr = Expr::and(
            units.iter().map(|(needle, b)| Expr::substring(needle, *b).unwrap()),
        );
        let pf = Prefilter::build(&expr).expect("required units");
        prop_assert!(pf.required_units() < units.len(), "the duplicate is folded");
        // Every needle in a row, so that the conjunction can pass.
        let all: Vec<u8> = units.iter().flat_map(|(n, _)| [&n[..], &b"x"[..]].concat()).collect();
        let mut records = vec![all.clone(), [&soup[..], &all[..], &soup[..]].concat()];
        for (needle, _) in &units {
            records.extend(placements(needle, &soup));
        }
        for record in &records {
            assert_equiv(&pf, &units, record);
        }
    }
}

/// `{ sB("tolls_amount") & v(2.50 ≤ f ≤ 18.00) }`, member-scoped as QT's.
fn tolls(b: usize) -> Expr {
    Expr::context_scoped(
        StructScope::Member,
        [
            Expr::substring(b"tolls_amount", b).unwrap(),
            Expr::float_range("2.50", "18.00").unwrap(),
        ],
    )
}

/// A stream of `records` taxi-like records mixing, by `kinds`, records
/// without the attribute (prefilter rejects), look-alikes
/// (`total_amount`: same letters, so s1 fires and s2 does not) and real
/// ones in and out of range.
fn taxi_like_stream(kinds: &[u8], records: usize) -> Vec<u8> {
    let mut stream = Vec::new();
    for i in 0..records {
        let cents = (i * 37) % 2500;
        let value = format!("{}.{:02}", cents / 100, cents % 100);
        let record = match kinds[i % kinds.len()] {
            0 => format!(r#"{{"medallion":"{i:08X}","fare":{value},"tip":1.00}}"#),
            1 => format!(r#"{{"medallion":"{i:08X}","total_amount":{value}}}"#),
            2 => format!(r#"{{"tolls_amount":{value},"total_amount":99.00}}"#),
            _ => format!(r#"{{"fare":3.00,"surcharge":0.5,"tolls_amount":{value}}}"#),
        };
        stream.extend_from_slice(record.as_bytes());
        stream.push(b'\n');
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// More than 512 records per shard, so every lane's prefilter leaves
    /// probation live and keeps deciding records to the end of the stream.
    #[test]
    fn live_prefilter_streams_equal_the_model(
        kinds in proptest::collection::vec(0u8..4, 3..11),
        b in 1usize..=2,
    ) {
        let mut kinds = kinds;
        kinds.extend([0, 1, 2]); // every stretch has all three kinds
        let expr = tolls(b);
        let stream = taxi_like_stream(&kinds, 3 * 600);
        let want = CompiledFilter::compile(&expr)
            .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        let matches = want.iter().filter(|v| v.matched()).count();
        prop_assert!(0 < matches && matches < want.len());

        let mut engine = Engine::compile(&expr);
        let got = engine.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(engine.prefilter_status(), PrefilterStatus::Live);
        let (checked, rejected) = engine.prefilter_stats();
        prop_assert_eq!(checked, 1800);
        // b = 1 keeps the look-alikes, b = 2 rejects them too.
        let absent = (0..1800).filter(|i| kinds[i % kinds.len()] < b as u8).count();
        prop_assert_eq!(rejected, absent as u64);

        for shards in [1, 2, 3] {
            let mut runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&expr, shards);
            let got = runner
                .filter_stream_verdicts(&stream, IngestLimits::UNLIMITED)
                .expect("no faults injected");
            prop_assert_eq!(&got, &want, "{} shards", shards);
        }
    }
}

/// `{ s1("temp") & v(0.7 ≤ f ≤ 35.1) }`: its prefilter rejects every
/// record without four bytes in a row from `t`, `e`, `m`, `p`.
fn temp() -> Expr {
    Expr::context([
        Expr::substring(b"temp", 1).unwrap(),
        Expr::float_range("0.7", "35.1").unwrap(),
    ])
}

/// A query of its own group whose prefilter rejects every record below.
fn wind() -> Expr {
    Expr::context([
        Expr::substring(b"wind_speed", 1).unwrap(),
        Expr::float_range("0.0", "99.0").unwrap(),
    ])
}

/// Records longer than this are quarantined.
const MAX_RECORD: usize = 64;

/// One line of a gated stream, without its separator; `pad` (0..8)
/// shifts everything after it by that many bytes, so that runs start
/// and end at every word offset.
fn gated_line(kind: u8, pad: usize) -> Vec<u8> {
    let p = "x".repeat(pad);
    match kind % 11 {
        // Passed by the prefilter: a match, a miss, a CRLF match, a match
        // cut off inside a string.
        0 => format!(r#"{{"n":"temp","p":"{p}","v":"21.5"}}"#),
        1 => format!(r#"{{"p":"{p}","n":"temp","v":"99.5"}}"#),
        2 => format!("{{\"n\":\"temp\",\"v\":\"3.0\",\"p\":\"{p}\"}}\r"),
        3 => format!(r#"{{"v":"7.5","n":"temp","s":"a{p}"#),
        // Rejected: whole, cut off inside a string, cut off right after
        // a backslash inside a string.
        4 => format!(r#"{{"n":"rain","p":"{p}","v":"21.5"}}"#),
        5 => format!(r#"{{"n":"rain","v":"21.5","s":"{p}"#),
        6 => format!(r#"{{"n":"rain","v":"1.5","s":"{p}\"#),
        // Blank, CR-only.
        7 => String::new(),
        8 => "\r".repeat(1 + pad % 3),
        // Quarantined, with a match in it: too long.
        9 => format!(
            r#"{{"n":"temp","v":"21.5","p":"{}"}}"#,
            "y".repeat(MAX_RECORD + pad)
        ),
        // Passed, a match with a leading number token.
        _ => format!(r#"[12.5,{{"n":"temp","v":"0.9","p":"{p}"}}]"#),
    }
    .into_bytes()
}

/// The stream of `lines`, each `\n`-terminated but for the last when
/// `trailing`.
fn gated_stream(lines: &[(u8, usize)], trailing: bool) -> Vec<u8> {
    let mut stream = Vec::new();
    for &(kind, pad) in lines {
        stream.extend(gated_line(kind, pad));
        stream.push(b'\n');
    }
    if trailing && !lines.is_empty() {
        stream.pop();
    }
    stream
}

/// Every pair of line kinds at every pad of the first and the second:
/// more than `PREFILTER_PROBATION` records with rejections among them,
/// so the prefilter stays live to the end.
fn all_pairs() -> Vec<(u8, usize)> {
    let mut lines = Vec::new();
    for a in 0..11 {
        for b in 0..11 {
            for pad in 0..8 {
                lines.push((a, pad));
                lines.push((b, (pad * 3 + 1) % 8));
            }
        }
    }
    lines
}

/// Holds `Engine` on `temp()` and `MultiEngine` on `[temp(), wind()]`
/// equal to the byte-serial oracle over `stream`, serially and through
/// the sharded runner at 1, 2, 3 and 8 shards.
fn assert_gated_equiv(stream: &[u8], limits: IngestLimits) {
    let show = || String::from_utf8_lossy(stream).into_owned();
    let mut want = Vec::new();
    run_verdict_driver(
        &mut CompiledFilter::compile(&temp()),
        stream,
        limits,
        &mut want,
    );
    let mut engine = Engine::compile(&temp());
    assert_eq!(engine.prefilter_status(), PrefilterStatus::Probation);
    let got = engine.filter_stream_verdicts(stream, limits);
    assert_eq!(got, want, "engine on {}", show());

    let batch = [temp(), wind()];
    let mut model = MultiLanes::<CompiledFilter>::compile_batch(&batch);
    let mut batch_want = BatchVerdicts::new(batch.len());
    run_verdict_driver(&mut model, stream, limits, &mut batch_want);
    let mut fused = MultiEngine::compile_batch(&batch);
    assert_eq!(fused.groups().len(), 2);
    let got = MultiBackend::filter_stream_verdicts(&mut fused, stream, limits);
    assert_eq!(got, batch_want, "fused on {}", show());
    assert_eq!(batch_want.query_verdicts(0), want);

    for shards in [1, 2, 3, 8] {
        let mut runner: ShardedRunner<Engine> = ShardedRunner::with_shards(&temp(), shards);
        let got = runner.filter_stream_verdicts(stream, limits).unwrap();
        assert_eq!(got, want, "engine at {shards} shards on {}", show());
        let mut runner: ShardedRunner<MultiEngine> = ShardedRunner::with_shards(&batch[..], shards);
        let got = runner.filter_stream_verdicts(stream, limits).unwrap();
        assert_eq!(got, batch_want, "fused at {shards} shards on {}", show());
    }
}

#[test]
fn gated_runs_equal_the_oracle_at_every_word_offset() {
    let lines = all_pairs();
    for trailing in [false, true] {
        let stream = gated_stream(&lines, trailing);
        for limits in [
            IngestLimits::max_record_bytes(MAX_RECORD),
            IngestLimits::UNLIMITED,
        ] {
            assert_gated_equiv(&stream, limits);
        }
        // The prefilter is live from the first record to the last.
        let mut engine = Engine::compile(&temp());
        engine.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        assert_eq!(engine.prefilter_status(), PrefilterStatus::Live);
        let (checked, rejected) = engine.prefilter_stats();
        assert_eq!(
            checked as usize,
            lines.iter().filter(|(k, _)| *k < 7 || *k > 8).count()
        );
        assert_eq!(
            rejected as usize,
            lines.iter().filter(|(k, _)| (4..7).contains(k)).count()
        );
    }
}

#[test]
fn probation_running_out_mid_call_makes_the_rest_one_run() {
    // More passing records than the probation window, then every kind:
    // the prefilter turns itself off mid-call and the kernel scans the
    // rest, rejectable records included.
    let probation = Engine::PREFILTER_PROBATION as usize;
    let mut lines: Vec<(u8, usize)> = (0..2 * probation)
        .map(|i| ([0, 1, 2, 3, 7, 10][i % 6], i % 8))
        .collect();
    lines.extend(all_pairs().into_iter().take(400));
    for trailing in [false, true] {
        let stream = gated_stream(&lines, trailing);
        assert_gated_equiv(&stream, IngestLimits::max_record_bytes(MAX_RECORD));
        assert_gated_equiv(&stream, IngestLimits::max_records(probation + 100));
        let mut engine = Engine::compile(&temp());
        engine.filter_stream_verdicts(&stream, IngestLimits::UNLIMITED);
        assert_eq!(engine.prefilter_status(), PrefilterStatus::Disabled);
        assert_eq!(engine.prefilter_stats(), (probation as u64, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixes of every line kind at random pads, with and without
    /// a trailing record and a record budget.
    #[test]
    fn gated_streams_equal_the_oracle(
        lines in proptest::collection::vec((0u8..11, 0usize..8), 1..48),
        trailing in any::<bool>(),
        budget in 0usize..64,
    ) {
        let stream = gated_stream(&lines, trailing);
        // A budget past the 48 lines' records is none.
        let limits = IngestLimits {
            max_record_bytes: Some(MAX_RECORD),
            max_records: Some(budget),
        };
        assert_gated_equiv(&stream, limits);
    }
}
