//! Differential property tests: the flat batch [`Engine`] must be
//! **bit-identical, byte-for-byte** to the cosim-faithful
//! [`CompiledFilter`] — not just on final record decisions but on the
//! per-byte latched accept signal. The engine is only allowed to be
//! faster, never different.

mod zoo;

use proptest::prelude::*;
use rfjson_core::engine::{Engine, PrefilterStatus};
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::FilterBackend;
use rfjson_riotbench::{smartcity, taxi, twitter};
use std::sync::{Mutex, MutexGuard, PoisonError};
use zoo::{
    adversarial_records, anchoring_records, expression_zoo, wide_program_records, wide_programs,
};

/// Telemetry counters are process-global: the tests that flush them run
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records up to this long are cut at every pair of positions.
const EVERY_CUT_PAIR: usize = 64;

/// One expression compiled for both execution paths, compared record
/// after record (compiling 70 range automata per record would be most of
/// the suite's time).
struct Pair {
    expr: Expr,
    engine: Engine,
    model: CompiledFilter,
}

impl Pair {
    fn new(expr: &Expr) -> Pair {
        Pair {
            expr: expr.clone(),
            engine: Engine::compile(expr),
            model: CompiledFilter::compile(expr),
        }
    }

    /// Steps both execution paths over `record + '\n'` and asserts the
    /// accept signal matches on **every byte**.
    fn assert_bytewise(&mut self, record: &[u8]) {
        self.engine.reset();
        self.model.reset();
        for (i, &b) in record.iter().chain(b"\n").enumerate() {
            let e = self.engine.on_byte(b);
            let m = self.model.on_byte(b);
            assert_eq!(
                e,
                m,
                "expr `{}` diverges at byte {i} ({:?}) of record {:?}",
                self.expr,
                b as char,
                String::from_utf8_lossy(record)
            );
        }
    }

    /// Feeds the record through the engine in three pieces — an `on_byte`
    /// prefix, an [`Engine::on_block`] call, a second one — and asserts
    /// the record decision matches the byte-serial model. Short records
    /// are cut at every pair of positions, longer ones at a few around
    /// word boundaries: serial→block seams (the packed-state
    /// sync-in/sync-out) and block→block seams are crossed inside number
    /// tokens, needle runs, strings and escapes alike.
    fn assert_blockwise(&mut self, record: &[u8]) {
        let want = self.model.accepts_record(record);
        let n = record.len();
        let cuts: Vec<usize> = if n <= EVERY_CUT_PAIR {
            (0..=n).collect()
        } else {
            vec![0, 1, 7, 8, 9, 16, 17, n / 2, n / 2 + 5, n - 9, n - 1, n]
        };
        for (i, &first) in cuts.iter().enumerate() {
            for &second in &cuts[i..] {
                // A fresh engine takes its first block for the whole
                // record.
                if first == 0 && second != n {
                    continue;
                }
                self.engine.reset();
                let mut last = false;
                for &b in &record[..first] {
                    last = self.engine.on_byte(b);
                }
                for block in [&record[first..second], &record[second..]] {
                    if !block.is_empty() {
                        last = self.engine.on_block(block);
                    }
                }
                let got = self.engine.on_byte(b'\n') || last;
                assert_eq!(
                    got,
                    want,
                    "expr `{}` block path (cuts {first}, {second}) diverges on {:?}",
                    self.expr,
                    String::from_utf8_lossy(record)
                );
            }
        }
    }

    fn assert_both(&mut self, record: &[u8]) {
        self.assert_bytewise(record);
        self.assert_blockwise(record);
    }

    /// [`Pair::assert_blockwise`] at `cuts` pseudo-random pairs of cut
    /// positions drawn from `seed`, each after a reset from the state
    /// `dirty` left without its separator: a reset returns every lane to
    /// its reset state.
    fn assert_random_seams(&mut self, record: &[u8], dirty: &[u8], seed: u64, cuts: usize) {
        let want = self.model.accepts_record(record);
        let n = record.len();
        let mut x = seed;
        let mut draw = |below: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % below
        };
        for _ in 0..cuts {
            // A first cut at 0 would hand a fresh engine a part of the
            // record as the whole record.
            let first = 1 + draw(n.max(1));
            let second = first + draw(n + 1 - first.min(n));
            let (first, second) = (first.min(n), second.min(n));
            self.engine.reset();
            for &b in dirty {
                self.engine.on_byte(b);
            }
            self.engine.reset();
            let mut last = false;
            for &b in &record[..first] {
                last = self.engine.on_byte(b);
            }
            for block in [&record[first..second], &record[second..]] {
                if !block.is_empty() {
                    last = self.engine.on_block(block);
                }
            }
            let got = self.engine.on_byte(b'\n') || last;
            assert_eq!(
                got,
                want,
                "expr `{}` (cuts {first}, {second}) diverges on {:?}",
                self.expr,
                String::from_utf8_lossy(record)
            );
        }
    }
}

#[test]
fn every_zoo_expression_takes_the_block_path() {
    if !rfjson_telemetry::ENABLED {
        return;
    }
    let _guard = serialize();
    // Every program runs the word kernel: the zoo, the many-range `Or`
    // past one latch word, and the wide programs at the edges of the
    // lane layout. After one serial byte, `on_block` scans every whole
    // word of the rest of the record in the kernel and only the sub-word
    // tail byte by byte.
    let record = taxi::generate(95, 1).records()[0].clone();
    let rest = record.len() - 1;
    for expr in expression_zoo().into_iter().chain(wide_programs()) {
        let mut engine = Engine::compile(&expr);
        engine.on_byte(record[0]);
        engine.on_block(&record[1..]);
        let before = rfjson_telemetry::registry().snapshot();
        engine.flush_telemetry();
        let d = rfjson_telemetry::registry().snapshot().delta(&before);
        assert_eq!(
            d.counter("engine.bytes.block"),
            (rest & !7) as u64,
            "`{expr}`"
        );
        assert_eq!(
            d.counter("engine.bytes.byte_serial"),
            1 + (rest & 7) as u64,
            "`{expr}`"
        );
    }
}

#[test]
fn wide_programs_equal_the_model_at_random_seams() {
    let mut records = wide_program_records();
    records.extend(adversarial_records().iter().map(|r| r.to_vec()));
    for (e, expr) in wide_programs().iter().enumerate() {
        let mut pair = Pair::new(expr);
        let mut dirty: &[u8] = b"";
        for (r, record) in records.iter().enumerate() {
            pair.assert_bytewise(record);
            pair.assert_random_seams(record, dirty, (e * 1000 + r) as u64, 12);
            dirty = record;
        }
    }
}

#[test]
fn engine_equals_model_on_generated_corpora() {
    let datasets = [
        smartcity::generate(77, 40),
        taxi::generate(78, 40),
        twitter::generate(79, 25),
    ];
    for expr in expression_zoo() {
        let mut pair = Pair::new(&expr);
        for ds in &datasets {
            for record in ds.records() {
                pair.assert_both(record);
            }
        }
    }
}

#[test]
fn engine_equals_model_on_adversarial_inputs() {
    let records = adversarial_records();
    for expr in expression_zoo() {
        let mut pair = Pair::new(&expr);
        for record in &records {
            pair.assert_both(record);
        }
    }
}

#[test]
fn anchoring_zoo_equals_the_model_at_every_seam() {
    // Every cut pair of each record where anchoring decides: the two
    // anchoring bits cross every kernel/byte-loop seam and word offset.
    let records = anchoring_records();
    for expr in expression_zoo() {
        let mut pair = Pair::new(&expr);
        for record in &records {
            pair.assert_both(record);
        }
    }
}

#[test]
fn engine_equals_model_on_stream_framing() {
    let _guard = serialize();
    // filter_stream must agree on CRLF framing, blank lines, and a
    // trailing record without separator.
    let streams: Vec<&[u8]> = vec![
        b"{\"a\":3}\r\n\r\n{\"a\":9}\n\n{\"a\":2}",
        b"\n\n\n",
        b"{\"a\":3}",
        b"{\"a\":3}\n",
        b"\r\n{\"a\":3}\r\n",
    ];
    for expr in expression_zoo() {
        let mut engine = Engine::compile(&expr);
        let mut model = CompiledFilter::compile(&expr);
        for stream in &streams {
            assert_eq!(
                engine.filter_stream(stream),
                model.filter_stream(stream),
                "expr `{expr}` stream {:?}",
                String::from_utf8_lossy(stream)
            );
        }
    }
}

/// The `on_block` contract: a fresh engine takes its first block for the
/// whole record and may prefilter it. Under that precondition a **live**
/// prefilter changes no decision; once a byte of the record went in
/// serially, nothing is prefiltered and blocks may cut anywhere.
#[test]
fn fresh_whole_record_block_with_a_live_prefilter_equals_the_byte_loop() {
    let records: [&[u8]; 4] = [
        br#"{"medallion":"A1","fare_amount":11.50,"tip":2.00}"#, // absent
        br#"{"medallion":"A1","total_amount":5.33}"#,            // look-alike
        br#"{"tolls_amount":5.33,"total_amount":17.33}"#,        // present, in range
        br#"{"total_amount":5.33,"tolls_amount":0.00}"#,         // present, out of range
    ];
    for b in [1, 2] {
        let expr = Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", b).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        );
        let mut model = CompiledFilter::compile(&expr);
        let want: Vec<bool> = records.iter().map(|r| model.accepts_record(r)).collect();
        // s1 takes `total_amount` for the attribute, s2 does not.
        let lookalike_fires = b == 1;
        assert_eq!(want, [false, lookalike_fires, true, lookalike_fires]);

        let mut engine = Engine::compile(&expr);
        let rounds = Engine::PREFILTER_PROBATION as usize / records.len() + 2;
        for round in 0..rounds {
            for (record, &want) in records.iter().zip(&want) {
                engine.reset();
                let last = engine.on_block(record);
                let got = engine.on_byte(b'\n') || last;
                assert_eq!(got, want, "b={b} round {round} on {record:?}");
            }
        }
        assert_eq!(engine.prefilter_status(), PrefilterStatus::Live);
        let (checked, rejected) = engine.prefilter_stats();
        assert_eq!(checked, (rounds * records.len()) as u64);
        assert_eq!(
            rejected,
            (rounds * if lookalike_fires { 1 } else { 2 }) as u64
        );

        // `on_byte(first)` + `on_block(rest)`: same decisions, and the
        // prefilter never looked.
        for (record, &want) in records.iter().zip(&want) {
            engine.reset();
            engine.on_byte(record[0]);
            let last = engine.on_block(&record[1..]);
            assert_eq!(engine.on_byte(b'\n') || last, want, "b={b} on {record:?}");
        }
        assert_eq!(engine.prefilter_stats(), (checked, rejected));

        // Why it is a precondition: a fresh first block that stops short
        // of the needle is judged, and rejected, as if it were the record.
        let late = br#"{"fare":3.00,"tolls_amount":5.33}"#;
        assert!(model.accepts_record(late));
        engine.reset();
        assert!(!engine.on_block(&late[..13]));
        assert_eq!(engine.prefilter_stats(), (checked + 1, rejected + 1));
    }
}

/// A record the prefilter rejected costs nothing further: whatever is fed
/// until the next reset — `\r`, the separator — is answered `false` from
/// untouched state, the reset has nothing to undo, and the record after
/// it is answered exactly as by a twin that never saw the rejected one.
#[test]
fn a_rejected_record_is_inert_until_the_next_reset() {
    let absent = br#"{"medallion":"A1","fare_amount":11.50,"tip":2.00}"#;
    let present = br#"{"tolls_amount":5.33,"total_amount":17.33}"#;
    for b in [1, 2] {
        let expr = Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", b).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        );
        let mut engine = Engine::compile(&expr);
        let mut twin = Engine::compile(&expr);
        for round in 1..=3 {
            engine.reset();
            assert!(!engine.on_block(absent));
            assert_eq!(engine.prefilter_stats(), (2 * round - 1, round));
            for separator in [b'\r', b'\n'] {
                assert!(!engine.on_byte(separator), "b={b} round {round}");
            }
            engine.reset();
            twin.reset();
            let mut want = false;
            for &byte in present.iter().chain(b"\n") {
                want = twin.on_byte(byte);
            }
            assert!(want, "the record matches");
            let last = engine.on_block(present);
            assert_eq!(engine.on_byte(b'\n') || last, want, "b={b} round {round}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random records from all three generators, random zoo expression:
    /// per-byte equality must hold for every combination.
    #[test]
    fn engine_equals_model_on_random_records(
        seed in 0u64..1_000_000,
        n in 1usize..8,
        which in 0usize..3,
        expr_idx in 0usize..19,
    ) {
        let ds = match which {
            0 => smartcity::generate(seed, n),
            1 => taxi::generate(seed, n),
            _ => twitter::generate(seed, n),
        };
        let zoo = expression_zoo();
        let mut pair = Pair::new(&zoo[expr_idx % zoo.len()]);
        for record in ds.records() {
            pair.assert_both(record);
        }
    }

    /// Random structural soup: brackets, quotes, escapes, digits, commas —
    /// the raw material of every latch/clear corner case.
    #[test]
    fn engine_equals_model_on_structural_soup(
        soup in proptest::collection::vec(
            prop_oneof![
                Just(b'{'), Just(b'}'), Just(b'['), Just(b']'),
                Just(b'"'), Just(b'\\'), Just(b','), Just(b':'),
                Just(b'1'), Just(b'9'), Just(b'.'), Just(b'e'),
                Just(b'n'), Just(b't'), Just(b'x'), Just(b' '),
            ],
            0..120,
        ),
    ) {
        let exprs = [
            Expr::context([
                Expr::substring(b"n", 1).unwrap(),
                Expr::int_range(0, 99),
            ]),
            Expr::context_scoped(
                StructScope::Member,
                [Expr::substring(b"t", 1).unwrap(), Expr::int_range(1, 19)],
            ),
            Expr::and([
                Expr::context([
                    Expr::substring(b"nt", 1).unwrap(),
                    Expr::float_range("0.9", "99.1").unwrap(),
                ]),
                Expr::int_range(1, 9),
            ]),
        ];
        for expr in &exprs {
            Pair::new(expr).assert_both(&soup);
        }
    }
}
