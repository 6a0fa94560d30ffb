//! Differential property tests: the flat batch [`Engine`] must be
//! **bit-identical** to the cosim-faithful [`CompiledFilter`]. Its byte
//! loop, the record-at-a-time oracle, must match on the per-byte latched
//! accept signal, from a reset after any state; its stream path, the word
//! kernel, on every record's verdict, with the record at every word
//! offset right after another ([`zoo::assert_engine_seams`]). The engine
//! is only allowed to be faster, never different.

mod zoo;

use proptest::prelude::*;
use rfjson_core::engine::Engine;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, StructScope};
use rfjson_core::FilterBackend;
use rfjson_riotbench::{smartcity, taxi, twitter};
use zoo::{
    adversarial_records, anchoring_records, assert_engine_seams, expression_zoo,
    wide_program_records, wide_programs,
};

/// One expression compiled for both byte loops, compared record after
/// record (compiling 70 range automata per record would be most of the
/// suite's time).
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

    /// Steps both byte loops over `record + '\n'` and asserts the accept
    /// signal matches on **every byte**.
    fn assert_bytewise(&mut self, record: &[u8]) {
        self.assert_bytewise_after(b"", record);
    }

    /// [`Pair::assert_bytewise`] after the engine was fed `dirty` — a
    /// record cut short, without its separator — and reset: a reset
    /// returns every lane to its reset state, whatever state it finds.
    fn assert_bytewise_after(&mut self, dirty: &[u8], record: &[u8]) {
        for &b in dirty {
            self.engine.on_byte(b);
        }
        self.engine.reset();
        self.model.reset();
        for (i, &b) in record.iter().chain(b"\n").enumerate() {
            let e = self.engine.on_byte(b);
            let m = self.model.on_byte(b);
            assert_eq!(
                e,
                m,
                "expr `{}` diverges at byte {i} ({:?}) of record {:?} after {:?}",
                self.expr,
                b as char,
                String::from_utf8_lossy(record),
                String::from_utf8_lossy(dirty)
            );
        }
    }
}

/// Both paths of `expr` against the model on `records`: the byte loop
/// per byte, the stream path per record at every word offset.
fn assert_both(expr: &Expr, records: &[impl AsRef<[u8]>]) {
    let mut pair = Pair::new(expr);
    for record in records {
        pair.assert_bytewise(record.as_ref());
    }
    assert_engine_seams(expr, records);
}

#[test]
fn wide_programs_equal_the_model_at_random_seams() {
    let mut records = wide_program_records();
    records.extend(adversarial_records().iter().map(|r| r.to_vec()));
    for (e, expr) in wide_programs().iter().enumerate() {
        let mut pair = Pair::new(expr);
        let mut x = e as u64;
        let mut dirty: &[u8] = b"";
        for record in &records {
            // The byte loop from a reset after the record before — whole,
            // as a needle cut over two records leaves it, and cut at two
            // pseudo-random points.
            pair.assert_bytewise_after(dirty, record);
            for _ in 0..2 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cut = (x >> 33) as usize % (dirty.len() + 1);
                pair.assert_bytewise_after(&dirty[..cut], record);
            }
            dirty = record;
        }
        assert_engine_seams(expr, &records);
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
        for ds in &datasets {
            assert_both(&expr, ds.records());
        }
    }
}

#[test]
fn engine_equals_model_on_adversarial_inputs() {
    let records = adversarial_records();
    for expr in expression_zoo() {
        assert_both(&expr, &records);
    }
}

#[test]
fn anchoring_zoo_equals_the_model_at_every_seam() {
    // Each record where anchoring decides at every word offset, right
    // after another: the two anchoring bits cross every word seam and
    // every separator.
    let records = anchoring_records();
    for expr in expression_zoo() {
        assert_both(&expr, &records);
    }
}

#[test]
fn engine_equals_model_on_stream_framing() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random records from all three generators, random zoo expression:
    /// per-byte and per-record equality must hold for every combination.
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
        assert_both(&zoo[expr_idx % zoo.len()], ds.records());
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
        // The soup twice: the second time right after the first.
        for expr in &exprs {
            assert_both(expr, &[&soup, &soup]);
        }
    }
}
