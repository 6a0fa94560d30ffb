//! Differential property tests: the flat batch [`Engine`] must be
//! **bit-identical** to the cosim-faithful [`CompiledFilter`]: its stream
//! path, the word kernel, on every record's verdict, with the record at
//! every word offset right after another ([`zoo::assert_engine_seams`]).
//! The engine is only allowed to be faster, never different.

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

#[test]
fn wide_programs_equal_the_model_at_random_seams() {
    let mut records = wide_program_records();
    records.extend(adversarial_records().iter().map(|r| r.to_vec()));
    for expr in &wide_programs() {
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
            assert_engine_seams(&expr, ds.records());
        }
    }
}

#[test]
fn engine_equals_model_on_adversarial_inputs() {
    let records = adversarial_records();
    for expr in expression_zoo() {
        assert_engine_seams(&expr, &records);
    }
}

#[test]
fn anchoring_zoo_equals_the_model_at_every_seam() {
    // Each record where anchoring decides at every word offset, right
    // after another: the two anchoring bits cross every word seam and
    // every separator.
    let records = anchoring_records();
    for expr in expression_zoo() {
        assert_engine_seams(&expr, &records);
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
    /// per-record equality must hold for every combination.
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
        assert_engine_seams(&zoo[expr_idx % zoo.len()], ds.records());
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
            assert_engine_seams(expr, &[&soup, &soup]);
        }
    }
}
