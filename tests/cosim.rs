//! Hardware/software co-simulation: every filter expression, elaborated to
//! a gate-level netlist and simulated cycle-accurately, must produce the
//! same record decisions as the software evaluator — and the LUT-mapped
//! form of every netlist must be functionally equivalent to the netlist.

mod zoo;

use proptest::prelude::*;
use rfjson_core::cosim::CosimBackend;
use rfjson_core::elaborate::elaborate_filter;
use rfjson_core::evaluator::CompiledFilter;
use rfjson_core::expr::{Expr, NumberTechnique, StructScope};
use rfjson_core::FilterBackend;
use rfjson_riotbench::{smartcity, taxi, twitter};
use rfjson_techmap::aig::Aig;
use rfjson_techmap::map_aig;

/// Streams records through the elaborated netlist via the cosim filter
/// backend — the same [`FilterBackend`] interface the software paths
/// use, so hardware and software are driven identically.
fn hw_filter_stream(expr: &Expr, records: &[&[u8]]) -> Vec<bool> {
    let mut hw = CosimBackend::compile(expr);
    records.iter().map(|r| hw.accepts_record(r)).collect()
}

fn sw_filter_stream(expr: &Expr, records: &[&[u8]]) -> Vec<bool> {
    let mut f = CompiledFilter::compile(expr);
    records.iter().map(|r| f.accepts_record(r)).collect()
}

fn assert_cosim_on(expr: &Expr, records: &[&[u8]]) {
    let hw = hw_filter_stream(expr, records);
    let sw = sw_filter_stream(expr, records);
    for ((record, h), s) in records.iter().zip(&hw).zip(&sw) {
        assert_eq!(
            h,
            s,
            "expr `{expr}` diverges on {:?}",
            String::from_utf8_lossy(record)
        );
    }
}

/// Representative expressions covering every primitive and combinator.
fn expression_zoo() -> Vec<Expr> {
    vec![
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::substring(b"tolls_amount", 2).unwrap(),
        Expr::substring(b"dust", 4).unwrap(),
        Expr::window(b"light").unwrap(),
        Expr::dfa_string(b"humidity").unwrap(),
        Expr::int_range(12, 49),
        Expr::int_range(1345, 26282),
        Expr::float_range("0.7", "35.1").unwrap(),
        Expr::float_range("-12.5", "43.1").unwrap(),
        Expr::and([
            Expr::substring(b"light", 1).unwrap(),
            Expr::int_range(1345, 26282),
        ]),
        Expr::or([
            Expr::substring(b"cat", 1).unwrap(),
            Expr::substring(b"dog", 1).unwrap(),
        ]),
        Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]),
        Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        ),
        Expr::and([
            Expr::context([
                Expr::substring(b"humidity", 1).unwrap(),
                Expr::float_range("20.3", "69.1").unwrap(),
            ]),
            Expr::context([
                Expr::substring(b"airquality_raw", 1).unwrap(),
                Expr::int_range(12, 49),
            ]),
            Expr::int_range(0, 5153),
        ]),
        // The paper's number technique (the ranges above are anchored).
        Expr::int_range(12, 49).with_number_technique(NumberTechnique::Token),
        Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1")
                .unwrap()
                .with_number_technique(NumberTechnique::Token),
        ]),
    ]
}

#[test]
fn cosim_anchoring_zoo() {
    // The records where anchoring decides, each record on its own and
    // all of them through one live netlist that only the `\n` resets:
    // the anchoring registers must restart at every separator.
    let records = zoo::anchoring_records();
    let records: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
    for expr in zoo::anchoring_exprs()
        .into_iter()
        .chain(expression_zoo())
        .chain([Expr::int_range(140, 3155)])
    {
        assert_cosim_on(&expr, &records);
        let mut hw = CosimBackend::compile(&expr);
        let mut sw = CompiledFilter::compile(&expr);
        hw.reset();
        for record in &records {
            for &b in *record {
                hw.on_byte(b);
            }
            let decision = hw.on_byte(b'\n');
            assert_eq!(
                decision,
                sw.accepts_record(record),
                "expr `{expr}` on {record:?}"
            );
        }
    }
}

#[test]
fn cosim_zoo_on_smartcity() {
    let ds = smartcity::generate(200, 25);
    let records: Vec<&[u8]> = ds.records().iter().map(Vec::as_slice).collect();
    for expr in expression_zoo() {
        assert_cosim_on(&expr, &records);
    }
}

#[test]
fn cosim_zoo_on_taxi() {
    let ds = taxi::generate(201, 20);
    let records: Vec<&[u8]> = ds.records().iter().map(Vec::as_slice).collect();
    for expr in expression_zoo() {
        assert_cosim_on(&expr, &records);
    }
}

#[test]
fn cosim_zoo_on_twitter() {
    let ds = twitter::generate(202, 15);
    let records: Vec<&[u8]> = ds.records().iter().map(Vec::as_slice).collect();
    for expr in expression_zoo() {
        assert_cosim_on(&expr, &records);
    }
}

#[test]
fn hardware_newline_reset_isolates_records() {
    // The backend's stream driver force-resets between records, so this
    // test deliberately does NOT: one live netlist consumes a whole
    // multi-record stream byte-by-byte, and only the elaborated `\n`
    // record_reset logic separates the records — a regression in that
    // hardware reset (match latch, DFA state, or depth counter carrying
    // over) shows up here and nowhere else.
    let exprs = [
        Expr::substring(b"temperature", 1).unwrap(),
        Expr::float_range("0.7", "35.1").unwrap(),
        Expr::context_scoped(
            StructScope::Member,
            [Expr::substring(b"x", 1).unwrap(), Expr::int_range(1, 5)],
        ),
    ];
    // State-poisoning sequence: matches, non-matches, unbalanced
    // brackets, a dangling string quote — each must be fully cleared by
    // the `\n` alone before the next record arrives.
    let records: Vec<&[u8]> = vec![
        br#"{"e":[{"v":"21.0","n":"temperature"}]}"#,
        b"}{,\"x\":2",
        br#"{"x":3,"y":99}"#,
        br#"{"open":"unterminated"#,
        br#"{"x":9,"v":"99.0","n":"temperature"}"#,
        br#"{"x":4}"#,
    ];
    for expr in &exprs {
        let mut hw = CosimBackend::compile(expr);
        let mut sw = CompiledFilter::compile(expr);
        hw.reset();
        sw.reset();
        let mut hw_decisions = Vec::new();
        let mut sw_decisions = Vec::new();
        for record in &records {
            for &b in *record {
                hw.on_byte(b);
                sw.on_byte(b);
            }
            // Decision is sampled at the separator cycle; for the
            // hardware, that same cycle performs the in-band reset. The
            // software model's reset is the driver's job, so only `sw`
            // gets an explicit one.
            hw_decisions.push(hw.on_byte(b'\n'));
            sw_decisions.push(sw.on_byte(b'\n'));
            sw.reset();
        }
        assert_eq!(hw_decisions, sw_decisions, "expr `{expr}`");
    }
}

#[test]
fn mapped_netlists_equivalent_to_source() {
    // For each zoo expression: AIG of the elaborated netlist vs its
    // LUT-mapped network on pseudo-random input vectors.
    for expr in expression_zoo() {
        let netlist = elaborate_filter(&expr, "dut");
        let aig = Aig::from_netlist(&netlist);
        let (report, lutnet) = map_aig(&aig, 6);
        assert!(report.luts > 0, "expr `{expr}` mapped to nothing");
        let n = aig.num_inputs();
        let mut x = 0x243F_6A88_85A3_08D3_u64 ^ (report.luts as u64);
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let inputs: Vec<bool> = (0..n).map(|i| (x >> (i % 64)) & 1 == 1).collect();
            assert_eq!(
                aig.eval(&inputs),
                lutnet.eval(&inputs),
                "expr `{expr}` mapping not equivalent"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised co-simulation: random SenML-ish records against the
    /// structural temperature filter.
    #[test]
    fn cosim_random_senml(
        temp in 0i32..500,
        hum in 0i32..1000,
        extra in "[a-z]{0,8}",
    ) {
        let expr = Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]);
        let record = format!(
            concat!(
                "{{\"e\":[",
                "{{\"v\":\"{}.{}\",\"u\":\"far\",\"n\":\"temperature\"}},",
                "{{\"v\":\"{}.{}\",\"u\":\"per\",\"n\":\"{}\"}}",
                "],\"bt\":1}}"
            ),
            temp / 10, temp % 10, hum / 10, hum % 10, extra,
        );
        let records: Vec<&[u8]> = vec![record.as_bytes()];
        let hw = hw_filter_stream(&expr, &records);
        let sw = sw_filter_stream(&expr, &records);
        prop_assert_eq!(hw, sw);
    }

    /// Randomised co-simulation of the number filter on arbitrary numeric
    /// soup (exercises token boundaries, signs, exponents).
    #[test]
    fn cosim_random_numbers(
        tokens in prop::collection::vec("-?[0-9]{1,5}(\\.[0-9]{1,3})?(e-?[0-9])?", 1..6),
    ) {
        let expr = Expr::float_range("-12.5", "43.1").unwrap();
        let record = format!("{{\"vals\":[{}]}}", tokens.join(","));
        let records: Vec<&[u8]> = vec![record.as_bytes()];
        let hw = hw_filter_stream(&expr, &records);
        let sw = sw_filter_stream(&expr, &records);
        prop_assert_eq!(hw, sw);
    }
}
