//! Cross-crate integration tests: the full pipeline from workload
//! generation through filtering, resource estimation and design-space
//! exploration.

use rfjson_core::arch::RawFilterSystem;
use rfjson_core::cost::{exact_cost, option_cost};
use rfjson_core::design::{explore, pareto, ExploreOptions};
use rfjson_core::eval::{measure, positional_fpr};
use rfjson_core::expr::{Expr, NumberTechnique, StringTechnique};
use rfjson_core::primitive::SubstringMatcher;
use rfjson_core::query::query_to_exprs;
use rfjson_core::{CompiledFilter, FilterBackend};
use rfjson_jsonstream::parse;
use rfjson_riotbench::{smartcity, taxi, twitter, Query};

#[test]
fn end_to_end_smartcity_qs0() {
    // Generate → filter → compare against parsed ground truth.
    let ds = smartcity::generate(100, 600);
    let q = Query::qs0();
    let expr = query_to_exprs(&q, 1).expect("query converts");
    let m = measure(&expr, &ds, &q);
    assert_eq!(m.false_negatives, 0, "raw-filter invariant");
    assert!(m.fpr() < 0.10, "full structural filter FPR {}", m.fpr());
    // The filter keeps roughly the query selectivity worth of records.
    let sel = q.selectivity(&ds);
    assert!(m.pass_rate() >= sel);
    assert!(m.pass_rate() <= sel + 0.12);
}

#[test]
fn end_to_end_taxi_qt() {
    let ds = taxi::generate(101, 600);
    let q = Query::qt();
    let expr = query_to_exprs(&q, 2).expect("query converts");
    let m = measure(&expr, &ds, &q);
    assert_eq!(m.false_negatives, 0);
    assert!(m.fpr() < 0.10, "FPR {}", m.fpr());
    // Headline claim regime: the vast majority of the raw stream is
    // dropped before parsing (paper: up to 94.3 %).
    assert!(
        m.filtered_fraction() > 0.80,
        "filtered {}",
        m.filtered_fraction()
    );
}

#[test]
fn filter_agrees_with_parse_then_evaluate() {
    // For every record: if the parser+query says "match", the raw filter
    // must agree; disagreements may only be filter-accepts (false
    // positives).
    let ds = twitter::generate(102, 200);
    let needle = b"favourites_count";
    let mut filter = CompiledFilter::compile(&Expr::substring(needle, 2).expect("valid spec"));
    for rec in ds.records() {
        let parsed = parse(rec).expect("generated records parse");
        let truly_contains = parsed.get("user").is_some()
            && String::from_utf8_lossy(rec).contains("favourites_count");
        let accepted = filter.accepts_record(rec);
        if truly_contains {
            assert!(accepted, "no false negatives on {rec:?}");
        }
    }
}

#[test]
fn design_space_contains_paper_configurations() {
    // The explored space must include the shapes of the Table VI Pareto
    // rows: bare v(...), { s1 & v }, and their conjunctions.
    let ds = smartcity::generate(103, 300);
    let q = Query::qs1();
    let opts = ExploreOptions {
        techniques: vec![StringTechnique::Substring(1)],
        number: NumberTechnique::Token,
        include_string_only: true,
        include_plain_pairs: true,
        max_records: 300,
        threads: 4,
    };
    let points = explore(&q, &ds, &opts);
    // 5 attributes × {None, v, s1, {s1&v}, s1&v} = 5^5 − 1.
    assert_eq!(points.len(), 5usize.pow(5) - 1);
    let front = pareto(&points);
    let notations: Vec<String> = front.iter().map(|p| p.notation(&q)).collect();
    assert!(
        notations.iter().any(|s| s.starts_with("v(")),
        "front should contain a bare value filter: {notations:?}"
    );
    assert!(
        notations.iter().any(|s| s.contains("{ s1(")),
        "front should contain structural pairs: {notations:?}"
    );
    // FPR at the accurate end must be near zero, like Table VI's last row.
    assert!(front.last().expect("non-empty front").fpr < 0.05);
}

#[test]
fn resource_reports_are_consistent() {
    // exact (full filter) ≥ option (structure signals free) for a
    // structural expression; both positive.
    let expr = Expr::context([
        Expr::substring(b"light", 1).expect("valid"),
        Expr::int_range(1345, 26282),
    ]);
    let exact = exact_cost(&expr);
    let option = option_cost(&expr);
    assert!(exact.luts > option.luts);
    assert!(option.luts > 0);
    assert!(exact.ffs > option.ffs, "mask/depth registers included");
}

#[test]
fn seven_lane_system_filters_a_stream() {
    let ds = smartcity::generate(104, 300);
    let q = Query::qs1();
    let expr = query_to_exprs(&q, 1).expect("query converts");
    let stream = ds.stream();
    let mut sys = RawFilterSystem::new(&expr, 7);
    let (matches, report) = sys.process(&stream);
    assert_eq!(matches.len(), ds.len());
    assert_eq!(report.accepted, matches.iter().filter(|m| **m).count());
    // Cross-check against the single-filter decisions.
    let mut single = CompiledFilter::compile(&expr);
    for (rec, &m) in ds.records().iter().zip(&matches) {
        assert_eq!(single.accepts_record(rec), m);
    }
    assert!(report.sustains_10gbe(), "{report}");
}

#[test]
// Exact 0.0 is the point: B=2 must produce literally zero false
// positives, not a small ratio.
#[allow(clippy::float_cmp)]
fn positional_fpr_tables_shape() {
    // Spot-check the three headline phenomena of Tables I–III.
    let taxi_ds = taxi::generate(105, 300);
    let twitter_ds = twitter::generate(106, 300);

    let mut tolls1 = SubstringMatcher::new(b"tolls_amount", 1).expect("valid");
    assert!(positional_fpr(&mut tolls1, b"tolls_amount", &taxi_ds) > 0.99);

    let mut tolls2 = SubstringMatcher::new(b"tolls_amount", 2).expect("valid");
    assert_eq!(positional_fpr(&mut tolls2, b"tolls_amount", &taxi_ds), 0.0);

    let mut user1 = SubstringMatcher::new(b"user", 1).expect("valid");
    assert!(positional_fpr(&mut user1, b"user", &twitter_ds) > 0.99);

    let mut lang1 = SubstringMatcher::new(b"lang", 1).expect("valid");
    let lang_fpr = positional_fpr(&mut lang1, b"lang", &twitter_ds);
    assert!(
        lang_fpr > 0.0 && lang_fpr < 0.9,
        "lang B=1 is non-zero but moderate: {lang_fpr}"
    );
}

#[test]
fn selectivities_in_paper_regime() {
    let sc = smartcity::generate(107, 3000);
    let tx = taxi::generate(108, 3000);
    let s0 = Query::qs0().selectivity(&sc);
    let s1 = Query::qs1().selectivity(&sc);
    let st = Query::qt().selectivity(&tx);
    assert!((0.5..0.8).contains(&s0), "QS0 {s0} (paper 0.639)");
    assert!((0.01..0.15).contains(&s1), "QS1 {s1} (paper 0.054)");
    assert!((0.02..0.12).contains(&st), "QT {st} (paper 0.057)");
}
