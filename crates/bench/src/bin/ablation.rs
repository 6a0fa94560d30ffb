//! Ablations of the paper's §V future-work ideas:
//!
//! 1. **Omitting substrings in the string search** — realised as matching
//!    a shorter infix of the needle (dropping comparator blocks from the
//!    end keeps the no-false-negative guarantee while shrinking both the
//!    comparator bank and the run counter). Measured as the record-level
//!    FPR of the composed `{ s(infix) & v(range) }` filter.
//! 2. **Adjusting the bounds of value range filters** — widening bounds to
//!    fewer significant digits shrinks the range automaton at the price of
//!    extra false positives (never false negatives).
//!
//! Both run with the paper's number primitive (`v`), then once more with
//! value-anchored number tokens (`va`, [`NumberTechnique::Anchored`]).
//!
//! `cargo run -p rfjson-bench --bin ablation --release`

use rfjson_bench::standard_datasets;
use rfjson_core::cost::option_cost;
use rfjson_core::eval::measure;
use rfjson_core::expr::{Expr, NumberTechnique, StructScope};
use rfjson_core::query::predicate_bounds;
use rfjson_riotbench::{Dataset, Query};

fn main() {
    let (smartcity, taxi, _) = standard_datasets();
    ablations(&smartcity, &taxi, NumberTechnique::Token);
    println!("\nThe same with value-anchored number tokens (va: a deviation from the paper)\n");
    ablations(&smartcity, &taxi, NumberTechnique::Anchored);
}

fn ablations(smartcity: &Dataset, taxi: &Dataset, number: NumberTechnique) {
    println!("Ablation 1 — omitting substrings: {{ sB(infix) & v(range) }} vs full needle\n");
    ablate_infix(
        "QT / tolls_amount, B=2, member scope",
        taxi,
        &Query::qt(),
        3,
        2,
        StructScope::Member,
        number,
    );
    println!();
    ablate_infix(
        "QS0 / temperature, B=1, object scope",
        smartcity,
        &Query::qs0(),
        0,
        1,
        StructScope::Object,
        number,
    );

    println!("\nAblation 2 — widening range-filter bounds to fewer significant digits\n");
    println!(
        "{:<18} {:>6} {:>8}   configuration",
        "precision", "LUTs", "FPR"
    );
    let q = Query::qs1();
    for digits in [0usize, 1, 2] {
        // Attribute 3 = dust (186.61 ≤ f ≤ 5188.21), the costliest automaton.
        let pred = &q.predicates[3];
        let bounds = predicate_bounds(pred).expect("valid");
        let bounds = if digits == 0 {
            bounds
        } else {
            bounds.widened_to_digits(digits)
        };
        let expr = Expr::Num(bounds, number);
        let luts = option_cost(&expr).luts;
        let m = measure(&expr, smartcity, &q);
        assert_eq!(m.false_negatives, 0, "widening must stay FN-free");
        let label = if digits == 0 {
            "exact".to_string()
        } else {
            format!("{digits} sig. digit(s)")
        };
        println!("{label:<18} {luts:>6} {:>8.3}   {expr}", m.fpr());
    }

    println!("\nBoth knobs trade accuracy for resources without ever dropping a match —");
    println!("the §V outlook (\"potentially allowing further resource savings without a");
    println!("large increase in false-positives\"), quantified.");
}

fn ablate_infix(
    title: &str,
    dataset: &Dataset,
    query: &Query,
    pred_idx: usize,
    block: usize,
    scope: StructScope,
    number: NumberTechnique,
) {
    println!("  {title}");
    println!(
        "  {:<18} {:>4} {:>6} {:>8} {:>4}",
        "infix", "len", "LUTs", "FPR", "FN"
    );
    let pred = &query.predicates[pred_idx];
    let full = pred.attribute.as_bytes();
    let bounds = predicate_bounds(pred).expect("valid");
    let mut keep = full.len();
    loop {
        let infix = &full[..keep];
        let expr = Expr::context_scoped(
            scope,
            [
                Expr::substring(infix, block).expect("valid"),
                Expr::Num(bounds.clone(), number),
            ],
        );
        let luts = option_cost(&expr).luts;
        let m = measure(&expr, dataset, query);
        println!(
            "  {:<18} {:>4} {:>6} {:>8.3} {:>4}",
            String::from_utf8_lossy(infix),
            keep,
            luts,
            m.fpr(),
            m.false_negatives
        );
        assert_eq!(m.false_negatives, 0, "infix matching must stay FN-free");
        if keep <= 4 {
            break;
        }
        keep -= 2;
    }
}
