//! Table VIII: the evaluation queries with paper and measured
//! selectivities, plus per-predicate pass rates (which expose the taxi
//! attribute correlations of §IV-A). Closes with the cost of each query's
//! value filters per number unit, with the paper's token technique and
//! with value-anchored tokens.
//!
//! `cargo run -p rfjson-bench --bin table8 --release`

use rfjson_bench::standard_datasets;
use rfjson_core::cost::option_cost;
use rfjson_core::query::predicate_bounds;
use rfjson_core::{Expr, NumberTechnique};
use rfjson_riotbench::stats::{attribute_stats, predicate_pass_rates};
use rfjson_riotbench::{Dataset, Query};

fn main() {
    let (smartcity, taxi, _) = standard_datasets();
    println!("Table VIII — RiotBench queries as used in the evaluation\n");
    for (query, dataset) in [
        (Query::qs0(), &smartcity),
        (Query::qs1(), &smartcity),
        (Query::qt(), &taxi),
    ] {
        show(&query, dataset);
    }
    number_units();
}

/// LUTs and FFs of every value filter `v(range)` alone (structure
/// signals as inputs), token against anchored.
fn number_units() {
    println!("value filters per number unit, LUTs / FFs: v (paper) | va (anchored)");
    for query in [Query::qs0(), Query::qs1(), Query::qt()] {
        for predicate in &query.predicates {
            let bounds = predicate_bounds(predicate).expect("Table VIII predicates are valid");
            let cost = |technique| option_cost(&Expr::Num(bounds.clone(), technique));
            let (token, anchored) = (
                cost(NumberTechnique::Token),
                cost(NumberTechnique::Anchored),
            );
            println!(
                "  {:<4} {:<20} {:>4} / {:>2} | {:>4} / {:>2}   {bounds}",
                query.name, predicate.attribute, token.luts, token.ffs, anchored.luts, anchored.ffs
            );
        }
    }
}

fn show(query: &Query, dataset: &Dataset) {
    println!("{query}");
    let measured = query.selectivity(dataset);
    println!(
        "  selectivity: paper {:.1} %, measured {:.1} % ({} records)",
        query.paper_selectivity * 100.0,
        measured * 100.0,
        dataset.len()
    );
    println!("  per-predicate pass rates and value statistics:");
    for (attr, rate) in predicate_pass_rates(dataset, query) {
        let stats = attribute_stats(dataset, query, &attr)
            .map_or_else(|| "absent".into(), |s| s.to_string());
        println!("    {attr:<20} pass {:>5.1} %   {stats}", rate * 100.0);
    }
    let product: f64 = predicate_pass_rates(dataset, query)
        .iter()
        .map(|(_, r)| r)
        .product();
    println!(
        "  independence product {:.3} vs joint {:.3}{}\n",
        product,
        measured,
        if measured > product * 1.2 {
            "  <- correlated attributes (§IV-A)"
        } else {
            ""
        }
    );
}
