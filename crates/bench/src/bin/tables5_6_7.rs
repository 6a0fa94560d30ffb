//! Tables V–VII and Fig. 3: the full design-space exploration for QS0,
//! QS1 and QT — Pareto fronts printed in paper notation, full point
//! clouds written as `fig3_<query>.csv` (FPR, LUTs, num_attributes).
//! The tables use the paper's number primitive; after each, the front of
//! the same space with value-anchored number tokens (`va`, a deviation
//! from the paper) is printed beside it.
//!
//! `cargo run -p rfjson-bench --bin tables5_6_7 --release [--csv-dir DIR]`

use rfjson_bench::{standard_datasets, RECORDS};
use rfjson_core::design::{explore, pareto, ExploreOptions};
use rfjson_core::NumberTechnique;
use rfjson_riotbench::{Dataset, Query};
use std::io::Write;

fn main() {
    let csv_dir = std::env::args()
        .skip_while(|a| a != "--csv-dir")
        .nth(1)
        .unwrap_or_else(|| ".".to_string());
    let (smartcity, taxi, _) = standard_datasets();

    run(
        "Table V — Pareto points for QS0",
        &Query::qs0(),
        &smartcity,
        &csv_dir,
        "fig3_qs0.csv",
    );
    run(
        "Table VI — Pareto points for QS1",
        &Query::qs1(),
        &smartcity,
        &csv_dir,
        "fig3_qs1.csv",
    );
    run(
        "Table VII — Pareto points for QT",
        &Query::qt(),
        &taxi,
        &csv_dir,
        "fig3_qt.csv",
    );
}

fn run(title: &str, query: &Query, dataset: &Dataset, csv_dir: &str, csv_name: &str) {
    println!("\n{title}");
    println!(
        "  query: {query}\n  dataset: {} records, measured selectivity {:.3}",
        RECORDS,
        query.selectivity(dataset)
    );
    let opts = ExploreOptions {
        number: NumberTechnique::Token,
        ..ExploreOptions::default()
    };
    let points = explore(query, dataset, &opts);
    println!("  design points evaluated: {}", points.len());

    // Fig. 3 scatter CSV.
    let path = format!("{csv_dir}/{csv_name}");
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "fpr,luts,num_attributes");
            for p in &points {
                let _ = writeln!(f, "{:.6},{},{}", p.fpr, p.luts, p.num_attributes);
            }
            println!("  Fig. 3 scatter data -> {path}");
        }
        Err(e) => eprintln!("  (could not write {path}: {e})"),
    }

    let front = pareto(&points);
    println!("\n  {:>6}  {:>5}  raw-filter configuration", "FPR", "LUTs");
    for p in &front {
        println!("  {:>6.3}  {:>5}  {}", p.fpr, p.luts, p.notation(query));
    }

    let anchored = ExploreOptions {
        number: NumberTechnique::Anchored,
        ..opts
    };
    let front = pareto(&explore(query, dataset, &anchored));
    println!("\n  the same space with value-anchored number tokens (va):");
    println!("  {:>6}  {:>5}  raw-filter configuration", "FPR", "LUTs");
    for p in &front {
        println!("  {:>6.3}  {:>5}  {}", p.fpr, p.luts, p.notation(query));
    }
}
