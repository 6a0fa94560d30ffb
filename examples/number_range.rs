//! The Fig. 2 walk-through: deriving a number filter for `i ≥ 35`,
//! then building the single range automaton for `12 ≤ i ≤ 49` and
//! elaborating it to RTL — with the paper's token technique and with
//! value-anchored tokens, which judge only what a parser could read as a
//! number.
//!
//! Run with: `cargo run -p rfjson-core --example number_range`

use rfjson_core::cost::exact_cost;
use rfjson_core::expr::{Expr, NumberTechnique};
use rfjson_core::primitive::{FireFilter, NumberMatcher};
use rfjson_redfa::range::{ge_int_regex, NumberBounds};
use rfjson_redfa::{Decimal, Dfa};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fig. 2: number filter build process for i >= 35 ==\n");
    let bound: Decimal = "35".parse()?;

    // Step 1: derive the regular expression (digit-wise case analysis).
    let regex = ge_int_regex(&bound);
    println!("step 1 (regex):   {regex}");

    // Step 2: convert to a DFA and minimise.
    let dfa = Dfa::from_regex(&regex);
    let min = dfa.minimized();
    println!(
        "step 2 (DFA):     {} states -> {} states after minimisation, {} input classes",
        dfa.num_states(),
        min.num_states(),
        min.num_classes()
    );
    println!("\n{min}");

    for probe in ["34", "35", "36", "99", "100", "9", "035"] {
        println!(
            "  {probe:>4} -> {}",
            if min.accepts(probe.as_bytes()) {
                "accept"
            } else {
                "reject"
            }
        );
    }

    println!("\n== The single range automaton for 12 <= i <= 49 ==\n");
    let bounds = NumberBounds::int_range(12, 49);
    let range_dfa = bounds.to_dfa_exact();
    let ge = Dfa::from_regex(&ge_int_regex(&"12".parse()?)).minimized();
    println!(
        "one automaton for the range: {} states (lower bound alone: {});",
        range_dfa.num_states(),
        ge.num_states()
    );
    println!("\"...which can later be optimized better than two separate automata\"\n");

    // And the exponent-tolerant version that actually gets synthesised:
    let hw_dfa = bounds.to_dfa();
    println!(
        "with the approximate exponent clause: {} states",
        hw_dfa.num_states()
    );
    for probe in ["11", "12", "49", "50", "2.1e3", "120e-1"] {
        println!(
            "  {probe:>7} -> {}",
            if hw_dfa.accepts(probe.as_bytes()) {
                "accept"
            } else {
                "reject"
            }
        );
    }

    println!("\nelaborated to RTL and LUT-mapped:");
    for technique in [NumberTechnique::Token, NumberTechnique::Anchored] {
        let expr = Expr::int_range(12, 49).with_number_technique(technique);
        println!("  {:<16} {}", expr.to_string(), exact_cost(&expr));
    }

    println!("\n== Where a token counts: v(140 <= i <= 3155) on a taxi ID ==\n");
    let trip_time = NumberBounds::int_range(140, 3155);
    let record = br#"{"medallion":"96F7E95C","trip_time_in_secs":120}"#;
    println!("  record: {}", String::from_utf8_lossy(record));
    for technique in [NumberTechnique::Token, NumberTechnique::Anchored] {
        let mut v = NumberMatcher::new(trip_time.clone(), technique);
        let verdict = if v.fired_in_record(record) {
            "fires (\"7E95\" under the exponent clause)"
        } else {
            "does not fire: \"7E95\" sits between 'F' and 'C'"
        };
        println!("  {technique:?}: {verdict}");
    }
    Ok(())
}
