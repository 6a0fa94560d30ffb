//! Number automaton verification pass (codes `N02x`; `N00x` are the
//! netlist's).
//!
//! An engine evaluates all its number-range units from pooled product
//! automata ([`rfjson_core::numpool`]): a row stands for one tuple of unit
//! states, a transition yields the next row, and a token ending in a row
//! fires that row's mask. The hot loops index `next` and `fires` and trust
//! both without checking. This pass re-proves, from the
//! [`NumberAutomatonView`] alone, that the table **is** the product of
//! its units' automata: starting from the tuple of fresh
//! [`NumberBounds::to_dfa`] start states at row 0 it gives every row the
//! tuple its first discovered path implies, and demands of every
//! transition that the target row's tuple is each fresh automaton stepped
//! once, of the token-end column that it returns to row 0, and of every
//! fire mask that it is the OR of exactly the accepting units' latch bits.
//! An automaton is walked by one [`NumberTechnique`], so each must pool
//! units of the technique it carries. The engine-level entry points add
//! the census: the pooled units are the distinct (bounds, technique)
//! pairs of the source expressions — the token units, then the anchored
//! ones, each in first-demand order — each firing exactly the leaves that
//! carry them.
//!
//! ## Diagnostic catalogue
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | N020 | info     | table summary (units → rows, bytes) |
//! | N021 | error    | table shapes inconsistent (row length, mask widths, no units) |
//! | N022 | error    | `next` entry out of range or not row-aligned |
//! | N023 | error    | token-end column does not return to row 0 |
//! | N024 | error    | a transition's target is not the units' automata stepped once |
//! | N025 | error    | a row's fire mask is not the OR of its accepting units' bits |
//! | N026 | warning  | row unreachable from the token start |
//! | N027 | error    | pooled units disagree with the source expressions |
//! | N028 | error    | a unit's technique is not the automaton's |

use crate::{Diagnostic, Layer};
use rfjson_core::expr::{Expr, NumberTechnique};
use rfjson_core::numpool::{NumberAutomatonView, NumberUnitView, COLUMNS, END_COLUMN};
use rfjson_core::{Engine, MultiEngine};
use rfjson_redfa::range::NUMBER_BYTES;
use rfjson_redfa::{Dfa, NumberBounds};

fn error(code: &'static str, location: &str, message: String) -> Diagnostic {
    Diagnostic::error(Layer::NumberAutomaton, code, location, message)
}

/// Verifies the tables of one number automaton against its own unit
/// list: shapes (N021), `next` range (N022), token-end column (N023),
/// product transitions (N024), fire masks (N025), reachability (N026),
/// one technique (N028).
pub fn verify_number_automaton(view: &NumberAutomatonView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let words = view.words;
    let rows = view.next.len() / COLUMNS;
    let shapes_ok = words >= 1
        && rows >= 1
        && view.next.len() == rows * COLUMNS
        && view.fires.len() == rows * words
        && !view.units.is_empty()
        && view.units.iter().all(|u| u.fire.len() == words);
    if !shapes_ok {
        out.push(error(
            "N021",
            "tables",
            format!(
                "{} next entries, {} fire words, {words} words per mask, {} units",
                view.next.len(),
                view.fires.len(),
                view.units.len()
            ),
        ));
        return out;
    }
    for (i, unit) in view.units.iter().enumerate() {
        if unit.technique != view.technique {
            out.push(error(
                "N028",
                &format!("unit {i}"),
                format!(
                    "a {:?} unit `v({})` in a {:?} automaton",
                    unit.technique, unit.bounds, view.technique
                ),
            ));
        }
    }
    for (i, &n) in view.next.iter().enumerate() {
        if !(n as usize).is_multiple_of(COLUMNS) || n as usize >= view.next.len() {
            out.push(error(
                "N022",
                &format!("transition {i}"),
                format!("next row {n} is not a row of {} entries", view.next.len()),
            ));
        }
    }
    if out.iter().any(|d| d.code == "N022") {
        return out; // the walk below indexes through `next`
    }
    out.push(Diagnostic::info(
        Layer::NumberAutomaton,
        "N020",
        "tables",
        format!(
            "{} {:?} units → {rows} rows, {} table bytes",
            view.units.len(),
            view.technique,
            view.table_bytes()
        ),
    ));

    for row in 0..rows {
        let target = view.next[row * COLUMNS + END_COLUMN];
        if target != 0 {
            out.push(error(
                "N023",
                &format!("row {row}"),
                format!(
                    "token end leads to row {}, not 0",
                    target as usize / COLUMNS
                ),
            ));
        }
    }

    // The product walk, breadth-first from the start tuple: a row's tuple
    // is fixed by the first transition that reaches it, and every other
    // transition into it must imply the same one.
    let dfas: Vec<Dfa> = view.units.iter().map(|u| u.bounds.to_dfa()).collect();
    let mut tuples: Vec<Option<Vec<u16>>> = vec![None; rows];
    tuples[0] = Some(dfas.iter().map(Dfa::start).collect());
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(row) = queue.pop_front() {
        let tuple = tuples[row].clone().expect("queued rows have one");
        for (column, &byte) in NUMBER_BYTES.iter().enumerate() {
            let stepped: Vec<u16> = dfas
                .iter()
                .zip(&tuple)
                .map(|(d, &s)| d.step(s, byte))
                .collect();
            let target = view.next[row * COLUMNS + column] as usize / COLUMNS;
            match &tuples[target] {
                None => {
                    tuples[target] = Some(stepped);
                    queue.push_back(target);
                }
                Some(held) if *held != stepped => out.push(error(
                    "N024",
                    &format!("row {row}"),
                    format!(
                        "byte {:?} leads to row {target} of unit states {held:?}, \
                         the units step to {stepped:?}",
                        byte as char
                    ),
                )),
                Some(_) => {}
            }
        }
    }

    for (row, tuple) in tuples.iter().enumerate() {
        let Some(tuple) = tuple else {
            out.push(Diagnostic::warning(
                Layer::NumberAutomaton,
                "N026",
                &format!("row {row}"),
                "unreachable from the token start".to_string(),
            ));
            continue;
        };
        let mut want = vec![0u64; words];
        for ((unit, dfa), &state) in view.units.iter().zip(&dfas).zip(tuple) {
            if dfa.is_accept(state) {
                for (w, f) in want.iter_mut().zip(&unit.fire) {
                    *w |= f;
                }
            }
        }
        let stored = &view.fires[row * words..(row + 1) * words];
        if stored != want {
            out.push(error(
                "N025",
                &format!("row {row}"),
                format!("fires {stored:x?}, its accepting units fire {want:x?}"),
            ));
        } else if row == 0 && want.iter().any(|&w| w != 0) {
            out.push(error(
                "N025",
                "row 0",
                "a unit accepts the empty token".to_string(),
            ));
        }
    }
    out
}

/// Every number-range leaf of `expr` with its latch bit, numbering nodes
/// in post-order from `*next_node` as the compiler does.
fn collect_leaves<'e>(
    expr: &'e Expr,
    next_node: &mut u32,
    out: &mut Vec<(&'e NumberBounds, NumberTechnique, u32)>,
) {
    match expr {
        Expr::Str(_) => {}
        Expr::Num(bounds, technique) => out.push((bounds, *technique, *next_node)),
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                collect_leaves(c, next_node, out);
            }
        }
    }
    *next_node += 1;
}

/// The units a fresh derivation from the member expressions demands: the
/// distinct (bounds, technique) pairs, token units before anchored ones
/// and each in first-demand order, each firing the latch bits of all the
/// leaves that carry it.
fn expected_units(exprs: &[Expr]) -> Vec<NumberUnitView> {
    let mut leaves = Vec::new();
    let mut nodes = 0u32;
    for expr in exprs {
        collect_leaves(expr, &mut nodes, &mut leaves);
    }
    let words = (nodes as usize).div_ceil(64);
    let mut units: Vec<NumberUnitView> = Vec::new();
    for (bounds, technique, node) in leaves {
        let at = units
            .iter()
            .position(|u| u.bounds == *bounds && u.technique == technique);
        let at = at.unwrap_or_else(|| {
            units.push(NumberUnitView {
                bounds: bounds.clone(),
                technique,
                fire: vec![0; words],
            });
            units.len() - 1
        });
        units[at].fire[node as usize / 64] |= 1u64 << (node % 64);
    }
    units.sort_by_key(|u| u.technique == NumberTechnique::Anchored);
    units
}

/// Census (N027) plus table pass for the automata of one compiled
/// artifact: side by side they must pool exactly `expected`.
fn verify_against(views: &[&NumberAutomatonView], expected: &[NumberUnitView]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let pooled: Vec<&NumberUnitView> = views.iter().flat_map(|v| &v.units).collect();
    if !pooled.iter().copied().eq(expected) {
        out.push(error(
            "N027",
            "units",
            format!(
                "{} automata pool {} units, expressions demand {}: bounds or fire masks differ",
                views.len(),
                pooled.len(),
                expected.len()
            ),
        ));
    }
    for (i, view) in views.iter().enumerate() {
        for mut d in verify_number_automaton(view) {
            if views.len() > 1 {
                d.location = format!("automaton {i}: {}", d.location);
            }
            out.push(d);
        }
    }
    out
}

/// Verifies a compiled engine's number automata against
/// [`Engine::exprs`] — an independent recomputation of the engine's
/// dedup and of its leaf numbering.
pub fn verify_engine_numbers(engine: &Engine) -> Vec<Diagnostic> {
    let views: Vec<&NumberAutomatonView> = engine.number_automaton_views().collect();
    verify_against(&views, &expected_units(engine.exprs()))
}

/// Verifies the number automata of every group of a fused batch against
/// the group's own members.
pub fn verify_multi_numbers(fused: &MultiEngine) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (g, group) in fused.groups().iter().enumerate() {
        for mut d in verify_engine_numbers(group.engine()) {
            d.location = format!("group {g}: {}", d.location);
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn sample() -> Engine {
        Engine::compile(&Expr::and([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::int_range(12, 49),
            Expr::or([
                Expr::float_range("0.7", "35.1").unwrap(),
                Expr::int_range(12, 49),
            ]),
            Expr::int_range(40, 99),
        ]))
    }

    fn view(engine: &Engine) -> NumberAutomatonView {
        let mut views = engine.number_automaton_views();
        let view = views.next().expect("the sample has number units").clone();
        assert!(views.next().is_none(), "and one automaton");
        view
    }

    /// The distinct warning-or-worse codes the table pass reports.
    fn codes(view: &NumberAutomatonView) -> Vec<&'static str> {
        let diags = verify_number_automaton(view);
        let flagged = diags.iter().filter(|d| d.severity >= Severity::Warning);
        let codes: std::collections::BTreeSet<_> = flagged.map(|d| d.code).collect();
        codes.into_iter().collect()
    }

    #[test]
    fn compiled_tables_are_clean() {
        let diags = verify_engine_numbers(&sample());
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "N020"));
        assert!(
            verify_engine_numbers(&Engine::compile(&Expr::substring(b"a", 1).unwrap())).is_empty()
        );
    }

    #[test]
    fn duplicate_bounds_are_one_unit_firing_both_leaves() {
        let v = view(&sample());
        assert_eq!(v.units.len(), 3);
        // Nodes: s1 = 0, first 12..49 = 1, float = 2, second 12..49 = 3.
        assert_eq!(v.units[0].fire, vec![0b1010]);
    }

    #[test]
    fn bad_shapes_are_flagged() {
        let mut v = view(&sample());
        v.fires.pop();
        assert_eq!(codes(&v), vec!["N021"]);
        let mut v = view(&sample());
        v.next.push(0);
        assert_eq!(codes(&v), vec!["N021"]);
        let mut v = view(&sample());
        v.units[1].fire.push(0);
        assert_eq!(codes(&v), vec!["N021"]);
    }

    #[test]
    fn bad_next_rows_are_flagged() {
        let mut v = view(&sample());
        v.next[3] = v.next.len() as u16;
        assert_eq!(codes(&v), vec!["N022"]);
        let mut v = view(&sample());
        v.next[3] = 1; // inside the table, but not a row
        assert_eq!(codes(&v), vec!["N022"]);
    }

    #[test]
    fn token_end_must_rearm() {
        let mut v = view(&sample());
        v.next[2 * COLUMNS + END_COLUMN] = COLUMNS as u16;
        assert_eq!(codes(&v), vec!["N023"]);
    }

    #[test]
    fn redirected_transition_is_flagged() {
        // Digit '1' from the start row sent where digit '9' goes.
        let mut v = view(&sample());
        assert_ne!(v.next[1], v.next[9]);
        v.next[1] = v.next[9];
        assert!(codes(&v).contains(&"N024"), "{:?}", codes(&v));
        // A transition into the start row, whose tuple is pinned.
        let mut v = view(&sample());
        v.next[COLUMNS + 4] = 0;
        assert!(codes(&v).contains(&"N024"), "{:?}", codes(&v));
    }

    #[test]
    fn wrong_fire_masks_are_flagged() {
        // A cleared bit: an accepting unit no longer fires a leaf.
        let mut v = view(&sample());
        let row = v.fires.iter().position(|&f| f & 0b10 != 0).unwrap();
        v.fires[row] &= !0b10;
        assert_eq!(codes(&v), vec!["N025"]);
        // A spurious bit, of a unit that does not accept there.
        let mut v = view(&sample());
        v.fires[0] |= 0b100;
        assert_eq!(codes(&v), vec!["N025"]);
        // A unit's own mask pointing at another leaf.
        let mut v = view(&sample());
        v.units[2].fire[0] <<= 1;
        assert_eq!(codes(&v), vec!["N025"]);
    }

    #[test]
    fn swapped_bounds_are_flagged() {
        // The table is the product of the units as built; under other
        // bounds its transitions or fires are wrong.
        let mut v = view(&sample());
        v.units[2].bounds = NumberBounds::int_range(41, 99);
        let found = codes(&v);
        assert!(
            found.contains(&"N024") || found.contains(&"N025"),
            "{found:?}"
        );
    }

    #[test]
    fn unreachable_row_is_flagged() {
        let mut v = view(&sample());
        let rows = v.next.len() / COLUMNS;
        v.next.extend(std::iter::repeat_n(0, COLUMNS));
        v.fires.push(0);
        let diags = verify_number_automaton(&v);
        let unreachable: Vec<_> = diags.iter().filter(|d| d.code == "N026").collect();
        assert_eq!(unreachable.len(), 1, "{diags:?}");
        assert_eq!(unreachable[0].location, format!("row {rows}"));
    }

    #[test]
    fn an_automaton_pools_one_technique() {
        let mut v = view(&sample());
        assert_eq!(v.technique, NumberTechnique::Anchored);
        assert!(v.units.iter().all(|u| u.technique == v.technique));
        // A token unit smuggled into the anchored walk.
        v.units[1].technique = NumberTechnique::Token;
        assert_eq!(codes(&v), vec!["N028"]);
        // The automaton relabelled instead: every unit disagrees.
        let mut v = view(&sample());
        v.technique = NumberTechnique::Token;
        let diags = verify_number_automaton(&v);
        let n028 = diags.iter().filter(|d| d.code == "N028").count();
        assert_eq!(n028, v.units.len(), "{diags:?}");
    }

    #[test]
    fn both_techniques_pool_apart_and_verify_clean() {
        let engine = Engine::compile(&Expr::and([
            Expr::int_range(12, 49),
            Expr::int_range(12, 49).with_number_technique(NumberTechnique::Token),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]));
        let techniques: Vec<(NumberTechnique, usize)> = engine
            .number_automaton_views()
            .map(|v| (v.technique, v.units.len()))
            .collect();
        assert_eq!(
            techniques,
            [(NumberTechnique::Token, 1), (NumberTechnique::Anchored, 2)]
        );
        let diags = verify_engine_numbers(&engine);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
        // The census holds the technique too: a relabelled unit is N027.
        let views: Vec<&NumberAutomatonView> = engine.number_automaton_views().collect();
        let mut expected = expected_units(engine.exprs());
        expected[0].technique = NumberTechnique::Anchored;
        let diags = verify_against(&views, &expected);
        assert!(diags.iter().any(|d| d.code == "N027"), "{diags:?}");
    }

    #[test]
    fn census_against_the_expression_is_checked() {
        let engine = sample();
        let v = view(&engine);
        let mut expected = expected_units(engine.exprs());
        assert_eq!(expected, v.units);
        // Another demand order, a lost leaf, a lost unit.
        expected.swap(0, 1);
        let n027 = |expected: &[NumberUnitView]| {
            let diags = verify_against(&[&v], expected);
            diags.iter().any(|d| d.code == "N027")
        };
        assert!(n027(&expected));
        expected.swap(0, 1);
        assert!(!n027(&expected));
        expected[0].fire[0] &= !0b10;
        assert!(n027(&expected));
        assert!(n027(&expected[1..]));
        assert!(n027(&[]));
    }

    #[test]
    fn fused_groups_pool_their_members_bounds() {
        let temp = |lo: &str, hi: &str| {
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range(lo, hi).unwrap(),
            ])
        };
        let fused = MultiEngine::compile_batch(&[
            temp("0.7", "35.1"),
            temp("0.7", "35.1"),
            temp("50.0", "99.0"),
            Expr::substring(b"tolls_amount", 2).unwrap(),
        ]);
        let units = |g: usize| {
            let views = fused.groups()[g].engine().number_automaton_views();
            views.map(|v| v.units.len()).sum::<usize>()
        };
        assert_eq!(fused.groups().len(), 2);
        assert_eq!((units(0), units(1)), (2, 0));
        let diags = verify_multi_numbers(&fused);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.location.starts_with("group 0")));
    }
}
