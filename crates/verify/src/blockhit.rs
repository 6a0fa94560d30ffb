//! Block-hit automaton verification pass (codes `B0xx`).
//!
//! An engine steps all its B ≥ 2 substring units from one pooled Mealy
//! automaton ([`rfjson_core::blockhit`]): a transition yields the next
//! state and a hit mask with `0xFF` in lane *i* iff the last `B_i` stream
//! bytes are a block of unit *i*. The hot loops index `next` and `hits`
//! and trust the masks without checking. This pass re-proves, from the
//! [`BlockAutomatonView`] alone, that the tables are in range, **complete**
//! (every block of every unit, fed from every state, ends on a transition
//! whose mask has that unit's lane set) and **sound** (no transition sets
//! a lane whose unit has no block ending there — checked on a witness
//! stream per state, byte by byte, so a byte filed under the wrong class
//! is caught too), that the run targets are the units' `N − B + 1`, and
//! that an automaton flagged `definite` — the word kernel then reads the
//! row before a byte without walking the rows — is one whose blocks are
//! all at most two bytes long and whose rows all step like row 0.
//! The engine-level entry points run the table pass once per automaton
//! of a split pool and add the census against the source expressions.
//!
//! ## Diagnostic catalogue
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | B000 | info     | table summary (units, states, classes, bytes) |
//! | B001 | error    | table shapes inconsistent (rows, banks, lane counts, half-set lanes) |
//! | B002 | error    | `next` entry out of range or not row-aligned |
//! | B003 | error    | a unit's block does not hit its lane from some state |
//! | B004 | error    | a transition sets a lane whose unit has no block ending there |
//! | B005 | error    | run target (scalar or packed) is not the unit's `N − B + 1` |
//! | B006 | warning  | state unreachable from the record start |
//! | B007 | error    | `definite` not set exactly when every block is at most 2 bytes, or a definite row's `next` differs from row 0's |
//! | B010 | error    | lane layout disagrees with the source expressions: a unit not a lane of exactly one automaton or a reference lane, or a reference lane that could be packed |

use crate::{Diagnostic, Layer};
use rfjson_core::blockhit::{
    pack_targets, BlockAutomaton, BlockAutomatonView, BlockUnitView, LANES, MAX_PACKED_TARGET,
};
use rfjson_core::expr::{Expr, StringTechnique};
use rfjson_core::primitive::SubstringMatcher;
use rfjson_core::{Engine, MultiEngine};

fn error(code: &'static str, location: &str, message: String) -> Diagnostic {
    Diagnostic::error(Layer::BlockAutomaton, code, location, message)
}

/// `0x01` in every lane: a hit word is this times `0xFF` where set.
const LANE_LO: u64 = 0x0101_0101_0101_0101;

/// Whether `lane`'s byte of the banked mask `hits` is set.
fn lane_set(hits: &[u64], lane: usize) -> bool {
    hits[lane / LANES] >> (8 * (lane % LANES)) & 0xff != 0
}

/// Verifies the tables of one block-hit automaton against its own unit
/// list: shapes (B001), `next` range (B002), completeness (B003),
/// soundness (B004), targets (B005), reachability (B006), definite rows
/// (B007).
pub fn verify_block_automaton(view: &BlockAutomatonView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (ncls, banks) = (view.num_classes, view.banks);
    let shapes_ok = ncls >= 1
        && view.classes.iter().all(|&c| (c as usize) < ncls)
        && !view.next.is_empty()
        && view.next.len().is_multiple_of(ncls)
        && view.hits.len() == view.next.len() * banks
        && view.hits.iter().all(|&h| (h & LANE_LO) * 0xff == h)
        && banks == view.units.len().div_ceil(LANES)
        && view.targets.len() == view.units.len()
        && view.targets_packed.len() == banks
        && view
            .units
            .iter()
            .all(|u| (1..=u.needle.len()).contains(&u.block_len));
    if !shapes_ok {
        out.push(error(
            "B001",
            "tables",
            format!(
                "{} next entries, {} hit words, {ncls} classes, {banks} banks, {} units",
                view.next.len(),
                view.hits.len(),
                view.units.len()
            ),
        ));
        return out;
    }
    for (i, &n) in view.next.iter().enumerate() {
        if !(n as usize).is_multiple_of(ncls) || n as usize + ncls > view.next.len() {
            out.push(error(
                "B002",
                &format!("transition {i}"),
                format!("next row {n} is not a row of {} entries", view.next.len()),
            ));
        }
    }
    if !out.is_empty() {
        return out; // the walks below index through `next`
    }
    let states = view.next.len() / ncls;

    // Definite rows: the word kernel reads the row before a byte as row
    // 0's transition on the byte before it, whatever row it was in.
    let short_blocks = view.units.iter().all(|u| u.block_len <= 2);
    if view.definite != short_blocks {
        out.push(error(
            "B007",
            "tables",
            format!(
                "definite is {}, but {} pooled unit has B > 2",
                view.definite,
                if short_blocks { "no" } else { "some" }
            ),
        ));
    }
    if view.definite {
        for (i, &n) in view.next.iter().enumerate().skip(ncls) {
            let first = view.next[i % ncls];
            if n != first {
                out.push(error(
                    "B007",
                    &format!("transition {i}"),
                    format!("next row {n} on a definite automaton, row 0 goes to {first}"),
                ));
            }
        }
    }
    let idx = |row: usize, byte: u8| row + view.classes[byte as usize] as usize;
    let hits = |i: usize| &view.hits[i * banks..(i + 1) * banks];
    out.push(Diagnostic::info(
        Layer::BlockAutomaton,
        "B000",
        "tables",
        format!(
            "{} units, {states} states, {ncls} classes, {} table bytes",
            view.units.len(),
            view.table_bytes()
        ),
    ));

    // Targets: scalar and packed forms against N − B + 1.
    let want: Vec<u32> = view
        .units
        .iter()
        .map(|u| (u.needle.len() - u.block_len + 1) as u32)
        .collect();
    if view.targets != want || view.targets_packed != pack_targets(&want) {
        out.push(error(
            "B005",
            "targets",
            format!(
                "stored {:?} / packed {:x?}, units need {want:?}",
                view.targets, view.targets_packed
            ),
        ));
    }

    // Completeness: every block, from every state, hits its lane.
    for (lane, unit) in view.units.iter().enumerate() {
        for block in unit.needle.windows(unit.block_len) {
            for state in 0..states {
                let mut row = state * ncls;
                let mut last = 0;
                for &byte in block {
                    last = idx(row, byte);
                    row = view.next[last] as usize;
                }
                if !lane_set(hits(last), lane) {
                    out.push(error(
                        "B003",
                        &format!("unit {lane}"),
                        format!(
                            "block {:?} fed from state {state} does not hit lane {lane}",
                            String::from_utf8_lossy(block)
                        ),
                    ));
                }
            }
        }
    }

    // Soundness on one witness stream per state (breadth-first from the
    // record start): a set lane must have a block of its unit ending at
    // that byte of the witness.
    let mut witness: Vec<Option<Vec<u8>>> = vec![None; states];
    witness[0] = Some(Vec::new());
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(state) = queue.pop_front() {
        let stream = witness[state].clone().expect("queued states have one");
        for byte in 0..=255u8 {
            let i = idx(state * ncls, byte);
            let mut seen = stream.clone();
            seen.push(byte);
            for lane in 0..banks * LANES {
                let has_block = view.units.get(lane).is_some_and(|u| {
                    seen.len() >= u.block_len
                        && u.needle
                            .windows(u.block_len)
                            .any(|b| b == &seen[seen.len() - u.block_len..])
                });
                if lane_set(hits(i), lane) && !has_block {
                    out.push(error(
                        "B004",
                        &format!("transition {i}"),
                        format!(
                            "lane {lane} set after {:?}, where no block of that unit ends",
                            String::from_utf8_lossy(&seen)
                        ),
                    ));
                }
            }
            let next = view.next[i] as usize / ncls;
            if witness[next].is_none() {
                witness[next] = Some(seen);
                queue.push_back(next);
            }
        }
    }
    for (state, w) in witness.iter().enumerate() {
        if w.is_none() {
            out.push(Diagnostic::warning(
                Layer::BlockAutomaton,
                "B006",
                &format!("state {state}"),
                "unreachable from the record start".to_string(),
            ));
        }
    }
    out
}

/// The substring units of `expr` that are not B = 1 lanes — B ≥ 2, and
/// B = 1 past the packed run targets — in the compiler's visit order.
fn collect_units(expr: &Expr, out: &mut Vec<BlockUnitView>) {
    match expr {
        Expr::Str(spec) => {
            if let StringTechnique::Substring(b) = spec.technique {
                if b >= 2 || spec.needle.len() as u32 > MAX_PACKED_TARGET {
                    out.push(BlockUnitView {
                        needle: spec.needle.clone(),
                        block_len: b,
                    });
                }
            }
        }
        Expr::Num(..) => {}
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                collect_units(c, out);
            }
        }
    }
}

/// The bit-exact identity of a unit's executor: its block length, its
/// distinct blocks in needle order and its run target — re-derived from
/// the primitive, the rule the fused pool deduplicates by.
fn executor(unit: &BlockUnitView) -> (usize, Vec<Vec<u8>>, u32) {
    let m = SubstringMatcher::new(&unit.needle, unit.block_len)
        .expect("expression was validated at compile time");
    (unit.block_len, m.blocks().to_vec(), m.target())
}

/// Whether a unit cannot be a packed lane: its run target is past the
/// packed counters, or its table alone is past the cap.
fn unpackable(unit: &BlockUnitView) -> bool {
    let m = SubstringMatcher::new(&unit.needle, unit.block_len)
        .expect("expression was validated at compile time");
    m.target() > MAX_PACKED_TARGET || BlockAutomaton::build([&m]).is_none()
}

/// Census (B010) plus the table pass of every automaton: `expected` are
/// the units a fresh derivation from the source demands; each must be a
/// lane of exactly one of `automata` or one of `references`, and a
/// reference lane exactly a unit that cannot be packed.
fn verify_lanes(
    automata: &[&BlockAutomatonView],
    references: &[BlockUnitView],
    expected: &[BlockUnitView],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let lanes = automata.iter().flat_map(|a| &a.units);
    let mut laid_out: Vec<_> = lanes.chain(references).map(executor).collect();
    let mut demanded: Vec<_> = expected.iter().map(executor).collect();
    laid_out.sort();
    demanded.sort();
    if laid_out != demanded {
        out.push(error(
            "B010",
            "lanes",
            format!(
                "{} automaton lanes and {} reference lanes, expressions demand {} units",
                laid_out.len() - references.len(),
                references.len(),
                expected.len()
            ),
        ));
    }
    for (k, unit) in references.iter().enumerate() {
        if !unpackable(unit) {
            out.push(error(
                "B010",
                &format!("reference lane {k}"),
                format!(
                    "{:?} at B = {} fits a packed lane",
                    String::from_utf8_lossy(&unit.needle),
                    unit.block_len
                ),
            ));
        }
    }
    for (k, automaton) in automata.iter().enumerate() {
        for mut d in verify_block_automaton(automaton) {
            d.location = format!("automaton {k}: {}", d.location);
            out.push(d);
        }
    }
    out
}

/// Verifies a compiled engine's lane layout against [`Engine::exprs`]:
/// the lanes of its automata and its reference lanes must be the
/// distinct executors its expressions demand, each exactly once — an
/// independent recomputation of the engine's dedup — and every
/// automaton's tables must pass on their own.
pub fn verify_engine_blocks(engine: &Engine) -> Vec<Diagnostic> {
    let mut demanded = Vec::new();
    for expr in engine.exprs() {
        collect_units(expr, &mut demanded);
    }
    let mut seen = Vec::new();
    demanded.retain(|u| {
        let key = executor(u);
        let fresh = !seen.contains(&key);
        if fresh {
            seen.push(key);
        }
        fresh
    });
    let automata: Vec<&BlockAutomatonView> = engine.block_automaton_views().collect();
    let references: Vec<BlockUnitView> = engine
        .reference_lanes()
        .map(|m| BlockUnitView {
            needle: m.needle().to_vec(),
            block_len: m.block_length(),
        })
        .collect();
    verify_lanes(&automata, &references, &demanded)
}

/// Verifies the lane layout of every group of a fused batch against the
/// group's own members.
pub fn verify_multi_blocks(fused: &MultiEngine) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (g, group) in fused.groups().iter().enumerate() {
        for mut d in verify_engine_blocks(group.engine()) {
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
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::substring(b"total_amount", 3).unwrap(),
            Expr::substring(b"favourites_count", 9).unwrap(),
            Expr::substring(b"aaaa", 2).unwrap(),
            Expr::int_range(1, 5),
        ]))
    }

    /// The distinct warning-or-worse codes the table pass reports.
    fn codes(view: &BlockAutomatonView) -> Vec<&'static str> {
        let diags = verify_block_automaton(view);
        let flagged = diags.iter().filter(|d| d.severity >= Severity::Warning);
        let codes: std::collections::BTreeSet<_> = flagged.map(|d| d.code).collect();
        codes.into_iter().collect()
    }

    #[test]
    fn compiled_tables_are_clean() {
        let diags = verify_engine_blocks(&sample());
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "B000"));
    }

    #[test]
    fn cleared_hit_lane_is_flagged() {
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        let i = view.hits.iter().position(|&h| h & 0xff != 0).unwrap();
        view.hits[i] &= !0xff;
        assert!(codes(&view).contains(&"B003"), "{:?}", codes(&view));
    }

    #[test]
    fn spurious_hit_lane_is_flagged() {
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.hits[0] |= 0xff00; // class 0 from the start state: nothing ends here
        assert_eq!(codes(&view), vec!["B004"]);
        // A lane no unit owns must stay clear too.
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.hits[0] |= 0xff << 56;
        assert_eq!(codes(&view), vec!["B004"]);
    }

    #[test]
    fn merged_byte_class_is_flagged() {
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.classes[b'z' as usize] = view.classes[b'a' as usize];
        assert!(codes(&view).contains(&"B004"), "{:?}", codes(&view));
    }

    #[test]
    fn bad_next_rows_are_flagged() {
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.next[3] = view.next.len() as u16;
        assert_eq!(codes(&view), vec!["B002"]);
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.next[3] = 1; // inside the table, but not a row
        assert_eq!(codes(&view), vec!["B002"]);
        // A redirected (valid) row loses a block's prefix.
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        let t = view.classes[b't' as usize] as usize;
        view.next[t] = 0; // start --t--> start
        assert!(codes(&view).contains(&"B003"), "{:?}", codes(&view));
    }

    #[test]
    fn wrong_targets_and_shapes_are_flagged() {
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.targets_packed[0] ^= 1;
        assert_eq!(codes(&view), vec!["B005"]);
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.targets[1] += 1;
        assert_eq!(codes(&view), vec!["B005"]);
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.hits.pop();
        assert_eq!(codes(&view), vec!["B001"]);
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        view.hits[0] |= 0x01; // neither a hit nor a miss for the lane arithmetic
        assert_eq!(codes(&view), vec!["B001"]);
    }

    #[test]
    fn definite_flag_and_rows_are_flagged() {
        // A pool with B = 3 and B = 9 blocks must walk its rows.
        let mut view = sample().block_automaton_views().next().unwrap().clone();
        assert!(!view.definite);
        view.definite = true;
        assert_eq!(codes(&view), vec!["B007"]);

        let b2 = Engine::compile(&Expr::and([
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::substring(b"aaaa", 2).unwrap(),
            Expr::int_range(1, 5),
        ]));
        let clean = b2.block_automaton_views().next().unwrap();
        assert!(clean.definite);
        assert!(codes(clean).is_empty(), "{:?}", codes(clean));
        let mut view = clean.clone();
        view.definite = false;
        assert_eq!(codes(&view), vec!["B007"]);
        // From row 1, `t` goes back to the start; row 0 remembers it.
        let mut view = clean.clone();
        let t = view.classes[b't' as usize] as usize;
        assert_ne!(view.next[t], 0);
        view.next[view.num_classes + t] = 0;
        assert!(codes(&view).contains(&"B007"), "{:?}", codes(&view));
    }

    #[test]
    fn census_against_the_expression_is_checked() {
        let engine = sample();
        let view = engine.block_automaton_views().next().unwrap();
        let mut expected = Vec::new();
        collect_units(engine.expr(), &mut expected);
        assert_eq!(expected.len(), 4);
        assert!(verify_lanes(&[view], &[], &expected)
            .iter()
            .all(|d| d.severity < Severity::Warning));
        // A unit the pool lacks, or holds twice.
        let diags = verify_lanes(&[view], &[], &expected[1..]);
        assert!(diags.iter().any(|d| d.code == "B010"), "{diags:?}");
        let diags = verify_lanes(&[view, view], &[], &expected);
        assert!(diags.iter().any(|d| d.code == "B010"), "{diags:?}");
        let diags = verify_lanes(&[], &[], &expected);
        assert!(diags.iter().any(|d| d.code == "B010"), "{diags:?}");
    }

    #[test]
    fn reference_lanes_are_exactly_the_unpackable_units() {
        // A run target past the packed counters, at B = 1 and B = 2, and a
        // table past the cap: three reference lanes beside a split pool.
        let big: Vec<u8> = (0..600u32).map(|i| b'a' + (i * i % 23) as u8).collect();
        let engine = Engine::compile(&Expr::and([
            Expr::substring(&[b'k'; 130], 1).unwrap(),
            Expr::substring(&[b'k'; 130], 2).unwrap(),
            Expr::substring(&big, 300).unwrap(),
            Expr::substring(b"tolls_amount", 2).unwrap(),
        ]));
        assert_eq!(engine.reference_lanes().count(), 3);
        let diags = verify_engine_blocks(&engine);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
        // Mutation: a packable unit laid out as a reference lane.
        let view = engine.block_automaton_views().next().unwrap();
        let lane = view.units[0].clone();
        let mut expected = Vec::new();
        collect_units(engine.expr(), &mut expected);
        let references: Vec<BlockUnitView> = engine
            .reference_lanes()
            .map(|m| BlockUnitView {
                needle: m.needle().to_vec(),
                block_len: m.block_length(),
            })
            .chain([lane])
            .collect();
        let diags = verify_lanes(&[], &references, &expected);
        let moved = diags.iter().filter(|d| d.code == "B010");
        assert!(
            moved.clone().any(|d| d.location == "reference lane 3"),
            "{diags:?}"
        );
    }

    #[test]
    fn fused_pool_dedups_by_executor() {
        let q = |needle: &[u8], b| Expr::substring(needle, b).unwrap();
        let fused = MultiEngine::compile_batch(&[
            q(b"tolls_amount", 2),
            Expr::and([q(b"tolls_amount", 2), q(b"tolls_amount", 3)]),
            q(b"favourites_count", 9),
        ]);
        // The two queries on "tolls_amount" share a group and its s2 unit;
        // the third stands alone.
        let lanes = |g: usize| {
            let mut views = fused.groups()[g].engine().block_automaton_views();
            views.next().unwrap().units.len()
        };
        assert_eq!(fused.groups().len(), 2);
        assert_eq!((lanes(0), lanes(1)), (2, 1));
        let diags = verify_multi_blocks(&fused);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
    }
}
