//! Fused multi-program verification pass (codes `M0xx`).
//!
//! A [`MultiEngine`] partitions a query batch into groups and compiles
//! each group into one engine: the members' flat programs side by side
//! over a **deduplicated set** of matcher units. That adds two failure
//! modes a single-query lint cannot see: a member's program could be
//! miswired against the shared units, and the deduplication census could
//! be wrong (two *different* automata merged, or identical ones
//! duplicated). This pass re-proves both from the outside:
//!
//! * every query's program snapshot (its member of the group, rebased
//!   to a program of its own) is checked with the same structural
//!   invariants as a single engine (post-order, latch-clear coverage,
//!   …), and its group-resident dense string-DFA tables are compared
//!   against automata freshly derived from that query's source
//!   expression — a merge of two different automata cannot survive this,
//!   because at least one query's stored table would disagree with its
//!   own fresh derivation;
//! * the census of units built is compared against an **independent**
//!   dedup census computed per group straight from the source
//!   expressions (bit-exact unit keys re-derived from the primitives,
//!   never from the compiled plan), and the per-query censuses must sum
//!   to the batch total.
//!
//! ## Diagnostic catalogue
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | M000 | info     | unit-sharing summary (total/pool/shared) |
//! | M001 | error    | a lane's flat program violates a structural invariant |
//! | M002 | error    | a lane's census or pool-stored table disagrees with its expression |
//! | M003 | error    | pool dedup census disagrees with independent recomputation |
//!
//! Each group's block-hit automaton (its B ≥ 2 substring units) goes
//! through the `B0xx` pass of [`crate::blockhit`] in the same run, and
//! its number automata (the members' number ranges, pooled) through the
//! `N02x` pass of [`crate::numpool`].

use crate::program::{check_unit, collect_expected, ExpectedUnits};
use crate::{Diagnostic, Layer, Report};
use rfjson_core::backend::CompileError;
use rfjson_core::expr::{Expr, NumberTechnique, StringTechnique};
use rfjson_core::multi::{MultiEngine, UnitCounts};
use rfjson_core::primitive::{DfaStringMatcher, SubstringMatcher};
use std::collections::HashSet;

/// An independently re-derived dedup key: bit-exact builder output
/// recomputed from the source primitive, bypassing the compiled plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FreshKey {
    StrDfa {
        table: Vec<u16>,
        start: u16,
    },
    NumDfa {
        table: Vec<u16>,
        start: u16,
        technique: NumberTechnique,
    },
    Sub1 {
        bitmap: [u64; 4],
        target: u32,
    },
    SubN {
        blocks: Vec<Vec<u8>>,
        target: u32,
    },
}

/// Collects the dedup keys of every primitive unit of `expr`, exactly
/// as the engine builder would derive them (same bitmap/packing rules),
/// in visit order.
fn collect_keys(expr: &Expr, out: &mut Vec<FreshKey>) {
    match expr {
        Expr::Str(spec) => match spec.technique {
            StringTechnique::Dfa | StringTechnique::Window => {
                let d = DfaStringMatcher::new(&spec.needle).dfa().clone();
                out.push(FreshKey::StrDfa {
                    table: d.dense_table(),
                    start: d.dense_start(),
                });
            }
            StringTechnique::Substring(b) => {
                let m = SubstringMatcher::new(&spec.needle, b)
                    .expect("expression was validated at compile time");
                if b == 1 {
                    let mut bitmap = [0u64; 4];
                    for blk in m.blocks() {
                        let x = blk[0];
                        bitmap[(x >> 6) as usize] |= 1u64 << (x & 63);
                    }
                    out.push(FreshKey::Sub1 {
                        bitmap,
                        target: m.target(),
                    });
                } else {
                    out.push(FreshKey::SubN {
                        blocks: m.blocks().to_vec(),
                        target: m.target(),
                    });
                }
            }
        },
        Expr::Num(bounds, technique) => {
            let d = bounds.to_dfa();
            out.push(FreshKey::NumDfa {
                table: d.dense_table(),
                start: d.dense_start(),
                technique: *technique,
            });
        }
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                collect_keys(c, out);
            }
        }
    }
}

/// The per-kind distinct-key census of an independent dedup pass.
fn dedup_census(keys: &[FreshKey]) -> UnitCounts {
    let distinct: HashSet<&FreshKey> = keys.iter().collect();
    let mut counts = UnitCounts::default();
    for key in distinct {
        match key {
            FreshKey::StrDfa { .. } => counts.string_dfas += 1,
            FreshKey::NumDfa { .. } => counts.number_dfas += 1,
            FreshKey::Sub1 { .. } => counts.sub1 += 1,
            FreshKey::SubN { blocks, .. } if blocks[0].len() <= 8 => counts.subp += 1,
            FreshKey::SubN { .. } => counts.wide += 1,
        }
    }
    counts
}

/// Verifies a compiled fused batch: per-lane structural invariants
/// (M001), per-lane census + group-table agreement with each lane's
/// source expression (M002), the groups' dedup census against an
/// independent recomputation from the source expressions (M003), each
/// group's block-hit automaton ([`crate::blockhit`], B0xx) and its number
/// automata ([`crate::numpool`], N02x).
pub fn verify_multi_engine(fused: &MultiEngine) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let stats = fused.share_stats();
    out.push(Diagnostic::info(
        Layer::Program,
        "M000",
        "batch",
        format!(
            "{} queries demand {} units; pool instantiates {} ({} shared)",
            fused.num_queries(),
            stats.total_units(),
            stats.pool.total(),
            stats.shared_units()
        ),
    ));

    for (q, (view, expr)) in fused.lane_views().iter().zip(fused.exprs()).enumerate() {
        for fault in view.check() {
            out.push(Diagnostic::error(
                Layer::Program,
                "M001",
                &format!("lane {q}"),
                format!("`{expr}`: {fault}"),
            ));
        }

        let mut exp = ExpectedUnits::default();
        collect_expected(expr, &mut exp);
        let censuses = [
            ("string-dfa", view.string_dfas.len(), exp.string_dfas.len()),
            ("number-dfa", view.number_dfas.len(), exp.number_dfas),
            ("substring-b1", view.sub1_nodes.len(), exp.sub1),
            ("substring-packed", view.subp_nodes.len(), exp.subp),
            ("substring-wide", view.wide_nodes.len(), exp.wide),
        ];
        for (kind, got, want) in censuses {
            if got != want {
                out.push(Diagnostic::error(
                    Layer::Program,
                    "M002",
                    &format!("lane {q}"),
                    format!("{kind} unit count {got}, expression has {want}"),
                ));
            }
        }
        // The lane's string DFA units live in its group's tables; each
        // one must still equal the automaton freshly derived from *this*
        // lane's expression, which rules out any dedup merge of two
        // different automata.
        let mut unit_diags = Vec::new();
        for (i, (unit, fresh)) in view.string_dfas.iter().zip(&exp.string_dfas).enumerate() {
            check_unit("string-dfa", i, unit, fresh, &view.tables, &mut unit_diags);
        }
        for mut d in unit_diags {
            d.code = "M002";
            d.location = format!("lane {q}: {}", d.location);
            out.push(d);
        }
    }

    // Independent dedup census: recompute every unit key straight from
    // the source expressions, group by group, and compare distinct-key
    // counts with the units the compiler actually built.
    let mut per_query_total = 0usize;
    for (q, expr) in fused.exprs().iter().enumerate() {
        let mut keys = Vec::new();
        collect_keys(expr, &mut keys);
        let demanded = keys.len();
        let counted = stats.per_query.get(q).map_or(0, UnitCounts::total);
        per_query_total += counted;
        if demanded != counted {
            out.push(Diagnostic::error(
                Layer::Program,
                "M003",
                &format!("lane {q}"),
                format!("census claims {counted} units, expression has {demanded}"),
            ));
        }
    }
    if per_query_total != stats.total_units() {
        out.push(Diagnostic::error(
            Layer::Program,
            "M003",
            "batch",
            format!(
                "per-query censuses sum to {per_query_total}, batch total is {}",
                stats.total_units()
            ),
        ));
    }
    let mut independent = UnitCounts::default();
    for group in fused.groups() {
        let mut keys = Vec::new();
        for &q in group.members() {
            collect_keys(&fused.exprs()[q], &mut keys);
        }
        independent += dedup_census(&keys);
    }
    if independent != stats.pool {
        out.push(Diagnostic::error(
            Layer::Program,
            "M003",
            "batch",
            format!(
                "pool census {:?} disagrees with independent dedup {:?}",
                stats.pool, independent
            ),
        ));
    }
    out.extend(crate::blockhit::verify_multi_blocks(fused));
    out.extend(crate::numpool::verify_multi_numbers(fused));
    out
}

/// Lints a query batch end to end: compiles it into a [`MultiEngine`]
/// and runs the M0xx pass.
///
/// # Errors
///
/// Propagates the [`CompileError`] of an empty or ill-formed batch.
pub fn verify_batch(exprs: &[Expr], name: &str) -> Result<Report, CompileError> {
    let fused = MultiEngine::try_compile_batch(exprs)?;
    let mut report = Report::new(name);
    report.diagnostics = verify_multi_engine(&fused);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn batch() -> Vec<Expr> {
        vec![
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("50.0", "99.0").unwrap(),
            ]),
            Expr::and([
                Expr::dfa_string(b"dust").unwrap(),
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::int_range(12, 49),
            ]),
        ]
    }

    #[test]
    fn clean_batch_verifies_clean() {
        let report = verify_batch(&batch(), "zoo").unwrap();
        assert!(!report.has_errors(), "{report}");
        assert!(
            report.diagnostics.iter().any(|d| d.code == "M000"),
            "sharing summary present"
        );
    }

    #[test]
    fn independent_census_counts_sharing() {
        let exprs = batch();
        let mut keys = Vec::new();
        for e in &exprs {
            collect_keys(e, &mut keys);
        }
        // Lanes 0 and 1 share the temperature sub1 key.
        assert_eq!(keys.len(), 7);
        assert_eq!(dedup_census(&keys).total(), 6);
    }

    #[test]
    fn empty_batch_is_a_compile_error() {
        assert!(verify_batch(&[], "empty").is_err());
    }

    #[test]
    fn independent_census_is_sensitive() {
        // The M003 comparison must be able to tell a correct pool from a
        // miscounted one: the census over a truncated batch (one lane
        // dropped) differs from the compiled pool, and a duplicated
        // needle with a *different* range keeps the automata distinct.
        let fused = MultiEngine::compile_batch(&batch());
        assert!(verify_multi_engine(&fused)
            .iter()
            .all(|d| d.severity < Severity::Warning));
        let mut keys = Vec::new();
        collect_keys(&batch()[2], &mut keys);
        assert_ne!(dedup_census(&keys), fused.share_stats().pool);
        // Two different float ranges must stay two distinct NumDfa keys.
        let mut nums = Vec::new();
        collect_keys(&batch()[0], &mut nums);
        collect_keys(&batch()[1], &mut nums);
        assert_eq!(dedup_census(&nums).number_dfas, 2);
    }
}
