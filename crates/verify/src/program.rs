//! Flat-program verification pass (codes `P0xx`).
//!
//! The batch [`Engine`] executes a post-order node program: primitive
//! units latch leaf bits, combinator ops fold them bottom-up, and
//! structural contexts clear exactly their strict-descendant latches at
//! instance boundaries. [`ProgramView::check`] (in `rfjson-core`, so the
//! compiler itself can `debug_assert!` it) re-proves the structural
//! invariants; this module maps those faults into the shared diagnostic
//! model and adds the cross-layer checks only an outside observer can
//! make — that the dense string-DFA tables *stored inside the engine*
//! are the same tables a fresh derivation from the source expression
//! produces. (Number units have no table of their own; the `N02x` pass of
//! [`crate::numpool`] proves their pooled automaton.)
//!
//! ## Diagnostic catalogue
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | P001 | error    | latch bitset width inconsistent with node count |
//! | P002 | error    | root is not the final node |
//! | P003 | error    | mask offset out of range |
//! | P004 | error    | mask bit exceeds node count |
//! | P005 | error    | ops not in post-order |
//! | P006 | error    | node defined twice |
//! | P007 | error    | operand used before defined |
//! | P008 | warning  | node feeds no parent (dead logic) |
//! | P009 | error    | node feeds two parents (program must be a tree) |
//! | P010 | error    | context clear mask misses/overshoots its descendants |
//! | P011 | error    | context flag-level slots out of range or unordered |
//! | P020 | error    | unit censuses disagree with the source expression |
//! | P021 | error    | stored dense table offset out of range |
//! | P022 | error    | stored dense table or start disagrees with fresh derivation |

use crate::{Diagnostic, Layer};
use rfjson_core::engine::{DfaUnitView, ProgramFault, ProgramView};
use rfjson_core::expr::{Expr, StringTechnique};
use rfjson_core::primitive::DfaStringMatcher;
use rfjson_core::Engine;
use rfjson_redfa::Dfa;

/// Maps one [`ProgramFault`] to its diagnostic.
fn fault_diag(fault: &ProgramFault) -> Diagnostic {
    let (code, loc) = match fault {
        ProgramFault::WordWidth { .. } => ("P001", "program".to_string()),
        ProgramFault::BadRoot { root } => ("P002", format!("node {root}")),
        ProgramFault::MaskOutOfRange { node, .. } => ("P003", format!("node {node}")),
        ProgramFault::MaskBitOutOfRange { node, .. } => ("P004", format!("node {node}")),
        ProgramFault::NotPostOrder { node } => ("P005", format!("node {node}")),
        ProgramFault::DoubleDefinition { node } => ("P006", format!("node {node}")),
        ProgramFault::UseBeforeDef { node, .. } => ("P007", format!("node {node}")),
        ProgramFault::DanglingNode { node } => ("P008", format!("node {node}")),
        ProgramFault::SharedOperand { node } => ("P009", format!("node {node}")),
        ProgramFault::LatchClearMismatch { node, .. } => ("P010", format!("node {node}")),
        ProgramFault::BadCtxSlots { node } => ("P011", format!("node {node}")),
    };
    if code == "P008" {
        Diagnostic::warning(Layer::Program, code, &loc, fault.to_string())
    } else {
        Diagnostic::error(Layer::Program, code, &loc, fault.to_string())
    }
}

/// Verifies a program snapshot's structural invariants (the
/// [`ProgramView::check`] faults, as diagnostics).
pub fn verify_program(view: &ProgramView) -> Vec<Diagnostic> {
    view.check().iter().map(fault_diag).collect()
}

/// The automata a fresh derivation from the expression yields, in the
/// compiler's deterministic visit order.
#[derive(Default)]
pub(crate) struct ExpectedUnits {
    pub(crate) string_dfas: Vec<Dfa>,
    pub(crate) number_dfas: usize,
    pub(crate) sub1: usize,
    pub(crate) subp: usize,
    pub(crate) wide: usize,
}

pub(crate) fn collect_expected(expr: &Expr, exp: &mut ExpectedUnits) {
    match expr {
        Expr::Str(spec) => match spec.technique {
            StringTechnique::Dfa | StringTechnique::Window => {
                let m = DfaStringMatcher::new(&spec.needle);
                exp.string_dfas.push(m.dfa().clone());
            }
            StringTechnique::Substring(b) => {
                if b == 1 {
                    exp.sub1 += 1;
                } else if b <= 8 {
                    exp.subp += 1;
                } else {
                    exp.wide += 1;
                }
            }
        },
        Expr::Num(..) => exp.number_dfas += 1,
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                collect_expected(c, exp);
            }
        }
    }
}

/// Cross-checks one stored unit against its freshly derived automaton.
pub(crate) fn check_unit(
    kind: &str,
    i: usize,
    unit: &DfaUnitView,
    fresh: &Dfa,
    tables: &[u16],
    out: &mut Vec<Diagnostic>,
) {
    let loc = format!("{kind} unit {i} (node {})", unit.node);
    let len = fresh.num_states() * 256;
    let off = unit.table_off as usize;
    if off + len > tables.len() {
        out.push(Diagnostic::error(
            Layer::Program,
            "P021",
            &loc,
            format!(
                "table offset {off}+{len} exceeds pool of {} entries",
                tables.len()
            ),
        ));
        return;
    }
    if tables[off..off + len] != fresh.dense_table()[..] {
        out.push(Diagnostic::error(
            Layer::Program,
            "P022",
            &loc,
            "stored dense table disagrees with fresh derivation from the expression".to_string(),
        ));
    }
    if unit.start != fresh.dense_start() {
        out.push(Diagnostic::error(
            Layer::Program,
            "P022",
            &loc,
            format!(
                "stored start word 0x{:04x} disagrees with derived 0x{:04x}",
                unit.start,
                fresh.dense_start()
            ),
        ));
    }
}

/// Verifies a compiled engine: structural program invariants plus the
/// cross-layer agreement of its stored dense string-DFA tables with
/// automata freshly derived from [`Engine::expr`].
pub fn verify_engine(engine: &Engine) -> Vec<Diagnostic> {
    let view = engine.program_view();
    let mut out = verify_program(&view);

    let mut exp = ExpectedUnits::default();
    collect_expected(engine.expr(), &mut exp);

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
                "P020",
                "program",
                format!("{kind} unit count {got}, expression has {want}"),
            ));
        }
    }

    for (i, (unit, fresh)) in view.string_dfas.iter().zip(&exp.string_dfas).enumerate() {
        check_unit("string-dfa", i, unit, fresh, &view.tables, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn sample_engine() -> Engine {
        let expr = Expr::and([
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::dfa_string(b"dust").unwrap(),
            Expr::int_range(12, 49),
        ]);
        Engine::compile(&expr)
    }

    #[test]
    fn compiled_engine_is_clean() {
        let diags = verify_engine(&sample_engine());
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_latch_reset_is_flagged() {
        let engine = sample_engine();
        let mut view = engine.program_view();
        // Find the context op and knock one descendant out of its clear
        // mask — the latch would never reset at instance end.
        let ctx = view
            .ops
            .iter()
            .find_map(|op| match op.kind {
                rfjson_core::engine::OpKindView::Ctx { clear_off, .. } => {
                    Some((op.node, clear_off))
                }
                _ => None,
            })
            .expect("sample has a context");
        let (node, clear_off) = ctx;
        let first_desc = (node - 2) as usize; // a strict descendant bit
        view.masks[clear_off as usize + first_desc / 64] &= !(1u64 << (first_desc % 64));
        let diags = verify_program(&view);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "P010" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn corrupted_stored_table_is_flagged() {
        let engine = sample_engine();
        // verify_engine recomputes from the expression; corrupting the
        // snapshot's table must be caught by the cross-layer check. The
        // snapshot is a clone, so mutate and re-run the unit check
        // directly.
        let mut view = engine.program_view();
        let unit = view.string_dfas[0];
        view.tables[unit.table_off as usize + 7] ^= 1;
        let mut exp = ExpectedUnits::default();
        collect_expected(engine.expr(), &mut exp);
        let mut out = Vec::new();
        check_unit(
            "string-dfa",
            0,
            &unit,
            &exp.string_dfas[0],
            &view.tables,
            &mut out,
        );
        assert!(out.iter().any(|d| d.code == "P022"), "{out:?}");
    }
}
