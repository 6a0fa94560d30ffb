//! # rfjson-verify — static analysis of compiled raw filters
//!
//! Every artifact the compiler produces — the byte-class DFAs of the
//! string/number primitives, the flat post-order node program of the
//! batch [`Engine`], and the elaborated
//! [`Netlist`](rfjson_rtl::Netlist) — encodes invariants that the hot
//! execution loops rely on *without checking*. This crate
//! re-proves those invariants offline and reports violations through a
//! shared diagnostics model, so a miscompiled filter is caught by a lint
//! run instead of a wrong accept/reject decision on customer data.
//!
//! ## The passes
//!
//! * [`dfa`] — automaton sanity (codes `D0xx`): transition targets in
//!   range, unreachable/dead states, accept-sink detection, and full
//!   agreement between the sparse class-compressed representation and
//!   the dense 256-way tables the engine executes from
//!   ([`DENSE_ACCEPT_BIT`](rfjson_redfa::DENSE_ACCEPT_BIT) consistency
//!   included).
//! * [`program`] — flat-program well-formedness (codes `P0xx`):
//!   post-order evaluation, operands defined before use, the tree
//!   single-use property, AND/OR/CTX latch-clear coverage,
//!   bitset-width/register-count consistency, and a cross-layer check
//!   that the engine's stored dense string-DFA tables equal freshly
//!   derived ones.
//! * [`blockhit`] — the pooled block-hit automaton of the B ≥ 2
//!   substring units (codes `B0xx`): tables in range, every block of
//!   every unit hits its lane from every state, no transition sets a
//!   lane without such a block, run targets equal `N − B + 1`.
//! * [`numpool`] — the pooled number automaton of the number-range units
//!   (codes `N02x`): the table is the product of its units' freshly
//!   derived automata, transition by transition; a token end rearms; a
//!   row fires exactly its accepting units' leaves; the units are the
//!   distinct bounds of the source expressions.
//! * [`netlist`] — circuit-level checks (codes `N00x`): combinational
//!   cycles via topological sort, multi-driven output nets, unconnected
//!   flip-flops, dangling inputs, dead gates, plus fanout and gate-count
//!   statistics.
//! * [`multi`] — fused multi-query plans (codes `M0xx`): per-lane
//!   structural invariants against the shared unit pool, and the dedup
//!   census re-proved by an independent recomputation from the source
//!   expressions.
//!
//! ## Entry points
//!
//! [`verify_expr`] runs the single-query passes over one composed
//! filter expression; [`verify_query`] lints a RiotBench Table VIII
//! query end to end; [`multi::verify_batch`] lints a fused query batch.
//! The `verify` binary applies the query lint to every built-in query,
//! then the batch lint to the whole selection fused together, and exits
//! non-zero on any error-severity diagnostic.
//!
//! ```
//! use rfjson_core::Expr;
//! use rfjson_verify::verify_expr;
//!
//! let expr = Expr::context([
//!     Expr::substring(b"temperature", 1)?,
//!     Expr::float_range("0.7", "35.1")?,
//! ]);
//! let report = verify_expr(&expr, "listing2");
//! assert!(!report.has_errors());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockhit;
pub mod dfa;
pub mod multi;
pub mod netlist;
pub mod numpool;
pub mod program;

use rfjson_core::expr::{ExprError, StringTechnique};
use rfjson_core::primitive::DfaStringMatcher;
use rfjson_core::{elaborate::elaborate_filter, query::query_to_exprs, Engine, Expr};
use rfjson_riotbench::Query;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a property worth knowing, not a defect
    /// (e.g. "this DFA has an accept sink").
    Info,
    /// Suspicious but not unsound (dead logic, non-minimal automaton).
    Warning,
    /// The artifact violates an invariant the runtime depends on; the
    /// filter may produce wrong accept/reject decisions.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which artifact layer a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// A primitive's byte automaton (sparse or dense form).
    Dfa,
    /// The engine's flat post-order node program.
    Program,
    /// The pooled block-hit automaton of the B ≥ 2 substring units.
    BlockAutomaton,
    /// The pooled product automaton of the number-range units.
    NumberAutomaton,
    /// The elaborated gate-level netlist.
    Netlist,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Dfa => write!(f, "dfa"),
            Layer::Program => write!(f, "program"),
            Layer::BlockAutomaton => write!(f, "blockhit"),
            Layer::NumberAutomaton => write!(f, "numpool"),
            Layer::Netlist => write!(f, "netlist"),
        }
    }
}

/// One finding of a verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which artifact layer it concerns.
    pub layer: Layer,
    /// Stable short code (`D011`, `P010`, `B003`, `N024`, `N003`, …) — see
    /// the module docs of [`dfa`], [`program`], [`blockhit`], [`numpool`]
    /// and [`netlist`] for the catalogue.
    pub code: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
    /// Where in the artifact (a primitive's display form, a node id, a
    /// port name, …).
    pub location: String,
}

impl Diagnostic {
    /// Builds an error-severity diagnostic.
    pub fn error(layer: Layer, code: &'static str, location: &str, message: String) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            layer,
            code,
            message,
            location: location.to_string(),
        }
    }

    /// Builds a warning-severity diagnostic.
    pub fn warning(
        layer: Layer,
        code: &'static str,
        location: &str,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            layer,
            code,
            message,
            location: location.to_string(),
        }
    }

    /// Builds an info-severity diagnostic.
    pub fn info(layer: Layer, code: &'static str, location: &str, message: String) -> Diagnostic {
        Diagnostic {
            severity: Severity::Info,
            layer,
            code,
            message,
            location: location.to_string(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}/{}] {}: {}",
            self.severity, self.layer, self.code, self.location, self.message
        )
    }
}

/// The collected findings of a verification run over one artifact set.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// What was verified (query or expression name).
    pub name: String,
    /// All findings, in pass order (DFA, program, netlist).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `name`.
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            diagnostics: Vec::new(),
        }
    }

    /// Does the report contain any error-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The worst severity present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Findings at or above `min` severity.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity >= min)
    }

    /// One-line summary: `QS0: 0 errors, 1 warning, 12 info`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} errors, {} warnings, {} info",
            self.name,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Runs the DFA pass over every automaton-backed primitive of `expr`
/// (exact-string DFAs, including window specs which compile to the same
/// automaton, and number-range DFAs; approximate substring matchers have
/// no automaton and are skipped).
fn dfa_pass(expr: &Expr, out: &mut Vec<Diagnostic>) {
    match expr {
        Expr::Str(spec) => match spec.technique {
            StringTechnique::Dfa | StringTechnique::Window => {
                let m = DfaStringMatcher::new(&spec.needle);
                let loc = expr.to_string();
                out.extend(dfa::verify_dfa(m.dfa(), &loc));
                out.extend(dfa::verify_dense_table(
                    m.dfa(),
                    &m.dfa().dense_table(),
                    m.dfa().dense_start(),
                    &loc,
                ));
            }
            StringTechnique::Substring(_) => {}
        },
        Expr::Num(bounds, _) => {
            let d = bounds.to_dfa();
            let loc = expr.to_string();
            out.extend(dfa::verify_dfa(&d, &loc));
            out.extend(dfa::verify_dense_table(
                &d,
                &d.dense_table(),
                d.dense_start(),
                &loc,
            ));
        }
        Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                dfa_pass(c, out);
            }
        }
    }
}

/// Runs all single-query verification passes over one composed filter
/// expression: the DFA pass on every automaton-backed primitive, the
/// program, block-automaton and number-automaton passes on the compiled
/// [`Engine`], and the netlist pass on the elaborated circuit.
pub fn verify_expr(expr: &Expr, name: &str) -> Report {
    let mut report = Report::new(name);
    dfa_pass(expr, &mut report.diagnostics);
    let engine = Engine::compile(expr);
    report.diagnostics.extend(program::verify_engine(&engine));
    report
        .diagnostics
        .extend(blockhit::verify_engine_blocks(&engine));
    report
        .diagnostics
        .extend(numpool::verify_engine_numbers(&engine));
    let n = elaborate_filter(expr, name);
    report.diagnostics.extend(netlist::verify_netlist(&n));
    report
}

/// Lints one RiotBench Table VIII query: derives its filter expression
/// with substring block length `b` and runs [`verify_expr`] on it.
///
/// # Errors
///
/// Propagates [`ExprError`] if the query cannot be expressed with the
/// given block length (e.g. `b` longer than an attribute name).
pub fn verify_query(query: &Query, b: usize) -> Result<Report, ExprError> {
    let expr = query_to_exprs(query, b)?;
    let mut report = verify_expr(&expr, &format!("{} (b={b})", query.name));
    report.diagnostics.insert(
        0,
        Diagnostic::info(
            Layer::Program,
            "V000",
            &query.name,
            format!("expression: {expr}"),
        ),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn report_accounting() {
        let mut r = Report::new("t");
        assert!(r.max_severity().is_none());
        r.diagnostics
            .push(Diagnostic::info(Layer::Dfa, "D005", "x", "sink".into()));
        r.diagnostics.push(Diagnostic::warning(
            Layer::Netlist,
            "N006",
            "n3",
            "dead".into(),
        ));
        assert!(!r.has_errors());
        assert_eq!(r.max_severity(), Some(Severity::Warning));
        r.diagnostics.push(Diagnostic::error(
            Layer::Program,
            "P010",
            "ctx 4",
            "drop".into(),
        ));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.at_least(Severity::Warning).count(), 2);
        assert!(r.summary().contains("1 errors"));
        assert!(r.to_string().contains("error [program/P010] ctx 4: drop"));
    }

    #[test]
    fn clean_expression_verifies_clean() {
        let expr = Expr::and([
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::dfa_string(b"dust").unwrap(),
            Expr::int_range(12, 49),
        ]);
        let report = verify_expr(&expr, "smoke");
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn query_lint_is_clean() {
        let report = verify_query(&Query::qt(), 2).unwrap();
        assert!(!report.has_errors(), "{report}");
        assert!(report.diagnostics[0].message.contains("expression:"));
    }
}
