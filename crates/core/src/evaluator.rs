//! Byte-serial software model of a composed raw filter.
//!
//! [`CompiledFilter`] executes an [`Expr`] with exactly the hardware's
//! per-cycle semantics (the co-simulation tests in `tests/cosim.rs` hold
//! the two bit-for-bit equal):
//!
//! * primitives emit fire signals;
//! * every node latches its satisfaction until its clearing domain resets;
//! * a structural context tracks the nesting level of its first child fire
//!   and clears its childrens' latches when that instance ends (closing
//!   bracket, or — in [`StructScope::Member`] — an unmasked comma on the
//!   instance level);
//! * the record separator `\n` resets everything.

use crate::expr::{Expr, StringSpec, StringTechnique, StructScope};
use crate::primitive::{
    DfaStringMatcher, FireFilter, NumberMatcher, SubstringMatcher, WindowMatcher,
};
use rfjson_jsonstream::{ByteInfo, StreamTracker};

#[derive(Debug, Clone)]
enum Prim {
    Dfa(DfaStringMatcher),
    Window(WindowMatcher),
    Substr(SubstringMatcher),
    Num(NumberMatcher),
}

impl Prim {
    fn of_spec(spec: &StringSpec) -> Prim {
        match spec.technique {
            StringTechnique::Dfa => Prim::Dfa(DfaStringMatcher::new(&spec.needle)),
            StringTechnique::Window => Prim::Window(WindowMatcher::new(&spec.needle)),
            StringTechnique::Substring(b) => Prim::Substr(
                SubstringMatcher::new(&spec.needle, b)
                    .expect("expression was validated at compile time"),
            ),
        }
    }

    #[inline]
    fn on_byte(&mut self, b: u8) -> bool {
        match self {
            Prim::Dfa(m) => m.on_byte(b),
            Prim::Window(m) => m.on_byte(b),
            Prim::Substr(m) => m.on_byte(b),
            Prim::Num(m) => m.on_byte(b),
        }
    }

    fn reset(&mut self) {
        match self {
            Prim::Dfa(m) => m.reset(),
            Prim::Window(m) => m.reset(),
            Prim::Substr(m) => m.reset(),
            Prim::Num(m) => m.reset(),
        }
    }
}

#[derive(Debug, Clone)]
enum EvalNode {
    Prim {
        // Boxed: a Prim (matcher state) is ~450 bytes, far larger than the
        // other variants' Vec headers.
        prim: Box<Prim>,
        fired: bool,
    },
    And {
        children: Vec<EvalNode>,
        fired: bool,
    },
    Or {
        children: Vec<EvalNode>,
        fired: bool,
    },
    Ctx {
        children: Vec<EvalNode>,
        scope: StructScope,
        flag_level: u32,
        fired: bool,
    },
}

impl EvalNode {
    fn compile(expr: &Expr) -> EvalNode {
        match expr {
            Expr::Str(spec) => EvalNode::Prim {
                prim: Box::new(Prim::of_spec(spec)),
                fired: false,
            },
            Expr::Num(bounds, technique) => EvalNode::Prim {
                prim: Box::new(Prim::Num(NumberMatcher::new(bounds.clone(), *technique))),
                fired: false,
            },
            Expr::And(cs) => EvalNode::And {
                children: cs.iter().map(EvalNode::compile).collect(),
                fired: false,
            },
            Expr::Or(cs) => EvalNode::Or {
                children: cs.iter().map(EvalNode::compile).collect(),
                fired: false,
            },
            Expr::Ctx(cs, scope) => EvalNode::Ctx {
                children: cs.iter().map(EvalNode::compile).collect(),
                scope: *scope,
                flag_level: 0,
                fired: false,
            },
        }
    }

    /// Latched satisfaction after this cycle.
    fn on_byte(&mut self, info: ByteInfo) -> bool {
        match self {
            EvalNode::Prim { prim, fired } => {
                *fired |= prim.on_byte(info.byte);
                *fired
            }
            EvalNode::And { children, fired } => {
                let mut all = true;
                for c in children.iter_mut() {
                    all &= c.on_byte(info);
                }
                *fired |= all;
                *fired
            }
            EvalNode::Or { children, fired } => {
                let mut any = false;
                for c in children.iter_mut() {
                    any |= c.on_byte(info);
                }
                *fired |= any;
                *fired
            }
            EvalNode::Ctx {
                children,
                scope,
                flag_level,
                fired,
            } => {
                let pending_before = children.iter().any(EvalNode::is_latched);
                let mut all = true;
                let mut any = false;
                for c in children.iter_mut() {
                    let l = c.on_byte(info);
                    all &= l;
                    any |= l;
                }
                // First fire of a fresh instance records the level.
                if !pending_before && any {
                    *flag_level = info.depth;
                }
                *fired |= all;
                // Instance end: clear pending child latches.
                if any {
                    let fl = *flag_level;
                    let end = (info.is_close && info.depth <= fl)
                        || (*scope == StructScope::Member && info.is_comma && info.depth == fl);
                    if end {
                        for c in children.iter_mut() {
                            c.clear_latches();
                        }
                    }
                }
                *fired
            }
        }
    }

    #[inline]
    fn is_latched(&self) -> bool {
        match self {
            EvalNode::Prim { fired, .. }
            | EvalNode::And { fired, .. }
            | EvalNode::Or { fired, .. }
            | EvalNode::Ctx { fired, .. } => *fired,
        }
    }

    /// Clears satisfaction latches (context instance end) without touching
    /// primitive streaming state (DFA states, buffers, counters keep
    /// running — exactly like the hardware registers).
    fn clear_latches(&mut self) {
        match self {
            EvalNode::Prim { fired, .. } => *fired = false,
            EvalNode::And { children, fired } | EvalNode::Or { children, fired } => {
                *fired = false;
                for c in children {
                    c.clear_latches();
                }
            }
            EvalNode::Ctx {
                children,
                fired,
                flag_level,
                ..
            } => {
                *fired = false;
                *flag_level = 0;
                for c in children {
                    c.clear_latches();
                }
            }
        }
    }

    /// Full record-boundary reset (latches + primitive state).
    fn reset(&mut self) {
        match self {
            EvalNode::Prim { prim, fired } => {
                prim.reset();
                *fired = false;
            }
            EvalNode::And { children, fired } | EvalNode::Or { children, fired } => {
                *fired = false;
                for c in children {
                    c.reset();
                }
            }
            EvalNode::Ctx {
                children,
                fired,
                flag_level,
                ..
            } => {
                *fired = false;
                *flag_level = 0;
                for c in children {
                    c.reset();
                }
            }
        }
    }
}

/// An executable raw filter compiled from an [`Expr`] — the
/// cosim-faithful [`FilterBackend`](crate::backend::FilterBackend)
/// (`name() == "model"`). Batch record/stream filtering comes from the
/// backend trait's provided methods.
///
/// # Example
///
/// ```
/// use rfjson_core::{CompiledFilter, Expr, FilterBackend};
///
/// let expr = Expr::and([
///     Expr::substring(b"humidity", 1)?,
///     Expr::int_range(10, 90),
/// ]);
/// let mut f = CompiledFilter::compile(&expr);
/// assert!(f.accepts_record(br#"{"n":"humidity","v":"55"}"#));
/// assert!(!f.accepts_record(br#"{"n":"humidity","v":"95"}"#));
/// # Ok::<(), rfjson_core::expr::ExprError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    root: EvalNode,
    tracker: StreamTracker,
    expr: Expr,
}

impl CompiledFilter {
    /// Compiles an expression into its executable form.
    ///
    /// # Panics
    ///
    /// Panics if the expression fails [`Expr::validate`] — construct
    /// expressions through the smart constructors to avoid this.
    pub fn compile(expr: &Expr) -> CompiledFilter {
        expr.validate().expect("expression must be well-formed");
        CompiledFilter {
            root: EvalNode::compile(expr),
            tracker: StreamTracker::new(),
            expr: expr.clone(),
        }
    }

    /// The source expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Advances one cycle; returns the current (latched) record-accept
    /// signal.
    #[inline]
    pub fn on_byte(&mut self, byte: u8) -> bool {
        let info = self.tracker.on_byte(byte);
        self.root.on_byte(info)
    }

    /// Record-boundary reset.
    pub fn reset(&mut self) {
        self.root.reset();
        self.tracker.reset();
    }

    /// The latched record-accept signal: what the last
    /// [`CompiledFilter::on_byte`] returned, `false` after a reset.
    pub(crate) fn accepts(&self) -> bool {
        self.root.is_latched()
    }
}

impl crate::backend::FilterBackend for CompiledFilter {
    fn compile(expr: &Expr) -> Self {
        CompiledFilter::compile(expr)
    }

    fn name(&self) -> &'static str {
        "model"
    }

    fn expr(&self) -> &Expr {
        &self.expr
    }

    #[inline]
    fn on_byte(&mut self, byte: u8) -> bool {
        CompiledFilter::on_byte(self, byte)
    }

    fn reset(&mut self) {
        CompiledFilter::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FilterBackend;

    const LISTING1: &[u8] = br#"{"e":[{"v":"35.2","u":"far","n":"temperature"},{"v":"12","u":"per","n":"humidity"},{"v":"713","u":"per","n":"light"},{"v":"305.01","u":"per","n":"dust"},{"v":"20","u":"per","n":"airquality_raw"}],"bt":1422748800000}"#;

    fn ctx_temp_filter() -> CompiledFilter {
        CompiledFilter::compile(&Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]))
    }

    #[test]
    fn naive_conjunction_false_positive_on_listing1() {
        // §I: the plain AND of s("temperature") and v(0.7..35.1) wrongly
        // accepts Listing 1 — "12" and "20" are in range even though the
        // temperature itself (35.2) is not.
        let mut f = CompiledFilter::compile(&Expr::and([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]));
        assert!(f.accepts_record(LISTING1), "the motivating false positive");
    }

    #[test]
    fn structural_context_rejects_listing1() {
        // §III-C: requiring both to fire in the same measurement object
        // eliminates the false positive.
        let mut f = ctx_temp_filter();
        assert!(!f.accepts_record(LISTING1));
    }

    #[test]
    fn structural_context_accepts_true_match() {
        let mut f = ctx_temp_filter();
        let rec = br#"{"e":[{"v":"21.4","u":"far","n":"temperature"},{"v":"99","u":"per","n":"humidity"}],"bt":1}"#;
        assert!(f.accepts_record(rec));
    }

    #[test]
    fn member_scope_key_value() {
        // Flat record: value fires only within the same member as the key.
        let e = Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        );
        let mut f = CompiledFilter::compile(&e);
        // tolls out of range, but fare in range: member scoping must reject.
        assert!(
            !f.accepts_record(br#"{"fare_amount":11.50,"tolls_amount":0.00,"total_amount":12.00}"#)
        );
        // tolls genuinely in range: accept.
        assert!(
            f.accepts_record(br#"{"fare_amount":11.50,"tolls_amount":5.33,"total_amount":17.33}"#)
        );
        // Object scope, by contrast, produces the false positive:
        let e2 = Expr::context_scoped(
            StructScope::Object,
            [
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        );
        let mut f2 = CompiledFilter::compile(&e2);
        assert!(
            f2.accepts_record(br#"{"fare_amount":11.50,"tolls_amount":0.00,"total_amount":12.00}"#)
        );
    }

    #[test]
    fn value_fire_at_member_terminating_comma_counts() {
        // The value token ends exactly at the comma that also ends the
        // member: the fire must be credited to the member *before* the
        // clear (set → evaluate → clear ordering).
        let e = Expr::context_scoped(
            StructScope::Member,
            [Expr::substring(b"x", 1).unwrap(), Expr::int_range(1, 5)],
        );
        let mut f = CompiledFilter::compile(&e);
        assert!(f.accepts_record(br#"{"x":3,"y":99}"#));
        assert!(!f.accepts_record(br#"{"x":9,"y":3}"#));
    }

    #[test]
    fn or_composition() {
        let e = Expr::or([
            Expr::substring(b"cat", 2).unwrap(),
            Expr::substring(b"dog", 2).unwrap(),
        ]);
        let mut f = CompiledFilter::compile(&e);
        assert!(f.accepts_record(br#"{"pet":"dog"}"#));
        assert!(f.accepts_record(br#"{"pet":"cat"}"#));
        assert!(!f.accepts_record(br#"{"pet":"cow"}"#));
    }

    #[test]
    fn nested_context_in_and() {
        // Pareto-table shape: { s & v } & v(...)
        let e = Expr::and([
            Expr::context([
                Expr::substring(b"humidity", 1).unwrap(),
                Expr::float_range("20.3", "69.1").unwrap(),
            ]),
            Expr::int_range(12, 49),
        ]);
        let mut f = CompiledFilter::compile(&e);
        let rec = br#"{"e":[{"v":"45.0","u":"per","n":"humidity"},{"v":"20","u":"per","n":"airquality_raw"}],"bt":1}"#;
        assert!(f.accepts_record(rec));
        let rec2 = br#"{"e":[{"v":"75.0","u":"per","n":"humidity"},{"v":"20","u":"per","n":"airquality_raw"}],"bt":1}"#;
        assert!(!f.accepts_record(rec2), "humidity out of range");
    }

    #[test]
    fn filter_stream_per_record_decisions() {
        let mut f = CompiledFilter::compile(&Expr::int_range(1, 5));
        let stream = b"{\"a\":3}\n{\"a\":9}\n{\"a\":4}";
        assert_eq!(f.filter_stream(stream), vec![true, false, true]);
    }

    #[test]
    fn state_does_not_leak_across_records() {
        let mut f = CompiledFilter::compile(&Expr::and([
            Expr::substring(b"alpha", 2).unwrap(),
            Expr::substring(b"beta", 2).unwrap(),
        ]));
        // "alpha" in record 1, "beta" in record 2 — neither record has both.
        let stream = b"{\"k\":\"alpha\"}\n{\"k\":\"beta\"}\n";
        assert_eq!(f.filter_stream(stream), vec![false, false]);
    }
}
