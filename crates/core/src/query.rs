//! Query → primitive extraction (design-flow step i, §III-D).
//!
//! A Table VIII query is a conjunction of attribute range predicates; each
//! predicate yields a string-search primitive (the attribute name), a
//! number-range primitive (the value bounds), and their structural
//! combinations. The structural scope follows the record shape: SenML
//! measurement objects use [`StructScope::Object`], flat records use the
//! comma-scoped [`StructScope::Member`].

use crate::expr::{Expr, ExprError, NumberTechnique, StringTechnique, StructScope};
use rfjson_redfa::range::NumberKind;
use rfjson_redfa::{Decimal, NumberBounds};
use rfjson_riotbench::{AttrKind, Query, RangePredicate, RecordShape};

/// How one attribute of the query is represented in a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrOption {
    /// `v(range)` — value filter only.
    Value,
    /// `sB(name)` — string filter only.
    Str(StringTechnique),
    /// `{ sB(name) & v(range) }` — structure-aware pair.
    StructPair(StringTechnique),
    /// `sB(name) & v(range)` — plain conjunction, no structure.
    PlainPair(StringTechnique),
}

impl AttrOption {
    /// Does this option use the shared structure block?
    pub fn is_structural(self) -> bool {
        matches!(self, AttrOption::StructPair(_))
    }

    /// Does this option include a string matcher?
    pub fn has_string(self) -> bool {
        !matches!(self, AttrOption::Value)
    }
}

/// The numeric bounds of a predicate as an exact-decimal range.
///
/// # Errors
///
/// Propagates decimal/bounds errors (a malformed predicate literal).
pub fn predicate_bounds(p: &RangePredicate) -> Result<NumberBounds, ExprError> {
    let lo: Decimal = p.lo.parse()?;
    let hi: Decimal = p.hi.parse()?;
    let kind = match p.kind {
        AttrKind::Int => NumberKind::Integer,
        AttrKind::Float => NumberKind::Float,
    };
    Ok(NumberBounds::new(lo, hi, kind)?)
}

/// The structural scope appropriate for a record shape.
pub fn scope_for(shape: RecordShape) -> StructScope {
    match shape {
        RecordShape::SenML => StructScope::Object,
        RecordShape::Flat => StructScope::Member,
    }
}

/// Builds the expression for one attribute under a given option, its
/// value filter [anchored](NumberTechnique::Anchored)
/// ([`Expr::with_number_technique`] picks the other technique).
///
/// # Errors
///
/// Propagates construction errors (bad needles / bounds).
pub fn attr_expr(
    query: &Query,
    predicate: &RangePredicate,
    option: AttrOption,
) -> Result<Expr, ExprError> {
    let needle = predicate.attribute.as_bytes();
    let string_expr = |t: StringTechnique| -> Result<Expr, ExprError> {
        match t {
            StringTechnique::Dfa => Expr::dfa_string(needle),
            StringTechnique::Window => Expr::window(needle),
            StringTechnique::Substring(b) => Expr::substring(needle, b),
        }
    };
    let value_expr = Expr::Num(predicate_bounds(predicate)?, NumberTechnique::Anchored);
    Ok(match option {
        AttrOption::Value => value_expr,
        AttrOption::Str(t) => string_expr(t)?,
        AttrOption::StructPair(t) => {
            Expr::context_scoped(scope_for(query.shape), [string_expr(t)?, value_expr])
        }
        AttrOption::PlainPair(t) => Expr::and([string_expr(t)?, value_expr]),
    })
}

/// The full structure-aware filter for a query: every attribute as
/// `{ sB(name) & v(range) }`, conjoined — the most accurate configuration
/// of the design space (last row of each Pareto table).
///
/// # Errors
///
/// Propagates construction errors.
pub fn query_to_exprs(query: &Query, b: usize) -> Result<Expr, ExprError> {
    let mut parts = Vec::new();
    for p in &query.predicates {
        parts.push(attr_expr(
            query,
            p,
            AttrOption::StructPair(StringTechnique::Substring(b)),
        )?);
    }
    Ok(Expr::and(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::measure;
    use rfjson_riotbench::{smartcity, taxi};

    #[test]
    fn bounds_conversion() {
        let q = Query::qs0();
        let b = predicate_bounds(&q.predicates[0]).unwrap();
        assert_eq!(b.to_string(), "0.7 ≤ f ≤ 35.1");
        let bi = predicate_bounds(&q.predicates[2]).unwrap();
        assert_eq!(bi.to_string(), "0 ≤ i ≤ 5153");
    }

    #[test]
    fn scope_follows_shape() {
        assert_eq!(scope_for(RecordShape::SenML), StructScope::Object);
        assert_eq!(scope_for(RecordShape::Flat), StructScope::Member);
    }

    #[test]
    fn attr_option_expressions() {
        let q = Query::qt();
        let p = &q.predicates[3]; // tolls_amount
        let v = attr_expr(&q, p, AttrOption::Value).unwrap();
        assert_eq!(v.to_string(), "va(2.5 ≤ f ≤ 18)");
        let token = v.with_number_technique(NumberTechnique::Token);
        assert_eq!(token.to_string(), "v(2.5 ≤ f ≤ 18)");
        let s = attr_expr(&q, p, AttrOption::Str(StringTechnique::Substring(2))).unwrap();
        assert_eq!(s.to_string(), "s2(\"tolls_amount\")");
        let pair = attr_expr(&q, p, AttrOption::StructPair(StringTechnique::Substring(2))).unwrap();
        assert_eq!(
            pair.to_string(),
            "{ s2(\"tolls_amount\") & va(2.5 ≤ f ≤ 18) }"
        );
        assert!(pair.has_context());
        let plain = attr_expr(&q, p, AttrOption::PlainPair(StringTechnique::Substring(2))).unwrap();
        assert!(!plain.has_context());
    }

    #[test]
    fn full_query_filter_has_no_false_negatives() {
        // The defining invariant, on both dataset shapes.
        let qs0 = Query::qs0();
        let sc = smartcity::generate(11, 300);
        let expr = query_to_exprs(&qs0, 1).unwrap();
        let m = measure(&expr, &sc, &qs0);
        assert_eq!(m.false_negatives, 0);

        let qt = Query::qt();
        let tx = taxi::generate(12, 300);
        let expr_t = query_to_exprs(&qt, 2).unwrap();
        let mt = measure(&expr_t, &tx, &qt);
        assert_eq!(mt.false_negatives, 0);
    }

    #[test]
    fn full_smartcity_filter_is_accurate() {
        // Table V bottom row: the all-attribute structural filter reaches
        // FPR ≈ 0.
        let qs0 = Query::qs0();
        let sc = smartcity::generate(13, 500);
        let expr = query_to_exprs(&qs0, 1).unwrap();
        let m = measure(&expr, &sc, &qs0);
        assert!(m.fpr() < 0.05, "FPR {}", m.fpr());
    }
}
