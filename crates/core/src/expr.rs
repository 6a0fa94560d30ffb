//! Filter expressions (§III-C/D): composition of raw-filter primitives by
//! conjunction, disjunction and structural context.
//!
//! The [`Display`](std::fmt::Display) form follows the paper's notation
//! exactly: `s1("temperature")`, `v(0.7 ≤ f ≤ 35.1)`,
//! `{ s1("humidity") & v(20.3 ≤ f ≤ 69.1) } & v(12 ≤ i ≤ 49)`. A number
//! primitive of the [anchored](NumberTechnique::Anchored) technique prints
//! as `va(…)`.

use crate::primitive::SubstringError;
use rfjson_redfa::range::{BoundsError, NumberKind, ParseDecimalError};
use rfjson_redfa::{Decimal, NumberBounds};
use std::error::Error;
use std::fmt;

/// Which string-matching technique implements an `s(...)` primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringTechnique {
    /// Technique (i): DFA, one char per cycle.
    Dfa,
    /// Technique (ii): full N-byte window comparison (B = N).
    Window,
    /// Technique (iii): approximate B-byte substring blocks.
    Substring(usize),
}

/// Which technique implements a `v(...)` primitive (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumberTechnique {
    /// The paper's primitive: the range automaton judges every maximal
    /// run of number bytes, wherever it sits.
    Token,
    /// Value-anchored tokens: a token is judged only where a parser could
    /// read it as a whole number — the byte before it and the byte that
    /// ends it are both anchor bytes
    /// ([`is_anchor_byte`](crate::primitive::is_anchor_byte)).
    Anchored,
}

/// A string-search primitive specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringSpec {
    /// The search string.
    pub needle: Vec<u8>,
    /// Implementation technique.
    pub technique: StringTechnique,
}

/// The scope within which a structural context `{…}` combines its
/// children (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StructScope {
    /// Same object instance at one nesting level: flags clear when the
    /// instance's level closes. Right for SenML measurement objects.
    #[default]
    Object,
    /// Same member: flags additionally clear at every unmasked comma on
    /// the instance level — the paper's "key RF and value RF both appear
    /// before the same unescaped comma". Right for flat records.
    Member,
}

/// A composed raw-filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// String-search primitive.
    Str(StringSpec),
    /// Number-range primitive.
    Num(NumberBounds, NumberTechnique),
    /// Conjunction: every child must fire somewhere in the record.
    And(Vec<Expr>),
    /// Disjunction: at least one child must fire. Children of an OR can
    /// never be pruned in the design flow (that would allow false
    /// negatives, §III-D rule b).
    Or(Vec<Expr>),
    /// Structural context `{…}`: children must fire within the same
    /// structural instance.
    Ctx(Vec<Expr>, StructScope),
}

/// Errors from the expression smart constructors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExprError {
    /// Invalid substring-matcher parameters.
    Substring(SubstringError),
    /// Invalid numeric bounds.
    Bounds(BoundsError),
    /// Unparsable decimal literal.
    Decimal(ParseDecimalError),
    /// A combinator was given no children.
    EmptyCombinator,
    /// Needle was empty (for window/DFA variants).
    EmptyNeedle,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Substring(e) => write!(f, "{e}"),
            ExprError::Bounds(e) => write!(f, "{e}"),
            ExprError::Decimal(e) => write!(f, "{e}"),
            ExprError::EmptyCombinator => write!(f, "combinator needs at least one child"),
            ExprError::EmptyNeedle => write!(f, "needle must not be empty"),
        }
    }
}

impl Error for ExprError {}

impl From<SubstringError> for ExprError {
    fn from(e: SubstringError) -> Self {
        ExprError::Substring(e)
    }
}

impl From<BoundsError> for ExprError {
    fn from(e: BoundsError) -> Self {
        ExprError::Bounds(e)
    }
}

impl From<ParseDecimalError> for ExprError {
    fn from(e: ParseDecimalError) -> Self {
        ExprError::Decimal(e)
    }
}

impl Expr {
    /// `sB(needle)` — the approximate substring matcher.
    ///
    /// # Errors
    ///
    /// Propagates [`SubstringError`] for bad parameters.
    pub fn substring(needle: &[u8], b: usize) -> Result<Expr, ExprError> {
        // Validate eagerly through the primitive constructor.
        crate::primitive::SubstringMatcher::new(needle, b)?;
        Ok(Expr::Str(StringSpec {
            needle: needle.to_vec(),
            technique: StringTechnique::Substring(b),
        }))
    }

    /// Full-window exact matcher (technique ii).
    ///
    /// # Errors
    ///
    /// [`ExprError::EmptyNeedle`] for an empty needle.
    pub fn window(needle: &[u8]) -> Result<Expr, ExprError> {
        if needle.is_empty() {
            return Err(ExprError::EmptyNeedle);
        }
        Ok(Expr::Str(StringSpec {
            needle: needle.to_vec(),
            technique: StringTechnique::Window,
        }))
    }

    /// DFA exact matcher (technique i).
    ///
    /// # Errors
    ///
    /// [`ExprError::EmptyNeedle`] for an empty needle.
    pub fn dfa_string(needle: &[u8]) -> Result<Expr, ExprError> {
        if needle.is_empty() {
            return Err(ExprError::EmptyNeedle);
        }
        Ok(Expr::Str(StringSpec {
            needle: needle.to_vec(),
            technique: StringTechnique::Dfa,
        }))
    }

    /// `va(lo ≤ i ≤ hi)` — integer range filter, value-anchored.
    pub fn int_range(lo: i64, hi: i64) -> Expr {
        Expr::Num(NumberBounds::int_range(lo, hi), NumberTechnique::Anchored)
    }

    /// `va(lo ≤ f ≤ hi)` — float range filter from decimal literals,
    /// value-anchored.
    ///
    /// # Errors
    ///
    /// Propagates decimal-parse and bounds-validation errors.
    pub fn float_range(lo: &str, hi: &str) -> Result<Expr, ExprError> {
        let lo: Decimal = lo.parse()?;
        let hi: Decimal = hi.parse()?;
        Ok(Expr::Num(
            NumberBounds::new(lo, hi, NumberKind::Float)?,
            NumberTechnique::Anchored,
        ))
    }

    /// The same expression with every number primitive implemented by
    /// `technique` — the design flow's choice between the paper's
    /// primitive and the anchored one.
    #[must_use]
    pub fn with_number_technique(self, technique: NumberTechnique) -> Expr {
        let all = |cs: Vec<Expr>| cs.into_iter().map(|c| c.with_number_technique(technique));
        match self {
            Expr::Num(bounds, _) => Expr::Num(bounds, technique),
            Expr::Str(spec) => Expr::Str(spec),
            Expr::And(cs) => Expr::And(all(cs).collect()),
            Expr::Or(cs) => Expr::Or(all(cs).collect()),
            Expr::Ctx(cs, scope) => Expr::Ctx(all(cs).collect(), scope),
        }
    }

    /// Conjunction of children.
    pub fn and(children: impl IntoIterator<Item = Expr>) -> Expr {
        let mut v: Vec<Expr> = Vec::new();
        for c in children {
            match c {
                Expr::And(inner) => v.extend(inner),
                other => v.push(other),
            }
        }
        if v.len() == 1 {
            v.into_iter().next().expect("len checked")
        } else {
            Expr::And(v)
        }
    }

    /// Disjunction of children.
    pub fn or(children: impl IntoIterator<Item = Expr>) -> Expr {
        let mut v: Vec<Expr> = Vec::new();
        for c in children {
            match c {
                Expr::Or(inner) => v.extend(inner),
                other => v.push(other),
            }
        }
        if v.len() == 1 {
            v.into_iter().next().expect("len checked")
        } else {
            Expr::Or(v)
        }
    }

    /// `{ … }` structural context with the default [`StructScope::Object`].
    pub fn context(children: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Ctx(children.into_iter().collect(), StructScope::Object)
    }

    /// `{ … }` structural context with an explicit scope.
    pub fn context_scoped(scope: StructScope, children: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Ctx(children.into_iter().collect(), scope)
    }

    /// Number of primitive leaves.
    pub fn num_primitives(&self) -> usize {
        match self {
            Expr::Str(_) | Expr::Num(..) => 1,
            Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
                cs.iter().map(Expr::num_primitives).sum()
            }
        }
    }

    /// Does the expression contain a structural context anywhere?
    pub fn has_context(&self) -> bool {
        match self {
            Expr::Str(_) | Expr::Num(..) => false,
            Expr::Ctx(..) => true,
            Expr::And(cs) | Expr::Or(cs) => cs.iter().any(Expr::has_context),
        }
    }

    /// Validates that the expression is well-formed (non-empty
    /// combinators, valid primitives).
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found.
    pub fn validate(&self) -> Result<(), ExprError> {
        match self {
            Expr::Str(spec) => {
                if spec.needle.is_empty() {
                    return Err(ExprError::EmptyNeedle);
                }
                if let StringTechnique::Substring(b) = spec.technique {
                    crate::primitive::SubstringMatcher::new(&spec.needle, b)?;
                }
                Ok(())
            }
            Expr::Num(..) => Ok(()),
            Expr::And(cs) | Expr::Or(cs) | Expr::Ctx(cs, _) => {
                if cs.is_empty() {
                    return Err(ExprError::EmptyCombinator);
                }
                cs.iter().try_for_each(Expr::validate)
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Str(spec) => {
                let needle = String::from_utf8_lossy(&spec.needle);
                match spec.technique {
                    StringTechnique::Dfa => write!(f, "dfa(\"{needle}\")"),
                    StringTechnique::Window => write!(f, "sN(\"{needle}\")"),
                    StringTechnique::Substring(b) => write!(f, "s{b}(\"{needle}\")"),
                }
            }
            Expr::Num(bounds, NumberTechnique::Token) => write!(f, "v({bounds})"),
            Expr::Num(bounds, NumberTechnique::Anchored) => write!(f, "va({bounds})"),
            Expr::And(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    if matches!(c, Expr::Or(_)) {
                        write!(f, "({c})")?;
                    } else {
                        write!(f, "{c}")?;
                    }
                }
                Ok(())
            }
            Expr::Or(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            Expr::Ctx(cs, _) => {
                write!(f, "{{ ")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, " }}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let e = Expr::and([
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::int_range(12, 49),
        ]);
        assert_eq!(
            e.to_string(),
            "{ s1(\"temperature\") & va(0.7 ≤ f ≤ 35.1) } & va(12 ≤ i ≤ 49)"
        );
        assert_eq!(
            e.with_number_technique(NumberTechnique::Token).to_string(),
            "{ s1(\"temperature\") & v(0.7 ≤ f ≤ 35.1) } & v(12 ≤ i ≤ 49)"
        );
    }

    #[test]
    fn display_techniques() {
        assert_eq!(
            Expr::substring(b"dust", 2).unwrap().to_string(),
            "s2(\"dust\")"
        );
        assert_eq!(Expr::window(b"dust").unwrap().to_string(), "sN(\"dust\")");
        assert_eq!(
            Expr::dfa_string(b"dust").unwrap().to_string(),
            "dfa(\"dust\")"
        );
    }

    #[test]
    fn or_parenthesised_inside_and() {
        let e = Expr::And(vec![
            Expr::int_range(1, 2),
            Expr::Or(vec![
                Expr::substring(b"a", 1).unwrap(),
                Expr::substring(b"b", 1).unwrap(),
            ]),
        ]);
        assert_eq!(e.to_string(), "va(1 ≤ i ≤ 2) & (s1(\"a\") | s1(\"b\"))");
    }

    #[test]
    fn smart_constructors_flatten() {
        let e = Expr::and([
            Expr::and([Expr::int_range(1, 2), Expr::int_range(3, 4)]),
            Expr::int_range(5, 6),
        ]);
        match e {
            Expr::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        let single = Expr::and([Expr::int_range(1, 2)]);
        assert!(matches!(single, Expr::Num(..)));
    }

    #[test]
    fn validation() {
        assert!(Expr::And(vec![]).validate().is_err());
        assert!(Expr::substring(b"", 1).is_err());
        assert!(Expr::substring(b"abc", 9).is_err());
        assert!(Expr::float_range("5", "1").is_err());
        assert!(Expr::float_range("x", "1").is_err());
        let ok = Expr::context([Expr::int_range(0, 1)]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn counting_helpers() {
        let e = Expr::and([
            Expr::context([Expr::substring(b"a", 1).unwrap(), Expr::int_range(0, 1)]),
            Expr::int_range(2, 3),
        ]);
        assert_eq!(e.num_primitives(), 3);
        assert!(e.has_context());
        assert!(!Expr::int_range(0, 1).has_context());
    }
}
