//! Value-range → automaton derivation (paper §III-B, Fig. 2).
//!
//! A bound such as `i ≥ 35` becomes a regular expression by digit-wise case
//! analysis — *check first digit*, *check second digit*, *numbers with more
//! digits* — exactly the three steps of Fig. 2. Lower and upper bound are
//! combined into a **single automaton** via DFA intersection and then
//! minimised, "which can later be optimized better than two separate
//! automata and thus requires fewer resources overall".
//!
//! Floats extend the same scheme past the decimal point. Exponent notation
//! cannot be matched exactly by a DFA (`1e+1`, `10`, `100e-1`, … denote the
//! same value), so per the paper any token containing a digit immediately
//! followed by `e`/`E` is **accepted approximately** — a possible false
//! positive, never a false negative.

use crate::dfa::Dfa;
use crate::regex::Regex;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// The set of bytes that can be part of a number token. A token ends at the
/// first byte outside this set; that boundary is when the DFA verdict is
/// taken (§III-B).
pub const NUMBER_BYTES: &[u8] = b"0123456789+-.eE";

/// Returns `true` if `b` may appear inside a number token.
#[inline]
pub const fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
}

/// An exact decimal value: sign, integer digits, fraction digits.
/// Always stored canonically (no leading integer zeros, no trailing
/// fraction zeros, no negative zero).
///
/// # Example
///
/// ```
/// use rfjson_redfa::Decimal;
///
/// let d: Decimal = "-012.340".parse()?;
/// assert_eq!(d.to_string(), "-12.34");
/// # Ok::<(), rfjson_redfa::range::ParseDecimalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Decimal {
    negative: bool,
    /// Integer-part digit values (0–9), most significant first.
    int_digits: Vec<u8>,
    /// Fraction digit values (0–9), most significant first.
    frac_digits: Vec<u8>,
}

impl Decimal {
    /// Builds a decimal from raw digit values.
    ///
    /// # Panics
    ///
    /// Panics if any digit value exceeds 9.
    pub fn from_digits(negative: bool, int_digits: &[u8], frac_digits: &[u8]) -> Decimal {
        assert!(
            int_digits.iter().chain(frac_digits).all(|&d| d <= 9),
            "digit values must be 0..=9"
        );
        Decimal {
            negative,
            int_digits: int_digits.to_vec(),
            frac_digits: frac_digits.to_vec(),
        }
        .normalized()
    }

    /// The integer `value` as a decimal.
    pub fn from_int(value: i64) -> Decimal {
        let mag = value.unsigned_abs();
        let digits: Vec<u8> = mag.to_string().bytes().map(|b| b - b'0').collect();
        Decimal {
            negative: value < 0,
            int_digits: digits,
            frac_digits: Vec::new(),
        }
        .normalized()
    }

    fn normalized(mut self) -> Decimal {
        while self.int_digits.len() > 1 && self.int_digits[0] == 0 {
            self.int_digits.remove(0);
        }
        if self.int_digits.is_empty() {
            self.int_digits.push(0);
        }
        while self.frac_digits.last() == Some(&0) {
            self.frac_digits.pop();
        }
        if self.is_zero() {
            self.negative = false;
        }
        self
    }

    /// Is the value exactly zero?
    pub fn is_zero(&self) -> bool {
        self.int_digits.iter().all(|&d| d == 0) && self.frac_digits.is_empty()
    }

    /// Is the value negative?
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Does the value have a fractional part?
    pub fn has_fraction(&self) -> bool {
        !self.frac_digits.is_empty()
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Decimal {
        Decimal {
            negative: false,
            int_digits: self.int_digits.clone(),
            frac_digits: self.frac_digits.clone(),
        }
    }

    /// Negated value.
    #[must_use]
    pub fn neg(&self) -> Decimal {
        Decimal {
            negative: !self.negative,
            int_digits: self.int_digits.clone(),
            frac_digits: self.frac_digits.clone(),
        }
        .normalized()
    }

    /// Approximate conversion for ground-truth comparisons.
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &d in &self.int_digits {
            v = v * 10.0 + f64::from(d);
        }
        let mut scale = 0.1;
        for &d in &self.frac_digits {
            v += f64::from(d) * scale;
            scale *= 0.1;
        }
        if self.negative {
            -v
        } else {
            v
        }
    }

    fn cmp_magnitude(&self, other: &Decimal) -> Ordering {
        self.int_digits
            .len()
            .cmp(&other.int_digits.len())
            .then_with(|| self.int_digits.cmp(&other.int_digits))
            .then_with(|| {
                // Fraction comparison: lexicographic with implicit zero pad.
                let n = self.frac_digits.len().max(other.frac_digits.len());
                for i in 0..n {
                    let a = self.frac_digits.get(i).copied().unwrap_or(0);
                    let b = other.frac_digits.get(i).copied().unwrap_or(0);
                    match a.cmp(&b) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                Ordering::Equal
            })
    }
}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.cmp_magnitude(other),
            (true, true) => other.cmp_magnitude(self),
        }
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "-")?;
        }
        for &d in &self.int_digits {
            write!(f, "{d}")?;
        }
        if !self.frac_digits.is_empty() {
            write!(f, ".")?;
            for &d in &self.frac_digits {
                write!(f, "{d}")?;
            }
        }
        Ok(())
    }
}

/// Error from [`Decimal::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDecimalError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseDecimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal: {}", self.message)
    }
}

impl Error for ParseDecimalError {}

impl FromStr for Decimal {
    type Err = ParseDecimalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| ParseDecimalError { message: m.into() };
        let (negative, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s),
        };
        if rest.is_empty() {
            return Err(err("empty input"));
        }
        let (int_part, frac_part) = match rest.split_once('.') {
            Some((i, f)) => (i, f),
            None => (rest, ""),
        };
        if int_part.is_empty() {
            return Err(err("missing integer part"));
        }
        if rest.contains('.') && frac_part.is_empty() {
            return Err(err("missing fraction digits after `.`"));
        }
        let digits = |p: &str| -> Result<Vec<u8>, ParseDecimalError> {
            p.bytes()
                .map(|b| {
                    if b.is_ascii_digit() {
                        Ok(b - b'0')
                    } else {
                        Err(err(&format!("unexpected character `{}`", b as char)))
                    }
                })
                .collect()
        };
        Ok(Decimal {
            negative,
            int_digits: digits(int_part)?,
            frac_digits: digits(frac_part)?,
        }
        .normalized())
    }
}

fn digit(d: u8) -> Regex {
    Regex::byte(b'0' + d)
}

/// Digit class `[lo-hi]`; `Empty` when `lo > hi`.
fn digit_range(lo: u8, hi: u8) -> Regex {
    if lo > hi {
        Regex::Empty
    } else {
        Regex::range(b'0' + lo, b'0' + hi)
    }
}

fn literal_digits(ds: &[u8]) -> Regex {
    Regex::concat(ds.iter().map(|&d| digit(d)))
}

/// Optional fraction: `(\.[0-9]+)?`.
fn any_fraction_opt() -> Regex {
    Regex::concat([Regex::byte(b'.'), Regex::digit().plus()]).opt()
}

/// Regex matching unsigned decimal tokens with value ≥ `bound`
/// (`bound` must be non-negative). This is the Fig. 2 derivation:
/// per-digit "check digit i" clauses plus the "numbers with more digits"
/// clause, extended past the decimal point.
///
/// # Panics
///
/// Panics if `bound` is negative.
pub fn ge_regex(bound: &Decimal) -> Regex {
    assert!(!bound.is_negative(), "ge_regex needs a non-negative bound");
    ge_regex_inner(bound, true)
}

/// Integer-only variant of [`ge_regex`]: fractions are not matched, giving
/// exactly the automaton of Fig. 2 for integer attributes.
pub fn ge_int_regex(bound: &Decimal) -> Regex {
    assert!(
        !bound.is_negative(),
        "ge_int_regex needs a non-negative bound"
    );
    debug_assert!(!bound.has_fraction(), "integer bound expected");
    ge_regex_inner(bound, false)
}

fn ge_regex_inner(bound: &Decimal, allow_fraction: bool) -> Regex {
    let i = &bound.int_digits;
    let p = i.len();
    let f = &bound.frac_digits;
    let q = f.len();
    let frac_opt = if allow_fraction {
        any_fraction_opt()
    } else {
        Regex::Eps
    };
    let mut alts: Vec<Regex> = Vec::new();

    // Step 1.3 of Fig. 2: integer part with more digits is always greater.
    alts.push(Regex::concat([
        digit_range(1, 9),
        Regex::digit().at_least(p),
        frac_opt.clone(),
    ]));

    // Steps 1.1, 1.2, …: digit strictly greater at position `pos`.
    for pos in 0..p {
        let gt = digit_range(i[pos] + 1, 9);
        if gt == Regex::Empty {
            continue;
        }
        alts.push(Regex::concat([
            literal_digits(&i[..pos]),
            gt,
            Regex::digit().repeat(p - pos - 1),
            frac_opt.clone(),
        ]));
    }

    // Integer part exactly equal.
    if q == 0 {
        // Any fraction only adds value: I(\.[0-9]+)? is ≥.
        alts.push(Regex::concat([literal_digits(i), frac_opt]));
    } else if allow_fraction {
        let int_exact = literal_digits(i);
        let mut fr: Vec<Regex> = Vec::new();
        // Digit strictly greater at fraction position `pos`.
        for pos in 0..q {
            let gt = digit_range(f[pos] + 1, 9);
            if gt == Regex::Empty {
                continue;
            }
            fr.push(Regex::concat([
                literal_digits(&f[..pos]),
                gt,
                Regex::digit().star(),
            ]));
        }
        // Full fraction prefix: equal or extended (any extension is ≥).
        fr.push(Regex::concat([literal_digits(f), Regex::digit().star()]));
        alts.push(Regex::concat([
            int_exact,
            Regex::byte(b'.'),
            Regex::alt(fr),
        ]));
    }
    // If q > 0 and fractions are disallowed, an integer token can never
    // be ≥ a bound with a fractional part *when equal in integer part* —
    // except being strictly greater, which is covered above.
    Regex::alt(alts)
}

/// Regex matching unsigned decimal tokens with value ≤ `bound`
/// (`bound` must be non-negative).
///
/// # Panics
///
/// Panics if `bound` is negative.
pub fn le_regex(bound: &Decimal) -> Regex {
    assert!(!bound.is_negative(), "le_regex needs a non-negative bound");
    le_regex_inner(bound, true)
}

/// Integer-only variant of [`le_regex`].
pub fn le_int_regex(bound: &Decimal) -> Regex {
    assert!(
        !bound.is_negative(),
        "le_int_regex needs a non-negative bound"
    );
    debug_assert!(!bound.has_fraction(), "integer bound expected");
    le_regex_inner(bound, false)
}

fn le_regex_inner(bound: &Decimal, allow_fraction: bool) -> Regex {
    let i = &bound.int_digits;
    let p = i.len();
    let f = &bound.frac_digits;
    let q = f.len();
    let frac_opt = if allow_fraction {
        any_fraction_opt()
    } else {
        Regex::Eps
    };
    let mut alts: Vec<Regex> = Vec::new();

    // Integer part with fewer digits is always smaller:
    // `[1-9][0-9]{0,p-2} | 0`, with any fraction.
    if p >= 2 {
        let mut shorter_alts: Vec<Regex> = vec![Regex::byte(b'0')];
        for extra in 0..=(p - 2) {
            shorter_alts.push(Regex::concat([
                digit_range(1, 9),
                Regex::digit().repeat(extra),
            ]));
        }
        alts.push(Regex::concat([Regex::alt(shorter_alts), frac_opt.clone()]));
    }

    // Digit strictly smaller at integer position `pos`.
    for pos in 0..p {
        let lo = u8::from(pos == 0 && p > 1);
        if i[pos] == 0 || lo > i[pos] - 1 {
            continue;
        }
        alts.push(Regex::concat([
            literal_digits(&i[..pos]),
            digit_range(lo, i[pos] - 1),
            Regex::digit().repeat(p - pos - 1),
            frac_opt.clone(),
        ]));
    }

    // Integer part exactly equal.
    let int_exact = literal_digits(i);
    if q == 0 {
        if allow_fraction {
            // Equal, or with an all-zero fraction ("35.000" == 35).
            let zeros = Regex::concat([Regex::byte(b'.'), Regex::byte(b'0').plus()]).opt();
            alts.push(Regex::concat([int_exact, zeros]));
        } else {
            alts.push(int_exact);
        }
    } else {
        // v = I (no fraction) < bound since bound has a fraction.
        alts.push(int_exact.clone());
        if allow_fraction {
            let mut fr: Vec<Regex> = Vec::new();
            // Digit strictly smaller at fraction position `pos`.
            for pos in 0..q {
                if f[pos] == 0 {
                    continue;
                }
                fr.push(Regex::concat([
                    literal_digits(&f[..pos]),
                    digit_range(0, f[pos] - 1),
                    Regex::digit().star(),
                ]));
            }
            // Strict prefixes of the fraction are smaller (canonical bound
            // fractions end in a non-zero digit); the full fraction —
            // possibly zero-extended — is equal.
            for prefix in 1..q {
                fr.push(literal_digits(&f[..prefix]));
            }
            fr.push(Regex::concat([literal_digits(f), Regex::byte(b'0').star()]));
            alts.push(Regex::concat([
                int_exact,
                Regex::byte(b'.'),
                Regex::alt(fr),
            ]));
        }
    }
    Regex::alt(alts)
}

/// Whether a bound pair describes integer or float attributes — this picks
/// the derivation used (Fig. 2 integer automaton vs the decimal extension)
/// and the display notation (`i` vs `f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumberKind {
    /// Integer attribute: the automaton rejects fractional tokens.
    Integer,
    /// Float attribute: fractional tokens are compared digit-wise.
    Float,
}

/// Error constructing [`NumberBounds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundsError {
    /// `lo` was greater than `hi`.
    Inverted {
        /// Offending lower bound.
        lo: Decimal,
        /// Offending upper bound.
        hi: Decimal,
    },
    /// Integer kind requested but a bound has a fractional part.
    FractionalIntegerBound {
        /// The offending bound.
        bound: Decimal,
    },
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsError::Inverted { lo, hi } => {
                write!(f, "inverted range: {lo} > {hi}")
            }
            BoundsError::FractionalIntegerBound { bound } => {
                write!(f, "integer range with fractional bound {bound}")
            }
        }
    }
}

impl Error for BoundsError {}

/// An inclusive value range `lo ≤ v ≤ hi` for a number raw filter.
///
/// # Example
///
/// ```
/// use rfjson_redfa::{Decimal, NumberBounds};
/// use rfjson_redfa::range::NumberKind;
///
/// let b = NumberBounds::new("0.7".parse()?, "35.1".parse()?, NumberKind::Float)?;
/// let dfa = b.to_dfa();
/// assert!(dfa.accepts(b"0.7"));
/// assert!(dfa.accepts(b"35.1"));
/// assert!(dfa.accepts(b"12"));
/// assert!(!dfa.accepts(b"35.2"));
/// assert!(!dfa.accepts(b"0.65"));
/// assert!(dfa.accepts(b"2.1e3"), "exponent tokens are approximate-accepted");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumberBounds {
    lo: Decimal,
    hi: Decimal,
    kind: NumberKind,
}

impl NumberBounds {
    /// Creates a validated range.
    ///
    /// # Errors
    ///
    /// * [`BoundsError::Inverted`] when `lo > hi`;
    /// * [`BoundsError::FractionalIntegerBound`] when `kind` is
    ///   [`NumberKind::Integer`] but a bound has fraction digits.
    pub fn new(lo: Decimal, hi: Decimal, kind: NumberKind) -> Result<NumberBounds, BoundsError> {
        if lo > hi {
            return Err(BoundsError::Inverted { lo, hi });
        }
        if kind == NumberKind::Integer {
            for b in [&lo, &hi] {
                if b.has_fraction() {
                    return Err(BoundsError::FractionalIntegerBound { bound: b.clone() });
                }
            }
        }
        Ok(NumberBounds { lo, hi, kind })
    }

    /// Convenience constructor for integer ranges.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_range(lo: i64, hi: i64) -> NumberBounds {
        NumberBounds::new(
            Decimal::from_int(lo),
            Decimal::from_int(hi),
            NumberKind::Integer,
        )
        .expect("integer bounds are canonical")
    }

    /// Lower bound.
    pub fn lo(&self) -> &Decimal {
        &self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> &Decimal {
        &self.hi
    }

    /// Integer or float?
    pub fn kind(&self) -> NumberKind {
        self.kind
    }

    /// Ground-truth containment for a parsed value.
    pub fn contains_f64(&self, v: f64) -> bool {
        self.lo.to_f64() <= v && v <= self.hi.to_f64()
    }

    /// The paper's future-work optimisation "*adjusting the bounds of
    /// value range filters*": returns a **widened** range whose bounds
    /// keep only `digits` significant digits — the lower bound rounded
    /// towards −∞, the upper towards +∞. Widening can only add false
    /// positives, never false negatives, and cheaper bounds need smaller
    /// automata.
    ///
    /// # Panics
    ///
    /// Panics if `digits` is zero.
    #[must_use]
    pub fn widened_to_digits(&self, digits: usize) -> NumberBounds {
        assert!(digits > 0, "at least one significant digit required");
        NumberBounds {
            lo: round_decimal(&self.lo, digits, false),
            hi: round_decimal(&self.hi, digits, true),
            kind: self.kind,
        }
    }

    /// The exact range automaton (lower ∩ upper, sign-split), **without**
    /// the approximate exponent clause. Exposed for tests that verify
    /// exactness of the comparison logic itself.
    pub fn to_dfa_exact(&self) -> Dfa {
        type BoundRegexFn = fn(&Decimal) -> Regex;
        let (ge, le): (BoundRegexFn, BoundRegexFn) = match self.kind {
            NumberKind::Integer => (ge_int_regex, le_int_regex),
            NumberKind::Float => (ge_regex, le_regex),
        };
        let zero = Decimal::from_int(0);
        let mut branches: Vec<Dfa> = Vec::new();
        // Positive branch: tokens without sign, max(lo,0) ≤ v ≤ hi.
        if !self.hi.is_negative() {
            let lo_pos = if self.lo.is_negative() {
                &zero
            } else {
                &self.lo
            };
            let d_ge = Dfa::from_regex(&ge(lo_pos));
            let d_le = Dfa::from_regex(&le(&self.hi));
            branches.push(d_ge.intersect(&d_le));
        }
        // Negative branch: '-' then magnitude max(-hi,0) ≤ m ≤ -lo.
        if self.lo.is_negative() {
            let min_mag = if self.hi.is_negative() {
                self.hi.abs()
            } else {
                zero.clone()
            };
            let max_mag = self.lo.abs();
            let minus = Regex::byte(b'-');
            let d_ge = Dfa::from_regex(&Regex::concat([minus.clone(), ge(&min_mag)]));
            let d_le = Dfa::from_regex(&Regex::concat([minus, le(&max_mag)]));
            branches.push(d_ge.intersect(&d_le));
        }
        let mut it = branches.into_iter();
        let first = it
            .next()
            .expect("at least one branch: lo ≤ hi guarantees overlap");
        it.fold(first, |acc, d| acc.union(&d)).minimized()
    }

    /// The automaton the paper synthesises: the exact range automaton
    /// united with the approximate exponent acceptor (`.*[0-9][eE].*`).
    pub fn to_dfa(&self) -> Dfa {
        let exact = self.to_dfa_exact();
        let exp: Regex = Regex::concat([
            Regex::Class(rfjson_rtl::components::ByteSet::full()).star(),
            Regex::digit(),
            Regex::Class(rfjson_rtl::components::ByteSet::from_bytes(b"eE")),
            Regex::Class(rfjson_rtl::components::ByteSet::full()).star(),
        ]);
        exact.union(&Dfa::from_regex(&exp)).minimized()
    }
}

/// Rounds `d` to `digits` significant digits, toward +∞ when `up` is true
/// and toward −∞ otherwise. Fraction digits may be dropped entirely;
/// integer digits are replaced by zeros.
fn round_decimal(d: &Decimal, digits: usize, up: bool) -> Decimal {
    // Collect the digit string (int ++ frac) and locate the cut.
    let negative = d.is_negative();
    let abs = d.abs();
    let int_len = abs.to_string().split('.').next().map_or(1, str::len);
    let all: Vec<u8> = abs
        .to_string()
        .bytes()
        .filter(u8::is_ascii_digit)
        .map(|b| b - b'0')
        .collect();
    // Skip leading zeros when counting significant digits ("0.0071").
    let first_sig = all.iter().position(|&x| x != 0).unwrap_or(all.len());
    let cut = (first_sig + digits).min(all.len());
    let truncated: Vec<u8> = all[..cut]
        .iter()
        .copied()
        .chain(std::iter::repeat_n(0, all.len().saturating_sub(cut)))
        .collect();
    let exact = all[cut..].iter().all(|&x| x == 0);
    // Magnitude rounding direction: up for positive-up / negative-down.
    let magnitude_up = up != negative;
    let mut digits_out = truncated;
    if !exact && magnitude_up {
        // Increment the truncated magnitude at position cut−1.
        let mut i = cut;
        loop {
            if i == 0 {
                digits_out.insert(0, 1);
                break;
            }
            i -= 1;
            if digits_out[i] == 9 {
                digits_out[i] = 0;
            } else {
                digits_out[i] += 1;
                break;
            }
        }
    }
    let int_len = int_len + digits_out.len().saturating_sub(all.len());
    let (int_part, frac_part) = digits_out.split_at(int_len.min(digits_out.len()));
    Decimal::from_digits(negative, int_part, frac_part)
}

impl fmt::Display for NumberBounds {
    /// Paper notation: `12 ≤ i ≤ 49`, `0.7 ≤ f ≤ 35.1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            NumberKind::Integer => 'i',
            NumberKind::Float => 'f',
        };
        write!(f, "{} ≤ {k} ≤ {}", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Decimal {
        s.parse().expect("decimal parses")
    }

    #[test]
    fn decimal_parse_and_display() {
        assert_eq!(dec("35").to_string(), "35");
        assert_eq!(dec("35.10").to_string(), "35.1");
        assert_eq!(dec("-012.340").to_string(), "-12.34");
        assert_eq!(dec("0").to_string(), "0");
        assert_eq!(dec("-0").to_string(), "0", "negative zero normalises");
        assert_eq!(dec("0.7").to_string(), "0.7");
        assert!("".parse::<Decimal>().is_err());
        assert!("1.".parse::<Decimal>().is_err());
        assert!(".5".parse::<Decimal>().is_err());
        assert!("1a".parse::<Decimal>().is_err());
        assert!("--1".parse::<Decimal>().is_err());
    }

    #[test]
    fn decimal_ordering() {
        let mut values = vec![
            dec("-12.5"),
            dec("-1"),
            dec("0"),
            dec("0.65"),
            dec("0.7"),
            dec("12"),
            dec("35.1"),
            dec("35.2"),
            dec("100"),
        ];
        let sorted = values.clone();
        values.reverse();
        values.sort();
        assert_eq!(values, sorted);
        assert!(dec("35.1") < dec("35.15"));
        assert!(dec("-2") < dec("-1.5"));
        assert_eq!(dec("5.0"), dec("5"));
    }

    #[test]
    // Exact equality is intentional: these decimals are dyadic and
    // convert to f64 without rounding.
    #[allow(clippy::float_cmp)]
    fn decimal_to_f64() {
        assert_eq!(dec("35.25").to_f64(), 35.25);
        assert_eq!(dec("-0.5").to_f64(), -0.5);
        assert_eq!(dec("0").to_f64(), 0.0);
    }

    #[test]
    fn fig2_ge_35() {
        // The exact running example of the paper.
        let re = ge_int_regex(&dec("35"));
        let dfa = Dfa::from_regex(&re).minimized();
        for v in 0..500u32 {
            let s = v.to_string();
            assert_eq!(dfa.accepts(s.as_bytes()), v >= 35, "value {v}");
        }
        // Leading zeros are not canonical numbers: not matched.
        assert!(!dfa.accepts(b"035"));
        assert!(!dfa.accepts(b""));
    }

    #[test]
    fn int_range_exhaustive() {
        for (lo, hi) in [(12, 49), (0, 5153), (140, 3155), (17, 363), (1, 1), (0, 0)] {
            let b = NumberBounds::int_range(lo, hi);
            let dfa = b.to_dfa_exact();
            let sweep_hi = (hi + 50).max(60);
            for v in 0..=sweep_hi {
                let s = v.to_string();
                assert_eq!(
                    dfa.accepts(s.as_bytes()),
                    v >= lo && v <= hi,
                    "[{lo},{hi}] value {v}"
                );
            }
        }
    }

    #[test]
    fn float_range_hundredths() {
        // 0.7 ≤ f ≤ 35.1 — every hundredth from 0 to 40.
        let b = NumberBounds::new(dec("0.7"), dec("35.1"), NumberKind::Float).unwrap();
        let dfa = b.to_dfa_exact();
        for k in 0..4000u32 {
            let int = k / 100;
            let frac = k % 100;
            let s = if frac == 0 {
                format!("{int}")
            } else if frac % 10 == 0 {
                format!("{int}.{}", frac / 10)
            } else {
                format!("{int}.{frac:02}")
            };
            let v = f64::from(k) / 100.0;
            let want = (0.7..=35.1).contains(&v);
            assert_eq!(dfa.accepts(s.as_bytes()), want, "token {s}");
        }
    }

    #[test]
    fn float_range_trailing_zeros() {
        let b = NumberBounds::new(dec("0.7"), dec("35.1"), NumberKind::Float).unwrap();
        let dfa = b.to_dfa_exact();
        assert!(dfa.accepts(b"35.10"), "35.10 == 35.1");
        assert!(dfa.accepts(b"35.100"));
        assert!(!dfa.accepts(b"35.101"));
        assert!(dfa.accepts(b"0.70"));
        assert!(dfa.accepts(b"1.000"));
        assert!(!dfa.accepts(b"0.6999"));
        assert!(dfa.accepts(b"0.7000001"));
    }

    #[test]
    fn negative_ranges() {
        // -12.5 ≤ f ≤ 43.1 (QS1 temperature).
        let b = NumberBounds::new(dec("-12.5"), dec("43.1"), NumberKind::Float).unwrap();
        let dfa = b.to_dfa_exact();
        for (tok, want) in [
            (&b"-12.5"[..], true),
            (b"-12.51", false),
            (b"-13", false),
            (b"-0.1", true),
            (b"-0", true),
            (b"0", true),
            (b"43.1", true),
            (b"43.2", false),
            (b"-12.49", true),
        ] {
            assert_eq!(
                dfa.accepts(tok),
                want,
                "token {:?}",
                std::str::from_utf8(tok)
            );
        }
    }

    #[test]
    fn all_negative_range() {
        // -20 ≤ v ≤ -5.
        let b = NumberBounds::new(dec("-20"), dec("-5"), NumberKind::Float).unwrap();
        let dfa = b.to_dfa_exact();
        for v in -30i32..10 {
            let s = v.to_string();
            assert_eq!(
                dfa.accepts(s.as_bytes()),
                (-20..=-5).contains(&v),
                "value {v}"
            );
        }
        assert!(dfa.accepts(b"-5.0"));
        assert!(dfa.accepts(b"-19.99"));
        assert!(!dfa.accepts(b"-4.99"));
        assert!(!dfa.accepts(b"-20.01"));
        assert!(!dfa.accepts(b"5"));
    }

    #[test]
    fn exponent_rule_is_approximate() {
        let b = NumberBounds::int_range(10, 20);
        let dfa = b.to_dfa();
        // In-range plain tokens still work.
        assert!(dfa.accepts(b"15"));
        assert!(!dfa.accepts(b"25"));
        // Anything with digit+e is accepted, even if out of range.
        assert!(dfa.accepts(b"9e9"));
        assert!(dfa.accepts(b"2.1e3"));
        assert!(dfa.accepts(b"100e-1"));
        assert!(dfa.accepts(b"1E+1"));
        // 'e' with no digit before it is not a number — not accepted.
        assert!(!dfa.accepts(b"e5"));
        assert!(!dfa.accepts(b".e5"));
    }

    #[test]
    fn single_automaton_is_smaller_than_two() {
        // The paper's point: one automaton for the range, minimised, is
        // cheaper than two separate ones.
        let lo = dec("140");
        let hi = dec("3155");
        let ge = Dfa::from_regex(&ge_int_regex(&lo)).minimized();
        let le = Dfa::from_regex(&le_int_regex(&hi)).minimized();
        let range = NumberBounds::int_range(140, 3155).to_dfa_exact();
        assert!(
            range.num_states() <= ge.num_states() + le.num_states(),
            "range {} vs {}+{}",
            range.num_states(),
            ge.num_states(),
            le.num_states()
        );
    }

    #[test]
    fn bounds_validation() {
        assert!(matches!(
            NumberBounds::new(dec("5"), dec("4"), NumberKind::Integer),
            Err(BoundsError::Inverted { .. })
        ));
        assert!(matches!(
            NumberBounds::new(dec("1.5"), dec("4"), NumberKind::Integer),
            Err(BoundsError::FractionalIntegerBound { .. })
        ));
        let e = NumberBounds::new(dec("5"), dec("4"), NumberKind::Integer).unwrap_err();
        assert!(e.to_string().contains("inverted"));
    }

    #[test]
    fn widened_bounds_are_wider_and_cheaper() {
        let b = NumberBounds::new(dec("83.36"), dec("3322.67"), NumberKind::Float).unwrap();
        let w = b.widened_to_digits(1);
        assert_eq!(w.lo().to_string(), "80");
        assert_eq!(w.hi().to_string(), "4000");
        // Containment: everything the original accepts, the widened must.
        let orig = b.to_dfa_exact();
        let wide = w.to_dfa_exact();
        for probe in ["83.36", "100", "3322.67", "90.5", "84"] {
            if orig.accepts(probe.as_bytes()) {
                assert!(wide.accepts(probe.as_bytes()), "{probe}");
            }
        }
        // And it is genuinely wider.
        assert!(wide.accepts(b"81"));
        assert!(!orig.accepts(b"81"));
        // Fewer states: cheaper hardware.
        assert!(wide.num_states() <= orig.num_states());
    }

    #[test]
    fn widening_rounds_negative_bounds_outward() {
        let b = NumberBounds::new(dec("-12.5"), dec("43.1"), NumberKind::Float).unwrap();
        let w = b.widened_to_digits(1);
        assert_eq!(w.lo().to_string(), "-20", "lo moves toward -inf");
        assert_eq!(w.hi().to_string(), "50", "hi moves toward +inf");
    }

    #[test]
    fn widening_exact_values_is_identity() {
        let b = NumberBounds::int_range(100, 4000);
        let w = b.widened_to_digits(1);
        assert_eq!(w.lo().to_string(), "100");
        assert_eq!(w.hi().to_string(), "4000");
        let w2 = b.widened_to_digits(5);
        assert_eq!(w2, b);
    }

    #[test]
    fn widening_carry_chain() {
        // 9.97 rounded up to 2 digits: 10.
        let b = NumberBounds::new(dec("0.5"), dec("9.97"), NumberKind::Float).unwrap();
        let w = b.widened_to_digits(2);
        assert_eq!(w.hi().to_string(), "10");
        assert_eq!(w.lo().to_string(), "0.5");
    }

    #[test]
    fn display_uses_paper_notation() {
        let b = NumberBounds::int_range(12, 49);
        assert_eq!(b.to_string(), "12 ≤ i ≤ 49");
        let f = NumberBounds::new(dec("0.7"), dec("35.1"), NumberKind::Float).unwrap();
        assert_eq!(f.to_string(), "0.7 ≤ f ≤ 35.1");
    }

    #[test]
    fn tenths_sweep_matches_integer_ground_truth() {
        // 20.3 ≤ f ≤ 69.1 over every tenth in [0, 100): ground truth in
        // exact integer tenths to dodge f64 boundary rounding.
        let b = NumberBounds::new(dec("20.3"), dec("69.1"), NumberKind::Float).unwrap();
        let dfa = b.to_dfa_exact();
        for k in 0..1000u32 {
            let s = if k % 10 == 0 {
                format!("{}", k / 10)
            } else {
                format!("{}.{}", k / 10, k % 10)
            };
            let want = (203..=691).contains(&k);
            assert_eq!(dfa.accepts(s.as_bytes()), want, "value {s}");
        }
    }

    #[test]
    fn contains_f64_interior_points() {
        let b = NumberBounds::new(dec("20.3"), dec("69.1"), NumberKind::Float).unwrap();
        assert!(b.contains_f64(20.5));
        assert!(b.contains_f64(69.0));
        assert!(!b.contains_f64(20.0));
        assert!(!b.contains_f64(70.0));
        assert!(!b.contains_f64(-20.5));
    }
}
