//! JSON value model.

use std::fmt;

/// A parsed JSON value.
///
/// Objects preserve member order (`Vec` of pairs) — raw filtering cares
/// about byte positions, and deterministic order keeps generated test
/// fixtures reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like the reference CPU parsers the
    /// paper compares against).
    Number(f64),
    /// A string (escapes already resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (first match, document order).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element access.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric view with string coercion: SenML (Listing 1 of the paper)
    /// stores measurements as *strings* (`"v":"35.2"`), and queries compare
    /// them numerically. Returns the number for `Number` values and for
    /// `String` values whose content, JSON whitespace (space, tab, LF, CR)
    /// trimmed, is an RFC 8259 number — not for what a float parser reads
    /// besides (`"+1.50"`, `"0100"`, `"inf"`, `"1."`, NBSP padding).
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::String(s) => match crate::parser::parse(s.as_bytes()) {
                Ok(Value::Number(n)) => Some(n),
                _ => None,
            },
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    /// Renders compact JSON (same syntax the writer emits).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::write::to_string(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn accessors() {
        let v = obj(&[
            ("n", Value::from("temperature")),
            ("v", Value::from("35.2")),
            ("raw", Value::from(7.5)),
            ("tags", [1i64, 2, 3].into_iter().collect()),
        ]);
        assert_eq!(v.get("n").and_then(Value::as_str), Some("temperature"));
        assert_eq!(v.get("raw").and_then(Value::as_f64), Some(7.5));
        assert_eq!(
            v.get("v").and_then(Value::as_f64),
            None,
            "string is not f64"
        );
        assert_eq!(v.get("v").and_then(Value::as_numeric), Some(35.2));
        assert_eq!(
            v.get("tags").and_then(|t| t.index(1)),
            Some(&Value::Number(2.0))
        );
        assert_eq!(v.get("missing"), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn as_numeric_rejects_non_numbers() {
        assert_eq!(Value::from("temperature").as_numeric(), None);
        assert_eq!(Value::Bool(true).as_numeric(), None);
        assert_eq!(Value::from("12").as_numeric(), Some(12.0));
        assert_eq!(Value::from(" 3.5 ").as_numeric(), Some(3.5));
    }

    #[test]
    fn as_numeric_takes_exactly_rfc8259_numbers() {
        for rejected in [
            "+1.50", "0100", "inf", "NaN", "1.", ".5", "\u{a0}5", "", "[1]",
        ] {
            assert_eq!(Value::from(rejected).as_numeric(), None, "{rejected:?}");
        }
        let accepted = [(" 3.5 ", 3.5), ("-0", 0.0), ("1E5", 1e5), ("2.0e-3", 2e-3)];
        for (text, n) in accepted {
            assert_eq!(Value::from(text).as_numeric(), Some(n), "{text:?}");
        }
        assert_eq!(Value::from("\t\r\n7\n").as_numeric(), Some(7.0));
    }

    #[test]
    fn duplicate_keys_first_wins() {
        let v = Value::Object(vec![
            ("k".into(), Value::from(1i64)),
            ("k".into(), Value::from(2i64)),
        ]);
        assert_eq!(v.get("k"), Some(&Value::Number(1.0)));
    }
}
