//! Dynamic values with a total order.

use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically typed value stored in a table cell.
///
/// `Value` implements a *total* order (`Null` sorts first, then booleans,
/// integers/floats by numeric value, then text lexicographically) so that it
/// can be used directly as a sort key and inside `BTreeMap`s by the executor
/// and the statistics collector.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to `Null` on construction via
    /// [`Value::float`].
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Construct a float value, normalizing NaN to `Null` so that the total
    /// order stays sound.
    pub fn float(v: f64) -> Value {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }

    /// Construct a text value.
    pub fn text(v: impl Into<String>) -> Value {
        Value::Text(v.into())
    }

    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Boolean),
            Value::Int(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric content as f64 (ints widen), if applicable.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean content, if applicable.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render the value the way the importers and the accession detector see
    /// it: NULL becomes the empty string, everything else its display form.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            other => other.to_string(),
        }
    }

    /// Parse a raw string into the most specific value: empty → Null,
    /// integer-looking → Int, float-looking → Float, `true`/`false` → Bool,
    /// otherwise Text. This is the inference rule used by the generic parsers.
    pub fn infer(raw: &str) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        if trimmed.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if trimmed.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            // Preserve leading zeros as text: "007" is an identifier, not 7.
            if trimmed == i.to_string() {
                return Value::Int(i);
            }
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            // Require a decimal point or exponent so accession-like strings
            // such as "1e10X" never land here by accident.
            if trimmed.contains('.') || trimmed.contains('e') || trimmed.contains('E') {
                return Value::float(f);
            }
        }
        Value::Text(trimmed.to_string())
    }

    /// Whether [`Value::render`] of this value equals `target`, without
    /// allocating the rendered `String` for the dominant text and NULL cases.
    /// Probe loops (accession resolution, index lookups) call this once per
    /// row; the allocation-free fast paths are what make those scans cheap.
    pub fn renders_as(&self, target: &str) -> bool {
        match self {
            Value::Null => target.is_empty(),
            Value::Text(s) => s == target,
            other => other.render() == target,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Int(_) | Float(_), Text(_)) => Ordering::Less,
            (Text(_), Int(_) | Float(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal; hash the f64 bits
            // of the numeric value for both.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_is_normalized_to_null() {
        assert!(Value::float(f64::NAN).is_null());
        assert_eq!(Value::float(1.5), Value::Float(1.5));
    }

    #[test]
    fn infer_recognizes_types() {
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-7"), Value::Int(-7));
        assert_eq!(Value::infer("3.25"), Value::Float(3.25));
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("False"), Value::Bool(false));
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(Value::infer("   "), Value::Null);
        assert_eq!(Value::infer("P12345"), Value::text("P12345"));
    }

    #[test]
    fn infer_keeps_leading_zero_identifiers_as_text() {
        assert_eq!(Value::infer("007"), Value::text("007"));
        assert_eq!(Value::infer("0"), Value::Int(0));
    }

    #[test]
    fn int_and_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_int_float_hash_equal() {
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
    }

    #[test]
    fn null_sorts_first_text_last() {
        let mut vals = [
            Value::text("abc"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals.last().unwrap(), &Value::text("abc"));
    }

    #[test]
    fn render_null_is_empty() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(5).render(), "5");
        assert_eq!(Value::text("x").render(), "x");
    }

    #[test]
    fn renders_as_matches_render_equality() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::text("P12345"),
        ] {
            assert!(v.renders_as(&v.render()));
            assert!(!v.renders_as("no such rendering"));
        }
        assert!(Value::Null.renders_as(""));
        assert!(!Value::text("7").renders_as(""));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(String::from("s")), Value::text("s"));
    }
}
