//! Data types of the relational substrate.

use std::fmt;

/// The dynamic data types supported by the substrate.
///
/// Life-science sources imported by generic parsers are overwhelmingly text
/// plus surrogate integer keys, so the type lattice is intentionally small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 text of arbitrary length.
    Text,
    /// Boolean.
    Boolean,
}

impl DataType {
    /// Whether a value of `other` can be stored in a column of `self` without
    /// loss that matters to the discovery heuristics (integers widen to float,
    /// anything can be rendered as text).
    pub fn accepts(self, other: DataType) -> bool {
        match (self, other) {
            (a, b) if a == b => true,
            (DataType::Float, DataType::Integer) => true,
            (DataType::Text, _) => true,
            _ => false,
        }
    }

    /// The most specific type that accepts both inputs; used by schema
    /// inference in the importers.
    pub fn unify(self, other: DataType) -> DataType {
        if self == other || self.accepts(other) {
            self
        } else if other.accepts(self) {
            other
        } else if matches!(
            (self, other),
            (DataType::Integer, DataType::Float) | (DataType::Float, DataType::Integer)
        ) {
            DataType::Float
        } else {
            DataType::Text
        }
    }

    /// True for numeric types (used by the "purely numeric attribute" pruning
    /// rule in link discovery).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Integer | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Integer => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_is_reflexive() {
        for t in [
            DataType::Integer,
            DataType::Float,
            DataType::Text,
            DataType::Boolean,
        ] {
            assert!(t.accepts(t));
        }
    }

    #[test]
    fn float_accepts_integer_but_not_vice_versa() {
        assert!(DataType::Float.accepts(DataType::Integer));
        assert!(!DataType::Integer.accepts(DataType::Float));
    }

    #[test]
    fn text_accepts_everything() {
        for t in [
            DataType::Integer,
            DataType::Float,
            DataType::Text,
            DataType::Boolean,
        ] {
            assert!(DataType::Text.accepts(t));
        }
    }

    #[test]
    fn unify_numeric_pairs_to_float() {
        assert_eq!(DataType::Integer.unify(DataType::Float), DataType::Float);
        assert_eq!(DataType::Float.unify(DataType::Integer), DataType::Float);
    }

    #[test]
    fn unify_disparate_falls_back_to_text() {
        assert_eq!(DataType::Boolean.unify(DataType::Integer), DataType::Text);
    }

    #[test]
    fn numeric_predicate() {
        assert!(DataType::Integer.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert!(!DataType::Boolean.is_numeric());
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::Text.to_string(), "TEXT");
        assert_eq!(DataType::Integer.to_string(), "INTEGER");
    }
}
