//! Table schemas and column definitions.

use crate::error::{RelError, RelResult};
use crate::types::DataType;
use std::fmt;

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case is preserved, lookups are case-insensitive).
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// Whether NULL values are allowed. Generic imports default to `true`.
    pub nullable: bool,
}

impl ColumnDef {
    /// Create a nullable column of the given type.
    pub fn new(name: impl Into<String>, data_type: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// Create a NOT NULL column of the given type.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// Shorthand for a nullable text column, the dominant case in imported
    /// life-science sources.
    pub fn text(name: impl Into<String>) -> ColumnDef {
        ColumnDef::new(name, DataType::Text)
    }

    /// Shorthand for a nullable integer column (surrogate keys and counters).
    pub fn int(name: impl Into<String>) -> ColumnDef {
        ColumnDef::new(name, DataType::Integer)
    }

    /// Shorthand for a nullable float column.
    pub fn float(name: impl Into<String>) -> ColumnDef {
        ColumnDef::new(name, DataType::Float)
    }
}

/// Outcome of resolving a (possibly qualified) column reference against a
/// schema, see [`TableSchema::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnResolution {
    /// The reference names exactly one column.
    Index(usize),
    /// The reference is an unqualified suffix shared by several qualified
    /// columns; the payload lists the candidates.
    Ambiguous(Vec<String>),
    /// No column matches the reference.
    Unknown,
}

/// The schema of a table: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableSchema {
    columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Build a schema from column definitions. Duplicate column names
    /// (case-insensitive) are rejected.
    pub fn new(columns: Vec<ColumnDef>) -> RelResult<TableSchema> {
        for (i, c) in columns.iter().enumerate() {
            for other in &columns[i + 1..] {
                if c.name.eq_ignore_ascii_case(&other.name) {
                    return Err(RelError::AlreadyExists(format!(
                        "duplicate column name '{}'",
                        c.name
                    )));
                }
            }
        }
        Ok(TableSchema { columns })
    }

    /// Build a schema, panicking on duplicate names. Intended for tests and
    /// static schema literals.
    pub fn of(columns: Vec<ColumnDef>) -> TableSchema {
        TableSchema::new(columns).expect("invalid static schema")
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Column definition by position.
    pub fn column_at(&self, idx: usize) -> Option<&ColumnDef> {
        self.columns.get(idx)
    }

    /// Require a column index, returning an error naming the column otherwise.
    pub fn require(&self, name: &str) -> RelResult<usize> {
        self.index_of(name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// Resolve a column reference the way expression evaluation does: a
    /// case-insensitive exact match first, then an unqualified reference
    /// matching the suffix of a qualified column (`accession` matching
    /// `bioentry.accession`) as long as exactly one column has that suffix.
    /// The static analyzer ([`crate::analyze`]) shares this resolution so its
    /// verdicts mirror runtime behaviour exactly.
    pub fn resolve(&self, name: &str) -> ColumnResolution {
        if let Some(idx) = self.index_of(name) {
            return ColumnResolution::Index(idx);
        }
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name
                    .rsplit('.')
                    .next()
                    .is_some_and(|s| s.eq_ignore_ascii_case(name))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [one] => ColumnResolution::Index(*one),
            [] => ColumnResolution::Unknown,
            several => ColumnResolution::Ambiguous(
                several
                    .iter()
                    .map(|&i| self.columns[i].name.clone())
                    .collect(),
            ),
        }
    }

    /// Append a column, rejecting duplicates. Returns the new column's index.
    pub fn add_column(&mut self, col: ColumnDef) -> RelResult<usize> {
        if self.index_of(&col.name).is_some() {
            return Err(RelError::AlreadyExists(format!(
                "duplicate column name '{}'",
                col.name
            )));
        }
        self.columns.push(col);
        Ok(self.columns.len() - 1)
    }

    /// A new schema with columns from both inputs, prefixing clashing names
    /// with the given qualifiers; used by the join executor.
    pub fn join(&self, other: &TableSchema, left_qual: &str, right_qual: &str) -> TableSchema {
        let mut columns = Vec::with_capacity(self.arity() + other.arity());
        for c in &self.columns {
            let clashes = other.index_of(&c.name).is_some();
            let name = if clashes {
                format!("{left_qual}.{}", c.name)
            } else {
                c.name.clone()
            };
            columns.push(ColumnDef {
                name,
                data_type: c.data_type,
                nullable: true,
            });
        }
        for c in &other.columns {
            let clashes = self.index_of(&c.name).is_some();
            let name = if clashes {
                format!("{right_qual}.{}", c.name)
            } else {
                c.name.clone()
            };
            columns.push(ColumnDef {
                name,
                data_type: c.data_type,
                nullable: true,
            });
        }
        TableSchema { columns }
    }
}

impl fmt::Display for TableSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.data_type)?;
            if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableSchema {
        TableSchema::of(vec![
            ColumnDef::int("bioentry_id"),
            ColumnDef::text("accession"),
            ColumnDef::text("description"),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ACCESSION"), Some(1));
        assert_eq!(s.index_of("Accession"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(vec![ColumnDef::text("a"), ColumnDef::int("A")]).unwrap_err();
        assert!(matches!(err, RelError::AlreadyExists(_)));
    }

    #[test]
    fn add_column_rejects_duplicates() {
        let mut s = sample();
        assert!(s.add_column(ColumnDef::text("new_col")).is_ok());
        assert!(s.add_column(ColumnDef::text("accession")).is_err());
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn require_reports_unknown_column() {
        let s = sample();
        assert_eq!(s.require("accession").unwrap(), 1);
        assert!(matches!(s.require("nope"), Err(RelError::UnknownColumn(_))));
    }

    #[test]
    fn join_qualifies_clashing_names() {
        let left = sample();
        let right = TableSchema::of(vec![
            ColumnDef::int("dbref_id"),
            ColumnDef::text("accession"),
        ]);
        let joined = left.join(&right, "bioentry", "dbref");
        let names = joined.column_names();
        assert!(names.contains(&"bioentry.accession"));
        assert!(names.contains(&"dbref.accession"));
        assert!(names.contains(&"bioentry_id"));
        assert!(names.contains(&"dbref_id"));
        assert_eq!(joined.arity(), 5);
    }

    #[test]
    fn display_includes_types() {
        let s = TableSchema::of(vec![ColumnDef::not_null("id", DataType::Integer)]);
        assert_eq!(s.to_string(), "(id INTEGER NOT NULL)");
    }
}
