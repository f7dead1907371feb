//! Integrity constraints of the data dictionary.
//!
//! ALADIN "does not depend on predefined integrity constraints [...] but uses
//! them if they are available" (paper, Sections 1 and 4.1/4.2). The catalog
//! therefore carries an explicit, optional set of constraints per table; the
//! discovery steps consult it first and fall back to data analysis.

use std::fmt;

/// A foreign-key constraint: `table.column` references `ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing table.
    pub table: String,
    /// Referencing column.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column.
    pub ref_column: String,
}

impl ForeignKey {
    /// Create a foreign key description.
    pub fn new(
        table: impl Into<String>,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> ForeignKey {
        ForeignKey {
            table: table.into(),
            column: column.into(),
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        }
    }
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{} -> {}.{}",
            self.table, self.column, self.ref_table, self.ref_column
        )
    }
}

/// A declared integrity constraint known to the data dictionary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// The named column of the named table is declared UNIQUE.
    Unique {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// The named column is the table's declared PRIMARY KEY (implies UNIQUE
    /// and NOT NULL).
    PrimaryKey {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// The named column must not contain NULLs.
    NotNull {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A declared foreign key.
    ForeignKey(ForeignKey),
}

impl Constraint {
    /// Table this constraint applies to (the referencing table for FKs).
    pub fn table(&self) -> &str {
        match self {
            Constraint::Unique { table, .. }
            | Constraint::PrimaryKey { table, .. }
            | Constraint::NotNull { table, .. } => table,
            Constraint::ForeignKey(fk) => &fk.table,
        }
    }

    /// Column this constraint applies to (the referencing column for FKs).
    pub fn column(&self) -> &str {
        match self {
            Constraint::Unique { column, .. }
            | Constraint::PrimaryKey { column, .. }
            | Constraint::NotNull { column, .. } => column,
            Constraint::ForeignKey(fk) => &fk.column,
        }
    }

    /// True if the constraint implies uniqueness of its column.
    pub fn implies_unique(&self) -> bool {
        matches!(
            self,
            Constraint::Unique { .. } | Constraint::PrimaryKey { .. }
        )
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Unique { table, column } => write!(f, "UNIQUE({table}.{column})"),
            Constraint::PrimaryKey { table, column } => {
                write!(f, "PRIMARY KEY({table}.{column})")
            }
            Constraint::NotNull { table, column } => write!(f, "NOT NULL({table}.{column})"),
            Constraint::ForeignKey(fk) => write!(f, "FOREIGN KEY({fk})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let u = Constraint::Unique {
            table: "t".into(),
            column: "c".into(),
        };
        let pk = Constraint::PrimaryKey {
            table: "t".into(),
            column: "id".into(),
        };
        let nn = Constraint::NotNull {
            table: "t".into(),
            column: "c".into(),
        };
        let fk = Constraint::ForeignKey(ForeignKey::new("a", "b_id", "b", "id"));
        assert_eq!(u.table(), "t");
        assert_eq!(pk.column(), "id");
        assert_eq!(nn.column(), "c");
        assert_eq!(fk.table(), "a");
        assert_eq!(fk.column(), "b_id");
    }

    #[test]
    fn uniqueness_implication() {
        let pk = Constraint::PrimaryKey {
            table: "t".into(),
            column: "id".into(),
        };
        let nn = Constraint::NotNull {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(pk.implies_unique());
        assert!(!nn.implies_unique());
    }

    #[test]
    fn display_forms() {
        let fk = Constraint::ForeignKey(ForeignKey::new(
            "dbref",
            "bioentry_id",
            "bioentry",
            "bioentry_id",
        ));
        assert_eq!(
            fk.to_string(),
            "FOREIGN KEY(dbref.bioentry_id -> bioentry.bioentry_id)"
        );
    }
}
