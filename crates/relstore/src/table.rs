//! Row-oriented table storage.

use crate::error::{RelError, RelResult};
use crate::schema::{ColumnDef, TableSchema};
use crate::value::Value;
use std::collections::HashSet;

/// A single row: values in schema column order.
pub type Row = Vec<Value>;

/// A named relational table: a schema plus rows.
///
/// Storage is row-oriented because the ALADIN discovery steps iterate whole
/// rows (imports, duplicate detection) about as often as whole columns
/// (uniqueness checks, value-set comparisons); column access is provided by
/// [`Table::column_values`].
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: TableSchema,
    rows: Vec<Row>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Create an empty table with pre-allocated row storage. Operators that
    /// know (a bound on) their output cardinality use this so inserting does
    /// not reallocate row by row.
    pub fn with_capacity(name: impl Into<String>, schema: TableSchema, rows: usize) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::with_capacity(rows),
        }
    }

    /// Reserve space for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// A single row by position.
    pub fn row(&self, idx: usize) -> Option<&Row> {
        self.rows.get(idx)
    }

    /// Append a row after checking arity and (loosely) column types. Values of
    /// the wrong type are accepted if the column type accepts them (e.g. Int
    /// into Float or anything into Text as its rendered form is meaningful),
    /// otherwise an error is returned.
    pub fn insert(&mut self, row: Row) -> RelResult<()> {
        if row.len() != self.schema.arity() {
            return Err(RelError::SchemaMismatch(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (idx, value) in row.iter().enumerate() {
            let col = self.schema.column_at(idx).expect("index within arity");
            if let Some(vt) = value.data_type() {
                if !col.data_type.accepts(vt) {
                    return Err(RelError::SchemaMismatch(format!(
                        "column '{}.{}' of type {} cannot store value '{}' of type {}",
                        self.name, col.name, col.data_type, value, vt
                    )));
                }
            } else if !col.nullable {
                return Err(RelError::ConstraintViolation(format!(
                    "column '{}.{}' is NOT NULL",
                    self.name, col.name
                )));
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Append many rows; stops at the first failing row and reports it.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> RelResult<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> RelResult<usize> {
        self.schema.require(name)
    }

    /// All values of a column, in row order.
    pub fn column_values(&self, name: &str) -> RelResult<Vec<&Value>> {
        let idx = self.column_index(name)?;
        Ok(self.rows.iter().map(|r| &r[idx]).collect())
    }

    /// The set of distinct non-null values of a column.
    pub fn distinct_values(&self, name: &str) -> RelResult<HashSet<Value>> {
        let idx = self.column_index(name)?;
        Ok(self
            .rows
            .iter()
            .map(|r| &r[idx])
            .filter(|v| !v.is_null())
            .cloned()
            .collect())
    }

    /// Whether all non-null values of the column are pairwise distinct and the
    /// column has at least one non-null value. This is the scan behind
    /// ALADIN's "detect unique attributes by issuing a SQL query for each
    /// attribute" step.
    pub fn column_is_unique(&self, name: &str) -> RelResult<bool> {
        let idx = self.column_index(name)?;
        let mut seen: HashSet<&Value> = HashSet::with_capacity(self.rows.len());
        let mut non_null = 0usize;
        for row in &self.rows {
            let v = &row[idx];
            if v.is_null() {
                continue;
            }
            non_null += 1;
            if !seen.insert(v) {
                return Ok(false);
            }
        }
        Ok(non_null > 0)
    }

    /// Retain only rows for which the predicate returns true.
    pub fn retain<F: FnMut(&Row) -> bool>(&mut self, f: F) {
        self.rows.retain(f);
    }

    /// Look up a cell by row index and column name.
    pub fn cell(&self, row_idx: usize, column: &str) -> RelResult<&Value> {
        let c = self.column_index(column)?;
        self.rows
            .get(row_idx)
            .map(|r| &r[c])
            .ok_or_else(|| RelError::Exec(format!("row {row_idx} out of range")))
    }

    /// An empty table with the same name and schema.
    pub fn empty_like(&self) -> Table {
        Table::new(self.name.clone(), self.schema.clone())
    }

    /// Add a column filled with NULLs to an existing table; returns the new
    /// column index.
    pub fn add_column(&mut self, col: ColumnDef) -> RelResult<usize> {
        let idx = self.schema.add_column(col)?;
        for row in &mut self.rows {
            row.push(Value::Null);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn bioentry() -> Table {
        let schema = TableSchema::of(vec![
            ColumnDef::int("bioentry_id"),
            ColumnDef::text("accession"),
            ColumnDef::text("description"),
        ]);
        let mut t = Table::new("bioentry", schema);
        t.insert(vec![
            Value::Int(1),
            Value::text("P12345"),
            Value::text("kinase"),
        ])
        .unwrap();
        t.insert(vec![
            Value::Int(2),
            Value::text("P67890"),
            Value::text("phosphatase"),
        ])
        .unwrap();
        t
    }

    #[test]
    fn insert_checks_arity() {
        let mut t = bioentry();
        let err = t.insert(vec![Value::Int(3)]).unwrap_err();
        assert!(matches!(err, RelError::SchemaMismatch(_)));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn insert_checks_types() {
        let schema = TableSchema::of(vec![ColumnDef::int("id")]);
        let mut t = Table::new("t", schema);
        assert!(t.insert(vec![Value::text("not a number")]).is_err());
        assert!(t.insert(vec![Value::Int(1)]).is_ok());
    }

    #[test]
    fn not_null_enforced() {
        let schema = TableSchema::of(vec![ColumnDef::not_null("id", DataType::Integer)]);
        let mut t = Table::new("t", schema);
        let err = t.insert(vec![Value::Null]).unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation(_)));
    }

    #[test]
    fn float_column_accepts_int() {
        let schema = TableSchema::of(vec![ColumnDef::float("score")]);
        let mut t = Table::new("t", schema);
        assert!(t.insert(vec![Value::Int(3)]).is_ok());
    }

    #[test]
    fn column_values_and_distinct() {
        let t = bioentry();
        let vals = t.column_values("accession").unwrap();
        assert_eq!(vals.len(), 2);
        let distinct = t.distinct_values("accession").unwrap();
        assert!(distinct.contains(&Value::text("P12345")));
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn uniqueness_detection() {
        let mut t = bioentry();
        assert!(t.column_is_unique("accession").unwrap());
        t.insert(vec![Value::Int(3), Value::text("P12345"), Value::Null])
            .unwrap();
        assert!(!t.column_is_unique("accession").unwrap());
    }

    #[test]
    fn uniqueness_requires_a_non_null_value() {
        let schema = TableSchema::of(vec![ColumnDef::text("maybe")]);
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Null]).unwrap();
        assert!(!t.column_is_unique("maybe").unwrap());
    }

    #[test]
    fn nulls_do_not_break_uniqueness() {
        let schema = TableSchema::of(vec![ColumnDef::text("acc")]);
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::text("X1")]).unwrap();
        assert!(t.column_is_unique("acc").unwrap());
    }

    #[test]
    fn find_first_and_cell() {
        let t = bioentry();
        let index = crate::index::HashIndex::build(&t, "accession").unwrap();
        assert_eq!(index.lookup("P67890").first(), Some(&1));
        assert_eq!(
            t.cell(1, "description").unwrap(),
            &Value::text("phosphatase")
        );
        assert!(t.cell(9, "description").is_err());
        assert!(t.cell(1, "nope").is_err());
    }

    #[test]
    fn add_column_backfills_null() {
        let mut t = bioentry();
        let idx = t.add_column(ColumnDef::text("taxon")).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(t.row(0).unwrap()[3], Value::Null);
        assert_eq!(t.schema().arity(), 4);
    }

    #[test]
    fn with_capacity_and_reserve_do_not_change_contents() {
        let schema = TableSchema::of(vec![ColumnDef::int("id")]);
        let mut t = Table::with_capacity("t", schema, 16);
        assert_eq!(t.row_count(), 0);
        t.insert(vec![Value::Int(1)]).unwrap();
        t.reserve(100);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn insert_all_counts_rows() {
        let mut t = bioentry().empty_like();
        let n = t
            .insert_all(vec![
                vec![Value::Int(1), Value::text("A1"), Value::Null],
                vec![Value::Int(2), Value::text("A2"), Value::Null],
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.row_count(), 2);
    }
}
