//! Hash indexes on single columns.
//!
//! ALADIN's access engine and explicit-link discovery repeatedly look up
//! accession values in the unique columns of primary relations of other
//! sources. A simple hash index over the rendered value avoids rescanning the
//! column for every probe and, by indexing the *rendered* form, bridges the
//! representation differences between parsers (integer vs. textual keys).

use crate::error::RelResult;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// A hash index mapping rendered column values to row positions.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    table: String,
    column: String,
    map: HashMap<String, Vec<usize>>,
}

impl HashIndex {
    /// Build an index over `table.column`. NULLs are not indexed.
    pub fn build(table: &Table, column: &str) -> RelResult<HashIndex> {
        let idx = table.column_index(column)?;
        let mut map: HashMap<String, Vec<usize>> = HashMap::with_capacity(table.row_count());
        for (pos, row) in table.rows().iter().enumerate() {
            let v = &row[idx];
            if v.is_null() {
                continue;
            }
            map.entry(v.render()).or_default().push(pos);
        }
        Ok(HashIndex {
            table: table.name().to_string(),
            column: column.to_string(),
            map,
        })
    }

    /// Indexed table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Indexed column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Row positions holding the given rendered value.
    pub fn lookup(&self, rendered: &str) -> &[usize] {
        self.map.get(rendered).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row positions holding a [`Value`], probing by its rendered form.
    /// Text values (the dominant accession case) and NULLs probe without
    /// allocating a fresh `String`; NULLs are never indexed, so they always
    /// miss. Probe loops should prefer this over `lookup(&v.render())`.
    pub fn lookup_value(&self, value: &Value) -> &[usize] {
        match value {
            Value::Null => &[],
            Value::Text(s) => self.lookup(s),
            other => self.lookup(&other.render()),
        }
    }

    /// Whether the value occurs at least once.
    pub fn contains(&self, rendered: &str) -> bool {
        self.map.contains_key(rendered)
    }

    /// Iterate over all keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::Value;

    fn table() -> Table {
        let schema = TableSchema::of(vec![ColumnDef::int("id"), ColumnDef::text("acc")]);
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Int(1), Value::text("P1")]).unwrap();
        t.insert(vec![Value::Int(2), Value::text("P2")]).unwrap();
        t.insert(vec![Value::Int(3), Value::text("P1")]).unwrap();
        t.insert(vec![Value::Int(4), Value::Null]).unwrap();
        t
    }

    #[test]
    fn lookup_returns_all_positions() {
        let t = table();
        let idx = HashIndex::build(&t, "acc").unwrap();
        assert_eq!(idx.lookup("P1"), &[0, 2]);
        assert_eq!(idx.lookup("P2"), &[1]);
        assert!(idx.lookup("missing").is_empty());
        assert!(idx.contains("P2"));
        assert_eq!(idx.table(), "t");
        assert_eq!(idx.column(), "acc");
    }

    #[test]
    fn nulls_are_not_indexed() {
        let t = table();
        let idx = HashIndex::build(&t, "acc").unwrap();
        assert!(!idx.contains(""));
    }

    #[test]
    fn lookup_value_probes_by_rendered_form() {
        let t = table();
        let acc = HashIndex::build(&t, "acc").unwrap();
        assert_eq!(acc.lookup_value(&Value::text("P1")), &[0, 2]);
        assert!(acc.lookup_value(&Value::Null).is_empty());
        let id = HashIndex::build(&t, "id").unwrap();
        assert_eq!(id.lookup_value(&Value::Int(3)), &[2]);
        assert_eq!(id.lookup_value(&Value::text("3")), &[2]);
    }

    #[test]
    fn integer_keys_are_indexed_by_rendered_form() {
        let t = table();
        let idx = HashIndex::build(&t, "id").unwrap();
        assert_eq!(idx.lookup("3"), &[2]);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        assert!(HashIndex::build(&t, "nope").is_err());
    }
}
