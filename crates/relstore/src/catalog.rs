//! The catalog: named tables plus the data dictionary.

use crate::constraint::{Constraint, ForeignKey};
use crate::error::{RelError, RelResult};
use crate::index::HashIndex;
use crate::schema::TableSchema;
use crate::stats::{profile_column, ColumnStats};
use crate::table::{Row, Table};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lazily built access paths over the catalog's tables: hash indexes and
/// column statistics, keyed by lowercase `(table, column)`. Entries are built
/// on first use behind a shared reference and dropped whenever the owning
/// table is mutably accessed, so a stale index can never be served.
#[derive(Debug, Default)]
struct AccessPaths {
    indexes: RwLock<HashMap<(String, String), Arc<HashIndex>>>,
    stats: RwLock<HashMap<(String, String), Arc<ColumnStats>>>,
}

/// Acquire a cache lock for reading, recovering from poisoning first. A
/// panic while the write guard was held may have left a half-built entry in
/// the map, so recovery discards the whole map — it only holds derived data
/// that rebuilds on demand — and clears the poison flag, instead of
/// cascading the original panic into every later access.
fn cache_read<K, V>(lock: &RwLock<HashMap<K, V>>) -> RwLockReadGuard<'_, HashMap<K, V>> {
    if lock.is_poisoned() {
        lock.clear_poison();
        lock.write().unwrap_or_else(PoisonError::into_inner).clear();
    }
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a cache lock for writing, with the same discard-and-clear
/// poisoning recovery as [`cache_read`].
fn cache_write<K, V>(lock: &RwLock<HashMap<K, V>>) -> RwLockWriteGuard<'_, HashMap<K, V>> {
    let poisoned = lock.is_poisoned();
    lock.clear_poison();
    let mut guard = lock.write().unwrap_or_else(PoisonError::into_inner);
    if poisoned {
        guard.clear();
    }
    guard
}

/// Exclusive access to a cache map through `&mut`, with the same
/// discard-and-clear poisoning recovery as [`cache_read`].
fn cache_get_mut<K, V>(lock: &mut RwLock<HashMap<K, V>>) -> &mut HashMap<K, V> {
    let poisoned = lock.is_poisoned();
    lock.clear_poison();
    let map = lock.get_mut().unwrap_or_else(PoisonError::into_inner);
    if poisoned {
        map.clear();
    }
    map
}

impl Clone for AccessPaths {
    fn clone(&self) -> AccessPaths {
        AccessPaths {
            indexes: RwLock::new(cache_read(&self.indexes).clone()),
            stats: RwLock::new(cache_read(&self.stats).clone()),
        }
    }
}

/// A database: an ordered collection of named tables and their declared
/// constraints (the *data dictionary*).
///
/// In the ALADIN architecture each imported data source becomes one such
/// database inside the warehouse; the warehouse itself is a collection of
/// `Database` values managed by `aladin-core`.
#[derive(Debug, Clone, Default)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
    constraints: Vec<Constraint>,
    access: AccessPaths,
}

impl Database {
    /// Create an empty database with the given name.
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            tables: BTreeMap::new(),
            constraints: Vec::new(),
            access: AccessPaths::default(),
        }
    }

    /// Database (data source) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::row_count).sum()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Create a table, rejecting duplicates (case-insensitive via key
    /// normalization to lowercase).
    pub fn create_table(&mut self, name: impl Into<String>, schema: TableSchema) -> RelResult<()> {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(RelError::AlreadyExists(format!("table '{name}'")));
        }
        self.tables.insert(key, Table::new(name, schema));
        Ok(())
    }

    /// Add an already-built table, rejecting duplicates.
    pub fn add_table(&mut self, table: Table) -> RelResult<()> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(RelError::AlreadyExists(format!("table '{}'", table.name())));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Remove a table and any constraints that mention it. Returns the table.
    pub fn drop_table(&mut self, name: &str) -> RelResult<Table> {
        self.invalidate_access_paths(name);
        let key = name.to_ascii_lowercase();
        let table = self
            .tables
            .remove(&key)
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))?;
        self.constraints.retain(|c| match c {
            Constraint::ForeignKey(fk) => {
                !fk.table.eq_ignore_ascii_case(name) && !fk.ref_table.eq_ignore_ascii_case(name)
            }
            other => !other.table().eq_ignore_ascii_case(name),
        });
        Ok(table)
    }

    /// Fetch a table by case-insensitive name.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Fetch a table mutably by case-insensitive name. Any cached access
    /// paths (hash indexes, column statistics) over the table are dropped:
    /// the caller may mutate rows through the returned reference.
    pub fn table_mut(&mut self, name: &str) -> RelResult<&mut Table> {
        self.invalidate_access_paths(name);
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Drop cached access paths for one table after a mutable access.
    fn invalidate_access_paths(&mut self, table: &str) {
        let key = table.to_ascii_lowercase();
        cache_get_mut(&mut self.access.indexes).retain(|(t, _), _| t != &key);
        cache_get_mut(&mut self.access.stats).retain(|(t, _), _| t != &key);
    }

    /// A shared hash index over `table.column`, built on first use and cached
    /// until the table is next mutably accessed. This is the access path the
    /// executor's `IndexScan` node probes; repeated point lookups amortize
    /// the single build scan to `O(1)` per query.
    pub fn hash_index(&self, table: &str, column: &str) -> RelResult<Arc<HashIndex>> {
        let t = self.table(table)?;
        let key = (table.to_ascii_lowercase(), column.to_ascii_lowercase());
        if let Some(idx) = cache_read(&self.access.indexes).get(&key) {
            return Ok(Arc::clone(idx));
        }
        let built = Arc::new(HashIndex::build(t, column)?);
        cache_write(&self.access.indexes).insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Shared column statistics for `table.column`, profiled on first use and
    /// cached until the table is next mutably accessed. The paper notes that
    /// "these statistics need to be computed only once for each data source
    /// and can then be reused"; the rule-based optimizer reuses them for
    /// cardinality estimates.
    pub fn column_stats(&self, table: &str, column: &str) -> RelResult<Arc<ColumnStats>> {
        let t = self.table(table)?;
        let key = (table.to_ascii_lowercase(), column.to_ascii_lowercase());
        if let Some(s) = cache_read(&self.access.stats).get(&key) {
            return Ok(Arc::clone(s));
        }
        let built = Arc::new(profile_column(t, column, 0)?);
        cache_write(&self.access.stats).insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Insert a row into the named table.
    pub fn insert(&mut self, table: &str, row: Row) -> RelResult<()> {
        self.table_mut(table)?.insert(row)
    }

    /// Insert many rows into the named table; returns the number inserted.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> RelResult<usize> {
        self.table_mut(table)?.insert_all(rows)
    }

    /// Declare a constraint. The referenced table(s) and column(s) must exist.
    /// Declaring the same constraint twice is a silent no-op (imports often
    /// replay dictionary dumps).
    pub fn add_constraint(&mut self, constraint: Constraint) -> RelResult<()> {
        self.validate_constraint(&constraint)?;
        if !self.constraints.contains(&constraint) {
            self.constraints.push(constraint);
        }
        Ok(())
    }

    fn validate_constraint(&self, constraint: &Constraint) -> RelResult<()> {
        let check = |table: &str, column: &str| -> RelResult<()> {
            let t = self.table(table)?;
            t.schema().require(column).map(|_| ())
        };
        match constraint {
            Constraint::Unique { table, column }
            | Constraint::PrimaryKey { table, column }
            | Constraint::NotNull { table, column } => check(table, column),
            Constraint::ForeignKey(fk) => {
                check(&fk.table, &fk.column)?;
                check(&fk.ref_table, &fk.ref_column)
            }
        }
    }

    /// All declared constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Declared foreign keys (referencing table, column, referenced table,
    /// column) across the whole database.
    pub fn foreign_keys(&self) -> Vec<&ForeignKey> {
        self.constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::ForeignKey(fk) => Some(fk),
                _ => None,
            })
            .collect()
    }

    /// Whether a column is declared unique (UNIQUE or PRIMARY KEY) in the data
    /// dictionary.
    pub fn is_declared_unique(&self, table: &str, column: &str) -> bool {
        self.constraints.iter().any(|c| {
            c.implies_unique()
                && c.table().eq_ignore_ascii_case(table)
                && c.column().eq_ignore_ascii_case(column)
        })
    }

    /// Verify the data against the declared constraints, returning a list of
    /// human-readable violations (empty = consistent). This powers tests and
    /// the importers' self-checks; it is intentionally a full scan.
    pub fn check_consistency(&self) -> RelResult<Vec<String>> {
        let mut violations = Vec::new();
        for c in &self.constraints {
            match c {
                Constraint::Unique { table, column } | Constraint::PrimaryKey { table, column } => {
                    let t = self.table(table)?;
                    if !t.is_empty() && !t.column_is_unique(column)? {
                        violations.push(format!("{c} violated: duplicate values"));
                    }
                    if matches!(c, Constraint::PrimaryKey { .. }) {
                        let idx = t.column_index(column)?;
                        if t.rows().iter().any(|r| r[idx].is_null()) {
                            violations.push(format!("{c} violated: NULL key"));
                        }
                    }
                }
                Constraint::NotNull { table, column } => {
                    let t = self.table(table)?;
                    let idx = t.column_index(column)?;
                    if t.rows().iter().any(|r| r[idx].is_null()) {
                        violations.push(format!("{c} violated: NULL value"));
                    }
                }
                Constraint::ForeignKey(fk) => {
                    let child = self.table(&fk.table)?;
                    let parent = self.table(&fk.ref_table)?;
                    let parent_vals = parent.distinct_values(&fk.ref_column)?;
                    let idx = child.column_index(&fk.column)?;
                    for row in child.rows() {
                        let v = &row[idx];
                        if !v.is_null() && !parent_vals.contains(v) {
                            violations.push(format!("{c} violated: dangling value '{v}'"));
                            break;
                        }
                    }
                }
            }
        }
        Ok(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new("biosql");
        db.create_table(
            "bioentry",
            TableSchema::of(vec![
                ColumnDef::int("bioentry_id"),
                ColumnDef::text("accession"),
            ]),
        )
        .unwrap();
        db.create_table(
            "dbref",
            TableSchema::of(vec![
                ColumnDef::int("dbref_id"),
                ColumnDef::int("bioentry_id"),
                ColumnDef::text("accession"),
            ]),
        )
        .unwrap();
        db.insert("bioentry", vec![Value::Int(1), Value::text("P12345")])
            .unwrap();
        db.insert("bioentry", vec![Value::Int(2), Value::text("P67890")])
            .unwrap();
        db.insert(
            "dbref",
            vec![Value::Int(10), Value::Int(1), Value::text("PDB:1ABC")],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let db = db();
        assert!(db.table("BIOENTRY").is_ok());
        assert!(db.table("BioEntry").is_ok());
        assert!(matches!(
            db.table("missing"),
            Err(RelError::UnknownTable(_))
        ));
        assert_eq!(db.table_count(), 2);
        assert_eq!(db.total_rows(), 3);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let err = db
            .create_table("BioEntry", TableSchema::of(vec![ColumnDef::int("x")]))
            .unwrap_err();
        assert!(matches!(err, RelError::AlreadyExists(_)));
    }

    #[test]
    fn constraints_validated_against_schema() {
        let mut db = db();
        assert!(db
            .add_constraint(Constraint::PrimaryKey {
                table: "bioentry".into(),
                column: "bioentry_id".into()
            })
            .is_ok());
        assert!(db
            .add_constraint(Constraint::Unique {
                table: "bioentry".into(),
                column: "no_such".into()
            })
            .is_err());
        assert!(db
            .add_constraint(Constraint::ForeignKey(ForeignKey::new(
                "dbref",
                "bioentry_id",
                "bioentry",
                "bioentry_id"
            )))
            .is_ok());
        assert_eq!(db.foreign_keys().len(), 1);
        assert!(db.is_declared_unique("bioentry", "bioentry_id"));
        assert!(!db.is_declared_unique("dbref", "accession"));
    }

    #[test]
    fn duplicate_constraint_is_noop() {
        let mut db = db();
        let c = Constraint::Unique {
            table: "bioentry".into(),
            column: "accession".into(),
        };
        db.add_constraint(c.clone()).unwrap();
        db.add_constraint(c).unwrap();
        assert_eq!(db.constraints().len(), 1);
    }

    #[test]
    fn consistency_check_detects_violations() {
        let mut db = db();
        db.add_constraint(Constraint::PrimaryKey {
            table: "bioentry".into(),
            column: "bioentry_id".into(),
        })
        .unwrap();
        db.add_constraint(Constraint::ForeignKey(ForeignKey::new(
            "dbref",
            "bioentry_id",
            "bioentry",
            "bioentry_id",
        )))
        .unwrap();
        assert!(db.check_consistency().unwrap().is_empty());

        db.insert("bioentry", vec![Value::Int(1), Value::text("DUP")])
            .unwrap();
        db.insert(
            "dbref",
            vec![Value::Int(11), Value::Int(99), Value::text("X")],
        )
        .unwrap();
        let violations = db.check_consistency().unwrap();
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("duplicate")));
        assert!(violations.iter().any(|v| v.contains("dangling")));
    }

    #[test]
    fn drop_table_removes_constraints() {
        let mut db = db();
        db.add_constraint(Constraint::ForeignKey(ForeignKey::new(
            "dbref",
            "bioentry_id",
            "bioentry",
            "bioentry_id",
        )))
        .unwrap();
        db.drop_table("bioentry").unwrap();
        assert!(db.constraints().is_empty());
        assert!(db.table("bioentry").is_err());
        assert!(db.drop_table("bioentry").is_err());
    }

    #[test]
    fn hash_index_is_cached_and_invalidated_on_mutation() {
        let mut db = db();
        let idx = db.hash_index("bioentry", "accession").unwrap();
        assert_eq!(idx.lookup("P12345"), &[0]);
        // Cached: the same Arc is returned.
        let again = db.hash_index("BIOENTRY", "ACCESSION").unwrap();
        assert!(Arc::ptr_eq(&idx, &again));
        // Mutation drops the cache; the rebuilt index sees the new row.
        db.insert("bioentry", vec![Value::Int(3), Value::text("P99999")])
            .unwrap();
        let rebuilt = db.hash_index("bioentry", "accession").unwrap();
        assert!(!Arc::ptr_eq(&idx, &rebuilt));
        assert_eq!(rebuilt.lookup("P99999"), &[2]);
        // Unknown tables and columns are reported.
        assert!(db.hash_index("missing", "accession").is_err());
        assert!(db.hash_index("bioentry", "missing").is_err());
    }

    #[test]
    fn column_stats_are_cached_and_invalidated_on_mutation() {
        let mut db = db();
        let s = db.column_stats("bioentry", "accession").unwrap();
        assert_eq!(s.row_count, 2);
        let again = db.column_stats("bioentry", "accession").unwrap();
        assert!(Arc::ptr_eq(&s, &again));
        db.insert("bioentry", vec![Value::Int(3), Value::text("P99999")])
            .unwrap();
        assert_eq!(
            db.column_stats("bioentry", "accession").unwrap().row_count,
            3
        );
        // Mutating one table leaves other tables' caches intact.
        let dbref_stats = db.column_stats("dbref", "accession").unwrap();
        db.insert("bioentry", vec![Value::Int(4), Value::text("Q00000")])
            .unwrap();
        let dbref_again = db.column_stats("dbref", "accession").unwrap();
        assert!(Arc::ptr_eq(&dbref_stats, &dbref_again));
    }

    /// Poison a cache lock the way a real failure would: a thread panics
    /// while it holds the write guard, mid-way through populating the map.
    fn poison_mid_construction<K, V>(lock: &RwLock<HashMap<K, V>>, key: K, value: V)
    where
        K: Send + Sync + std::hash::Hash + Eq,
        V: Send + Sync,
    {
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let mut guard = lock.write().unwrap();
                guard.insert(key, value);
                panic!("injected: panic while the cache write guard is held");
            })
            .join()
        });
        assert!(joined.is_err());
        assert!(lock.is_poisoned());
    }

    #[test]
    fn poisoned_index_cache_is_discarded_and_rebuilt() {
        let db = db();
        let before = db.hash_index("bioentry", "accession").unwrap();
        let half_built =
            Arc::new(HashIndex::build(db.table("dbref").unwrap(), "accession").unwrap());
        poison_mid_construction(
            &db.access.indexes,
            ("dbref".to_string(), "accession".to_string()),
            half_built,
        );
        // Recovery discards the whole suspect map — including the entry the
        // panicking builder left behind — and rebuilds on demand.
        let rebuilt = db.hash_index("bioentry", "accession").unwrap();
        assert!(!Arc::ptr_eq(&before, &rebuilt));
        assert_eq!(rebuilt.lookup("P12345"), &[0]);
        assert!(!db.access.indexes.is_poisoned());
        // Subsequent lookups cache normally again.
        let again = db.hash_index("bioentry", "accession").unwrap();
        assert!(Arc::ptr_eq(&rebuilt, &again));
    }

    #[test]
    fn poisoned_stats_cache_is_discarded_and_rebuilt() {
        let db = db();
        let before = db.column_stats("bioentry", "accession").unwrap();
        let half_built =
            Arc::new(profile_column(db.table("dbref").unwrap(), "accession", 0).unwrap());
        poison_mid_construction(
            &db.access.stats,
            ("dbref".to_string(), "accession".to_string()),
            half_built,
        );
        let rebuilt = db.column_stats("bioentry", "accession").unwrap();
        assert!(!Arc::ptr_eq(&before, &rebuilt));
        assert_eq!(rebuilt.row_count, 2);
        assert!(!db.access.stats.is_poisoned());
    }

    #[test]
    fn poisoned_caches_survive_clone_and_mutation() {
        let mut db = db();
        db.hash_index("bioentry", "accession").unwrap();
        let half_built =
            Arc::new(HashIndex::build(db.table("dbref").unwrap(), "accession").unwrap());
        poison_mid_construction(
            &db.access.indexes,
            ("dbref".to_string(), "accession".to_string()),
            half_built,
        );
        // Clone starts from an empty (recovered) cache, not a suspect one.
        let cloned = db.clone();
        assert!(!cloned.access.indexes.is_poisoned());
        assert_eq!(
            cloned
                .hash_index("bioentry", "accession")
                .unwrap()
                .lookup("P67890"),
            &[1]
        );
        // And `&mut` invalidation paths recover instead of panicking.
        db.insert("bioentry", vec![Value::Int(3), Value::text("P99999")])
            .unwrap();
        assert_eq!(
            db.hash_index("bioentry", "accession")
                .unwrap()
                .lookup("P99999"),
            &[2]
        );
    }
}
