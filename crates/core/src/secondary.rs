//! Discovery of secondary relations: the annotation of primary objects.
//!
//! "We compute the path(s) from the primary relation to each of the other
//! relations of the data source using transitivity of relationships, ignoring
//! direction and cardinality." (Section 4.3) The paths are stored in the
//! metadata repository and later used to join together the information
//! presented as belonging to an object, and to resolve which primary object
//! "owns" a row of an annotation table during link discovery.

use crate::error::{AladinError, AladinResult};
use crate::metadata::{PrimaryRelation, SecondaryRelation, SourceStructure};
use aladin_relstore::{Database, Table, Value};
use aladin_schema_match::ind::InclusionDependency;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Compute the secondary relations of a source: for every non-primary table,
/// the shortest path (ignoring direction) from the closest primary relation.
///
/// Tables not connected to any primary relation are reported with an empty
/// path — the paper notes such unconnected partitions would mean a source
/// stores unrelated data sets, "a situation we have yet to encounter", but the
/// pipeline must tolerate it.
pub fn discover_secondary_relations(
    db: &Database,
    primaries: &[PrimaryRelation],
    relationships: &[InclusionDependency],
) -> Vec<SecondaryRelation> {
    // Undirected adjacency over tables.
    let mut adjacency: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for r in relationships {
        let s = r.source_table.to_ascii_lowercase();
        let t = r.target_table.to_ascii_lowercase();
        adjacency.entry(s.clone()).or_default().push(t.clone());
        adjacency.entry(t).or_default().push(s);
    }

    // Multi-source BFS from all primary tables at once; each table is owned by
    // the primary that reaches it first.
    let mut paths: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    let mut queue: VecDeque<(String, String, Vec<String>)> = VecDeque::new();
    for p in primaries {
        let key = p.table.to_ascii_lowercase();
        paths.insert(key.clone(), (p.table.clone(), vec![p.table.clone()]));
        queue.push_back((key.clone(), p.table.clone(), vec![p.table.clone()]));
    }
    while let Some((current, primary, path)) = queue.pop_front() {
        if let Some(neighbours) = adjacency.get(&current) {
            for n in neighbours {
                if paths.contains_key(n) {
                    continue;
                }
                // Recover the original-case table name from the database if
                // possible; fall back to the lowercase key.
                let display = db
                    .table(n)
                    .map(|t| t.name().to_string())
                    .unwrap_or_else(|_| n.clone());
                let mut new_path = path.clone();
                new_path.push(display);
                paths.insert(n.clone(), (primary.clone(), new_path.clone()));
                queue.push_back((n.clone(), primary.clone(), new_path));
            }
        }
    }

    let default_primary = primaries
        .first()
        .map(|p| p.table.clone())
        .unwrap_or_default();
    db.tables()
        .filter(|t| {
            !primaries
                .iter()
                .any(|p| p.table.eq_ignore_ascii_case(t.name()))
        })
        .map(|t| {
            let key = t.name().to_ascii_lowercase();
            match paths.get(&key) {
                Some((primary, path)) => SecondaryRelation {
                    table: t.name().to_string(),
                    primary_table: primary.clone(),
                    path: path.clone(),
                },
                None => SecondaryRelation {
                    table: t.name().to_string(),
                    primary_table: default_primary.clone(),
                    path: Vec::new(),
                },
            }
        })
        .collect()
}

/// Resolve, for every row of `table`, the accession of the primary object that
/// owns the row — by walking the discovered path from the table back to its
/// primary relation, following one relationship per step.
///
/// Rows whose chain breaks (missing relationship, dangling value, NULL key)
/// resolve to `None`.
pub fn owner_accessions(
    db: &Database,
    primaries: &[PrimaryRelation],
    secondaries: &[SecondaryRelation],
    relationships: &[InclusionDependency],
    table: &str,
) -> AladinResult<Vec<Option<String>>> {
    // Primary table: read the accession column directly.
    if let Some(p) = primaries
        .iter()
        .find(|p| p.table.eq_ignore_ascii_case(table))
    {
        let t = db.table(table)?;
        let idx = t.column_index(&p.accession_column)?;
        return Ok(t
            .rows()
            .iter()
            .map(|r| {
                let v = &r[idx];
                if v.is_null() {
                    None
                } else {
                    Some(v.render())
                }
            })
            .collect());
    }

    let secondary = secondaries
        .iter()
        .find(|s| s.table.eq_ignore_ascii_case(table))
        .ok_or_else(|| AladinError::Discovery(format!("table '{table}' has no discovered path")))?;
    if secondary.path.len() < 2 {
        // Unconnected table: no owners.
        let t = db.table(table)?;
        return Ok(vec![None; t.row_count()]);
    }
    let primary = primaries
        .iter()
        .find(|p| p.table.eq_ignore_ascii_case(&secondary.primary_table))
        .ok_or_else(|| {
            AladinError::Discovery(format!(
                "primary relation '{}' not found",
                secondary.primary_table
            ))
        })?;

    // Walk from the table back towards the primary: path is
    // [primary, ..., table]; we iterate pairs from the end.
    let path = &secondary.path;
    let t = db.table(table)?;
    // current mapping: row index of `table` -> key value to look up in the
    // next table towards the primary, expressed as a rendered string.
    // Initialize with the join value for the (parent, table) step.
    let mut current: Vec<Option<String>> = vec![None; t.row_count()];
    let mut initialized = false;

    // Process steps: (path[i], path[i+1]) walking i from len-2 down to 0, i.e.
    // from `table` towards the primary relation.
    for i in (0..path.len() - 1).rev() {
        let parent = &path[i];
        let child = &path[i + 1];
        let rel = find_relationship(relationships, parent, child).ok_or_else(|| {
            AladinError::Discovery(format!(
                "no relationship between '{parent}' and '{child}' on the discovered path"
            ))
        })?;
        // Determine join columns: child side and parent side.
        let (child_col, parent_col) = if rel.source_table.eq_ignore_ascii_case(child) {
            (rel.source_column.clone(), rel.target_column.clone())
        } else {
            (rel.target_column.clone(), rel.source_column.clone())
        };

        if !initialized {
            // First step: read the child-side join value of each row of
            // `table`. On later steps `current` already holds the child-side
            // values for this step, because the previous iteration emitted the
            // join-column values of this step's child.
            let child_table = db.table(child)?;
            let idx = child_table.column_index(&child_col)?;
            current = child_table
                .rows()
                .iter()
                .map(|r| {
                    let v: &Value = &r[idx];
                    if v.is_null() {
                        None
                    } else {
                        Some(v.render())
                    }
                })
                .collect();
            initialized = true;
        }

        // Translate child-side values to the parent: find the parent row whose
        // `parent_col` equals the value, then emit either its accession (last
        // step) or its join value for the next step towards the primary.
        let parent_table = db.table(parent)?;
        let parent_idx = parent_table.column_index(&parent_col)?;
        // Build lookup: rendered parent_col value -> parent row index (first).
        let mut lookup: HashMap<String, usize> = HashMap::with_capacity(parent_table.row_count());
        for (ri, row) in parent_table.rows().iter().enumerate() {
            let v = &row[parent_idx];
            if !v.is_null() {
                lookup.entry(v.render()).or_insert(ri);
            }
        }
        let is_last_step = i == 0;
        let next_values: Vec<Option<String>> = current
            .iter()
            .map(|maybe_value| {
                let value = maybe_value.as_ref()?;
                let parent_row = *lookup.get(value)?;
                if is_last_step {
                    // Parent is the primary relation: emit its accession.
                    let acc_idx = parent_table.column_index(&primary.accession_column).ok()?;
                    let acc = &parent_table.rows()[parent_row][acc_idx];
                    if acc.is_null() {
                        None
                    } else {
                        Some(acc.render())
                    }
                } else {
                    // Parent is an intermediate table: emit the value of the
                    // column that joins `parent` to *its* parent so the next
                    // iteration can continue the walk.
                    let grand_parent = &path[i - 1];
                    let rel_up = find_relationship(relationships, grand_parent, parent)?;
                    let parent_side_col = if rel_up.source_table.eq_ignore_ascii_case(parent) {
                        &rel_up.source_column
                    } else {
                        &rel_up.target_column
                    };
                    let col_idx = parent_table.column_index(parent_side_col).ok()?;
                    let v = &parent_table.rows()[parent_row][col_idx];
                    if v.is_null() {
                        None
                    } else {
                        Some(v.render())
                    }
                }
            })
            .collect();
        current = next_values;
    }

    Ok(current)
}

/// The owner vectors ([`owner_accessions`]) of one source's tables, each
/// derived on first request and kept, so the warehouse's access caches
/// derive each table's once however many indexes read it. A table whose
/// owners cannot be resolved owns none of its rows.
pub(crate) struct TableOwners<'a> {
    db: &'a Database,
    structure: &'a SourceStructure,
    /// Keyed on the table's own name: every spelling of it resolves to the
    /// same table and the same owners.
    by_table: HashMap<&'a str, Vec<Option<String>>>,
}

impl<'a> TableOwners<'a> {
    pub(crate) fn new(db: &'a Database, structure: &'a SourceStructure) -> TableOwners<'a> {
        TableOwners {
            db,
            structure,
            by_table: HashMap::new(),
        }
    }

    /// The owner of every row of `table`.
    pub(crate) fn of(&mut self, table: &'a Table) -> &[Option<String>] {
        let (db, structure) = (self.db, self.structure);
        self.by_table
            .entry(table.name())
            .or_insert_with(|| derive_owners(db, structure, table))
    }

    /// Take the owner vector of `table` out, deriving it if nothing asked
    /// for it yet, so its strings can move into an index.
    pub(crate) fn take(&mut self, table: &'a Table) -> Vec<Option<String>> {
        self.by_table
            .remove(table.name())
            .unwrap_or_else(|| derive_owners(self.db, self.structure, table))
    }
}

fn derive_owners(db: &Database, structure: &SourceStructure, table: &Table) -> Vec<Option<String>> {
    owner_accessions(
        db,
        &structure.primary_relations,
        &structure.secondary_relations,
        &structure.relationships,
        table.name(),
    )
    .unwrap_or_else(|_| vec![None; table.row_count()])
}

/// Pick the best relationship connecting `parent` and `child` when several
/// inclusion dependencies exist between the pair (surrogate integer keys make
/// spurious inclusions common). Preference order: declared constraints, the
/// child-references-parent direction, matching column names on both sides, and
/// 1:N cardinality — echoing the paper's observation that schema-element names
/// ("... containing the substring 'ID'") can disambiguate.
pub(crate) fn find_relationship<'a>(
    relationships: &'a [InclusionDependency],
    parent: &str,
    child: &str,
) -> Option<&'a InclusionDependency> {
    relationships
        .iter()
        .filter(|r| {
            (r.source_table.eq_ignore_ascii_case(parent)
                && r.target_table.eq_ignore_ascii_case(child))
                || (r.source_table.eq_ignore_ascii_case(child)
                    && r.target_table.eq_ignore_ascii_case(parent))
        })
        .max_by_key(|r| {
            let mut score = 0i32;
            if r.declared {
                score += 8;
            }
            if r.source_table.eq_ignore_ascii_case(child) {
                score += 4; // the annotation table references its owner
            }
            if r.source_column.eq_ignore_ascii_case(&r.target_column) {
                score += 2; // entry_id -> entry_id beats kw_id -> entry_id
            }
            if r.cardinality == aladin_schema_match::ind::Cardinality::OneToMany {
                score += 1;
            }
            score
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::PrimaryRelation;
    use aladin_relstore::{ColumnDef, TableSchema, Value};
    use aladin_schema_match::ind::Cardinality;

    fn ind(source: &str, source_col: &str, target: &str, target_col: &str) -> InclusionDependency {
        InclusionDependency {
            source_table: source.into(),
            source_column: source_col.into(),
            target_table: target.into(),
            target_column: target_col.into(),
            cardinality: Cardinality::OneToMany,
            declared: false,
        }
    }

    /// protkb_entry <- protkb_dr ; protkb_entry <- protkb_kw ; isolated table.
    fn db() -> Database {
        let mut db = Database::new("protkb");
        db.create_table(
            "protkb_entry",
            TableSchema::of(vec![ColumnDef::int("entry_id"), ColumnDef::text("ac")]),
        )
        .unwrap();
        db.create_table(
            "protkb_dr",
            TableSchema::of(vec![
                ColumnDef::int("dr_id"),
                ColumnDef::int("entry_id"),
                ColumnDef::text("value"),
            ]),
        )
        .unwrap();
        db.create_table("isolated", TableSchema::of(vec![ColumnDef::int("x")]))
            .unwrap();
        for i in 1..=3i64 {
            db.insert(
                "protkb_entry",
                vec![Value::Int(i), Value::text(format!("P1000{i}"))],
            )
            .unwrap();
        }
        for (id, entry, v) in [
            (1, 1, "STRUCTDB; 1ABC"),
            (2, 1, "GO:0001"),
            (3, 3, "STRUCTDB; 2DEF"),
        ] {
            db.insert(
                "protkb_dr",
                vec![Value::Int(id), Value::Int(entry), Value::text(v)],
            )
            .unwrap();
        }
        db.insert("isolated", vec![Value::Int(1)]).unwrap();
        db
    }

    fn primaries() -> Vec<PrimaryRelation> {
        vec![PrimaryRelation {
            table: "protkb_entry".into(),
            accession_column: "ac".into(),
            in_degree: 1,
        }]
    }

    fn rels() -> Vec<InclusionDependency> {
        vec![ind("protkb_dr", "entry_id", "protkb_entry", "entry_id")]
    }

    #[test]
    fn secondary_relations_get_paths_and_isolated_tables_empty_paths() {
        let db = db();
        let secondaries = discover_secondary_relations(&db, &primaries(), &rels());
        assert_eq!(secondaries.len(), 2);
        let dr = secondaries.iter().find(|s| s.table == "protkb_dr").unwrap();
        assert_eq!(dr.primary_table, "protkb_entry");
        assert_eq!(dr.path, vec!["protkb_entry", "protkb_dr"]);
        let isolated = secondaries.iter().find(|s| s.table == "isolated").unwrap();
        assert!(isolated.path.is_empty());
    }

    #[test]
    fn owner_resolution_on_primary_table_returns_accessions() {
        let db = db();
        let owners = owner_accessions(&db, &primaries(), &[], &rels(), "protkb_entry").unwrap();
        assert_eq!(
            owners,
            vec![
                Some("P10001".to_string()),
                Some("P10002".to_string()),
                Some("P10003".to_string())
            ]
        );
    }

    #[test]
    fn owner_resolution_follows_one_hop() {
        let db = db();
        let secondaries = discover_secondary_relations(&db, &primaries(), &rels());
        let owners =
            owner_accessions(&db, &primaries(), &secondaries, &rels(), "protkb_dr").unwrap();
        assert_eq!(
            owners,
            vec![
                Some("P10001".to_string()),
                Some("P10001".to_string()),
                Some("P10003".to_string())
            ]
        );
    }

    #[test]
    fn owner_resolution_follows_two_hops() {
        // entry <- feature <- feature_note
        let mut db = Database::new("x");
        db.create_table(
            "entry",
            TableSchema::of(vec![ColumnDef::int("entry_id"), ColumnDef::text("ac")]),
        )
        .unwrap();
        db.create_table(
            "feature",
            TableSchema::of(vec![
                ColumnDef::int("feature_id"),
                ColumnDef::int("entry_id"),
            ]),
        )
        .unwrap();
        db.create_table(
            "feature_note",
            TableSchema::of(vec![
                ColumnDef::int("note_id"),
                ColumnDef::int("feature_id"),
                ColumnDef::text("note"),
            ]),
        )
        .unwrap();
        db.insert("entry", vec![Value::Int(1), Value::text("ACC01")])
            .unwrap();
        db.insert("entry", vec![Value::Int(2), Value::text("ACC02")])
            .unwrap();
        db.insert("feature", vec![Value::Int(10), Value::Int(1)])
            .unwrap();
        db.insert("feature", vec![Value::Int(20), Value::Int(2)])
            .unwrap();
        db.insert(
            "feature_note",
            vec![Value::Int(100), Value::Int(20), Value::text("binding site")],
        )
        .unwrap();
        db.insert(
            "feature_note",
            vec![Value::Int(101), Value::Int(99), Value::text("dangling")],
        )
        .unwrap();

        let primaries = vec![PrimaryRelation {
            table: "entry".into(),
            accession_column: "ac".into(),
            in_degree: 1,
        }];
        let rels = vec![
            ind("feature", "entry_id", "entry", "entry_id"),
            ind("feature_note", "feature_id", "feature", "feature_id"),
        ];
        let secondaries = discover_secondary_relations(&db, &primaries, &rels);
        let note_path = secondaries
            .iter()
            .find(|s| s.table == "feature_note")
            .unwrap();
        assert_eq!(note_path.path, vec!["entry", "feature", "feature_note"]);

        let owners =
            owner_accessions(&db, &primaries, &secondaries, &rels, "feature_note").unwrap();
        assert_eq!(owners, vec![Some("ACC02".to_string()), None]);
    }

    #[test]
    fn unconnected_table_resolves_to_no_owners() {
        let db = db();
        let secondaries = discover_secondary_relations(&db, &primaries(), &rels());
        let owners =
            owner_accessions(&db, &primaries(), &secondaries, &rels(), "isolated").unwrap();
        assert_eq!(owners, vec![None]);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let db = db();
        assert!(owner_accessions(&db, &primaries(), &[], &rels(), "nope").is_err());
    }
}
