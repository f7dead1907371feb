//! An SRS-like baseline: manually specified structure and link fields, then
//! indexing and link-following — no discovery.
//!
//! "In SRS all structures and links need to be explicitly specified and no
//! automatic integration takes place." (paper, Sections 2 and 6.1) The
//! specification below plays the role of the Icarus parser: for every source
//! the operator declares the primary table, its accession field, the text
//! fields to index and the fields that contain cross-references together with
//! the source they point into.

use crate::cost::HumanEffort;
use aladin_core::metadata::{Link, LinkKind, ObjectRef};
use aladin_relstore::Database;
use aladin_textmine::inverted::{InvertedIndex, SearchFilter};
use std::collections::HashMap;

/// Manual specification of one source (the Icarus-parser equivalent).
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Source name.
    pub source: String,
    /// The table holding the primary objects.
    pub primary_table: String,
    /// The accession field of the primary table.
    pub accession_field: String,
    /// Text fields to index, as `(table, column)`; rows must be joinable to
    /// the primary table by the declared `(table, join_column)` equal to the
    /// primary table's `primary_join_column`.
    pub indexed_fields: Vec<(String, String)>,
    /// Cross-reference fields: `(table, column, target source)`.
    pub link_fields: Vec<(String, String, String)>,
    /// Join column shared by the primary table and its annotation tables
    /// (e.g. `entry_id`); empty when all indexed/link fields live in the
    /// primary table itself.
    pub join_column: String,
}

impl SourceSpec {
    /// The number of hand-declared schema elements in this specification.
    fn declared_elements(&self) -> usize {
        // primary table + accession field + join column (if any) + each
        // indexed field + each link field (field and target count as one
        // declaration each).
        2 + usize::from(!self.join_column.is_empty())
            + self.indexed_fields.len()
            + 2 * self.link_fields.len()
    }
}

/// The SRS-like integrated system: per-source indexes plus declared links.
pub struct SrsSystem {
    specs: Vec<SourceSpec>,
    index: InvertedIndex,
    links: Vec<Link>,
    effort: HumanEffort,
}

impl SrsSystem {
    /// Build the system from the imported databases and their hand-written
    /// specifications. Sources without a specification are ignored — exactly
    /// the SRS failure mode ALADIN removes.
    pub fn build(databases: &[Database], specs: Vec<SourceSpec>) -> SrsSystem {
        let mut index = InvertedIndex::new();
        let mut links = Vec::new();
        let mut effort = HumanEffort::default();
        let by_name: HashMap<&str, &Database> =
            databases.iter().map(|db| (db.name(), db)).collect();

        // Accession lookup per source (for link resolution).
        let mut accession_sets: HashMap<String, HashMap<String, ObjectRef>> = HashMap::new();
        for spec in &specs {
            effort.parsers_written += 1;
            effort.schema_elements_declared += spec.declared_elements();
            let db = match by_name.get(spec.source.as_str()) {
                Some(db) => db,
                None => continue,
            };
            let mut map = HashMap::new();
            if let Ok(table) = db.table(&spec.primary_table) {
                if let Ok(idx) = table.column_index(&spec.accession_field) {
                    for row in table.rows() {
                        let v = &row[idx];
                        if !v.is_null() {
                            map.insert(
                                v.render(),
                                ObjectRef::new(
                                    spec.source.clone(),
                                    spec.primary_table.clone(),
                                    v.render(),
                                ),
                            );
                        }
                    }
                }
            }
            accession_sets.insert(spec.source.clone(), map);
        }

        for spec in &specs {
            let db = match by_name.get(spec.source.as_str()) {
                Some(db) => db,
                None => continue,
            };
            // Build a row → accession map for the primary table join column.
            let owner_of = |table_name: &str, row_idx: usize| -> Option<String> {
                let primary = db.table(&spec.primary_table).ok()?;
                let acc_idx = primary.column_index(&spec.accession_field).ok()?;
                if table_name.eq_ignore_ascii_case(&spec.primary_table) {
                    return Some(primary.rows()[row_idx][acc_idx].render());
                }
                if spec.join_column.is_empty() {
                    return None;
                }
                let annotation = db.table(table_name).ok()?;
                let join_idx = annotation.column_index(&spec.join_column).ok()?;
                let join_value = &annotation.rows()[row_idx][join_idx];
                if join_value.is_null() {
                    return None;
                }
                let primary_join_idx = primary.column_index(&spec.join_column).ok()?;
                let pos = primary
                    .rows()
                    .iter()
                    .position(|r| &r[primary_join_idx] == join_value)?;
                Some(primary.rows()[pos][acc_idx].render())
            };

            // Index the declared text fields.
            for (table_name, column) in &spec.indexed_fields {
                if let Ok(table) = db.table(table_name) {
                    if let Ok(col) = table.column_index(column) {
                        for (row_idx, row) in table.rows().iter().enumerate() {
                            let v = &row[col];
                            if v.is_null() {
                                continue;
                            }
                            if let Some(owner) = owner_of(table_name, row_idx) {
                                index.add_document(
                                    format!(
                                        "{}\u{1}{}\u{1}{}",
                                        spec.source, spec.primary_table, owner
                                    ),
                                    spec.source.clone(),
                                    format!("{table_name}.{column}"),
                                    &v.render(),
                                );
                            }
                        }
                    }
                }
            }

            // Resolve the declared link fields.
            for (table_name, column, target_source) in &spec.link_fields {
                let target_accessions = match accession_sets.get(target_source) {
                    Some(a) => a,
                    None => continue,
                };
                if let Ok(table) = db.table(table_name) {
                    if let Ok(col) = table.column_index(column) {
                        for (row_idx, row) in table.rows().iter().enumerate() {
                            let v = &row[col];
                            if v.is_null() {
                                continue;
                            }
                            // SRS matches the declared field against the
                            // declared target accessions, including the
                            // "DB; ACC" composite forms.
                            let rendered = v.render();
                            let token = rendered
                                .rsplit([';', ':', ' '])
                                .next()
                                .unwrap_or(&rendered)
                                .trim()
                                .to_string();
                            let target = target_accessions
                                .get(&rendered)
                                .or_else(|| target_accessions.get(&token));
                            if let (Some(target), Some(owner)) =
                                (target, owner_of(table_name, row_idx))
                            {
                                links.push(Link {
                                    from: ObjectRef::new(
                                        spec.source.clone(),
                                        spec.primary_table.clone(),
                                        owner,
                                    ),
                                    to: target.clone(),
                                    kind: LinkKind::ExplicitCrossRef,
                                    score: 1.0,
                                    evidence: format!("declared field {table_name}.{column}"),
                                });
                            }
                        }
                    }
                }
            }
        }

        SrsSystem {
            specs,
            index,
            links,
            effort,
        }
    }

    /// The declared specifications.
    pub fn specs(&self) -> &[SourceSpec] {
        &self.specs
    }

    /// All links resolved from declared link fields.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Human effort that was required.
    pub fn effort(&self) -> HumanEffort {
        self.effort
    }

    /// Full-text search over the declared indexed fields.
    pub fn search(&self, query: &str, top_k: usize) -> Vec<(ObjectRef, f64)> {
        self.index
            .search(query, top_k, &SearchFilter::any())
            .into_iter()
            .filter_map(|hit| {
                let mut parts = hit.doc_id.split('\u{1}');
                let source = parts.next()?;
                let table = parts.next()?;
                let accession = parts.next()?;
                Some((ObjectRef::new(source, table, accession), hit.score))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn corpus() -> Vec<Database> {
        let mut protkb = Database::new("protkb");
        protkb
            .create_table(
                "protkb_entry",
                TableSchema::of(vec![
                    ColumnDef::int("entry_id"),
                    ColumnDef::text("ac"),
                    ColumnDef::text("de"),
                ]),
            )
            .unwrap();
        protkb
            .create_table(
                "protkb_dr",
                TableSchema::of(vec![
                    ColumnDef::int("dr_id"),
                    ColumnDef::int("entry_id"),
                    ColumnDef::text("value"),
                ]),
            )
            .unwrap();
        for (i, de) in ["serine kinase", "sugar transporter"].iter().enumerate() {
            protkb
                .insert(
                    "protkb_entry",
                    vec![
                        Value::Int(i as i64 + 1),
                        Value::text(format!("P1000{}", i + 1)),
                        Value::text(*de),
                    ],
                )
                .unwrap();
        }
        protkb
            .insert(
                "protkb_dr",
                vec![Value::Int(1), Value::Int(1), Value::text("STRUCTDB; 1ABC")],
            )
            .unwrap();

        let mut structdb = Database::new("structdb");
        structdb
            .create_table(
                "structures",
                TableSchema::of(vec![
                    ColumnDef::text("structure_id"),
                    ColumnDef::text("title"),
                ]),
            )
            .unwrap();
        structdb
            .insert(
                "structures",
                vec![Value::text("1ABC"), Value::text("kinase structure")],
            )
            .unwrap();
        vec![protkb, structdb]
    }

    fn specs() -> Vec<SourceSpec> {
        vec![
            SourceSpec {
                source: "protkb".into(),
                primary_table: "protkb_entry".into(),
                accession_field: "ac".into(),
                indexed_fields: vec![("protkb_entry".into(), "de".into())],
                link_fields: vec![("protkb_dr".into(), "value".into(), "structdb".into())],
                join_column: "entry_id".into(),
            },
            SourceSpec {
                source: "structdb".into(),
                primary_table: "structures".into(),
                accession_field: "structure_id".into(),
                indexed_fields: vec![("structures".into(), "title".into())],
                link_fields: vec![],
                join_column: String::new(),
            },
        ]
    }

    #[test]
    fn declared_links_are_resolved() {
        let dbs = corpus();
        let srs = SrsSystem::build(&dbs, specs());
        assert_eq!(srs.links().len(), 1);
        assert_eq!(srs.links()[0].from.accession, "P10001");
        assert_eq!(srs.links()[0].to.accession, "1ABC");
        assert_eq!(srs.specs().len(), 2);
    }

    #[test]
    fn effort_counts_declared_artifacts() {
        let dbs = corpus();
        let srs = SrsSystem::build(&dbs, specs());
        let effort = srs.effort();
        assert_eq!(effort.parsers_written, 2);
        assert!(effort.schema_elements_declared >= 8);
        assert_eq!(effort.curation_actions, 0);
        assert!(effort.total() > 0);
    }

    #[test]
    fn search_covers_only_declared_fields() {
        let dbs = corpus();
        let srs = SrsSystem::build(&dbs, specs());
        let hits = srs.search("kinase", 10);
        assert_eq!(hits.len(), 2);
        // Keywords in undeclared fields are invisible; a query for the DR
        // value's text returns nothing.
        assert!(srs.search("STRUCTDB", 10).is_empty());
    }

    #[test]
    fn unspecified_sources_are_ignored() {
        let dbs = corpus();
        let srs = SrsSystem::build(&dbs, vec![specs().remove(1)]);
        assert!(srs.links().is_empty());
        assert_eq!(srs.effort().parsers_written, 1);
    }
}
