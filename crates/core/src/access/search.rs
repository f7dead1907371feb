//! Ranked full-text search over the integrated warehouse.
//!
//! "Search allows a full-text search on all stored data and a focused search
//! restricted to certain partitions of the data (only certain data sources,
//! only certain fields, etc.). Ranking algorithms order the search results
//! based on similarity of the result to the query." (Section 4.6) The paper
//! relies on commercial text extenders; here the `aladin-textmine` inverted
//! index plays that role.

use crate::error::AladinResult;
use crate::metadata::{ObjectRef, SourceStructure};
use crate::pipeline::Aladin;
use crate::secondary::TableOwners;
use aladin_relstore::Database;
use aladin_textmine::inverted::{InvertedIndex, SearchFilter, SearchHit};

/// A ranked search result resolved to a primary object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectHit {
    /// The matching object.
    pub object: ObjectRef,
    /// The field the match came from.
    pub field: String,
    /// Ranking score.
    pub score: f64,
}

/// The search index: an inverted index over every textual field of every
/// primary object (including its secondary annotation), built from one
/// generation of the warehouse.
///
/// Each [`crate::access::Warehouse`] builds one on first use and keeps it,
/// since the pipeline it reads cannot change; build one directly only when
/// managing caching yourself.
pub struct SearchIndex {
    index: InvertedIndex,
}

impl SearchIndex {
    /// Build the index over the current state of the warehouse.
    pub fn build(aladin: &Aladin) -> AladinResult<SearchIndex> {
        let mut index = SearchIndex::empty();
        for source in aladin.source_names() {
            let db = aladin.database(source)?;
            let Some(structure) = aladin.metadata().structure(source) else {
                continue;
            };
            index.add_source(source, db, structure, &mut TableOwners::new(db, structure));
        }
        Ok(index)
    }

    /// An index of no documents, to fill source by source.
    pub(crate) fn empty() -> SearchIndex {
        SearchIndex {
            index: InvertedIndex::new(),
        }
    }

    /// Index the non-numeric fields of every table of one source, each
    /// value attributed to the primary object that owns its row.
    pub(crate) fn add_source<'a>(
        &mut self,
        source: &str,
        db: &'a Database,
        structure: &SourceStructure,
        owners: &mut TableOwners<'a>,
    ) {
        for cs in &structure.column_stats {
            if cs.all_numeric || cs.non_null_count() == 0 {
                continue;
            }
            if cs.looks_like_sequence() {
                continue; // sequences are searched by homology, not text
            }
            let Ok(table) = db.table(&cs.table) else {
                continue;
            };
            let Ok(col) = table.column_index(&cs.column) else {
                continue;
            };
            let primary_table = structure
                .secondary(&cs.table)
                .map_or(cs.table.as_str(), |s| s.primary_table.as_str());
            for (row, owner) in table.rows().iter().zip(owners.of(table)) {
                let v = &row[col];
                if v.is_null() {
                    continue;
                }
                if let Some(owner) = owner {
                    let doc_id = format!("{source}\u{1}{primary_table}\u{1}{owner}");
                    self.index.add_document(
                        doc_id,
                        source,
                        format!("{}.{}", cs.table, cs.column),
                        &v.render(),
                    );
                }
            }
        }
    }

    /// Number of indexed documents (field values).
    pub fn document_count(&self) -> usize {
        self.index.doc_count()
    }

    /// Full-text search over all sources.
    pub fn search(&self, query: &str, top_k: usize) -> Vec<ObjectHit> {
        self.resolve(
            self.index
                .search(query, top_k.saturating_mul(3), &SearchFilter::any()),
            top_k,
        )
    }

    /// Focused search restricted to one source (horizontal partition).
    pub fn search_source(&self, query: &str, source: &str, top_k: usize) -> Vec<ObjectHit> {
        self.resolve(
            self.index.search(
                query,
                top_k.saturating_mul(3),
                &SearchFilter::source(source),
            ),
            top_k,
        )
    }

    /// Focused search restricted to one field (vertical partition), given as
    /// `table.column`.
    pub fn search_field(&self, query: &str, field: &str, top_k: usize) -> Vec<ObjectHit> {
        self.resolve(
            self.index
                .search(query, top_k.saturating_mul(3), &SearchFilter::field(field)),
            top_k,
        )
    }

    fn resolve(&self, hits: Vec<SearchHit>, top_k: usize) -> Vec<ObjectHit> {
        use std::collections::HashMap;
        // Aggregate per object: several fields of the same object may match;
        // sum their scores so richer matches rank higher.
        let mut per_object: HashMap<ObjectRef, (String, f64)> = HashMap::new();
        for hit in hits {
            let mut parts = hit.doc_id.split('\u{1}');
            let source = parts.next().unwrap_or_default();
            let table = parts.next().unwrap_or_default();
            let accession = parts.next().unwrap_or_default();
            if accession.is_empty() {
                continue;
            }
            let object = ObjectRef::new(source, table, accession);
            let entry = per_object.entry(object).or_insert((hit.field.clone(), 0.0));
            entry.1 += hit.score;
        }
        let mut out: Vec<ObjectHit> = per_object
            .into_iter()
            .map(|(object, (field, score))| ObjectHit {
                object,
                field,
                score,
            })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.object.cmp(&b.object))
        });
        out.truncate(top_k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AladinConfig;
    use aladin_relstore::{ColumnDef, Database, TableSchema, Value};

    fn warehouse() -> Aladin {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
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
                "protkb_kw",
                TableSchema::of(vec![
                    ColumnDef::int("kw_id"),
                    ColumnDef::int("entry_id"),
                    ColumnDef::text("value"),
                ]),
            )
            .unwrap();
        let entries = [
            ("P10001", "serine threonine kinase for cell signalling"),
            ("P10002", "glucose transporter of the membrane"),
            ("P10003", "uncharacterized protein with unknown function"),
        ];
        for (i, (acc, de)) in entries.iter().enumerate() {
            protkb
                .insert(
                    "protkb_entry",
                    vec![
                        Value::Int(i as i64 + 1),
                        Value::text(*acc),
                        Value::text(*de),
                    ],
                )
                .unwrap();
        }
        protkb
            .insert(
                "protkb_kw",
                vec![Value::Int(1), Value::Int(3), Value::text("Kinase")],
            )
            .unwrap();
        protkb
            .insert(
                "protkb_kw",
                vec![Value::Int(2), Value::Int(2), Value::text("Transport")],
            )
            .unwrap();
        aladin.add_database(protkb).unwrap();

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
                vec![
                    Value::text("1ABC"),
                    Value::text("crystal structure of a kinase domain"),
                ],
            )
            .unwrap();
        structdb
            .insert(
                "structures",
                vec![
                    Value::text("2DEF"),
                    Value::text("solution structure of a transporter"),
                ],
            )
            .unwrap();
        aladin.add_database(structdb).unwrap();
        aladin
    }

    #[test]
    fn search_ranks_matching_objects_across_sources() {
        let aladin = warehouse();
        let engine = SearchIndex::build(&aladin).unwrap();
        assert!(engine.document_count() > 5);
        let hits = engine.search("kinase", 10);
        assert!(hits.len() >= 2);
        let accessions: Vec<&str> = hits.iter().map(|h| h.object.accession.as_str()).collect();
        assert!(accessions.contains(&"P10001"));
        assert!(accessions.contains(&"1ABC"));
        // The keyword row of P10003 also mentions Kinase.
        assert!(accessions.contains(&"P10003"));
        // A top_k whose candidate count (3 × top_k) overflows usize still
        // returns every hit, in every partition.
        let huge = usize::MAX / 3 + 1;
        assert_eq!(engine.search("kinase", huge), hits);
        assert_eq!(
            engine.search_source("kinase", "structdb", huge),
            engine.search_source("kinase", "structdb", 10)
        );
        assert_eq!(
            engine.search_field("kinase", "protkb_kw.value", huge),
            engine.search_field("kinase", "protkb_kw.value", 10)
        );
    }

    #[test]
    fn source_partition_restricts_results() {
        let aladin = warehouse();
        let engine = SearchIndex::build(&aladin).unwrap();
        let hits = engine.search_source("kinase", "structdb", 10);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.object.source == "structdb"));
    }

    #[test]
    fn field_partition_restricts_results() {
        let aladin = warehouse();
        let engine = SearchIndex::build(&aladin).unwrap();
        let hits = engine.search_field("kinase", "protkb_kw.value", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].object.accession, "P10003");
    }

    #[test]
    fn objects_with_multiple_matching_fields_rank_higher() {
        let aladin = warehouse();
        let engine = SearchIndex::build(&aladin).unwrap();
        let hits = engine.search("transporter transport glucose membrane", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].object.accession, "P10002");
    }

    #[test]
    fn no_match_returns_empty() {
        let aladin = warehouse();
        let engine = SearchIndex::build(&aladin).unwrap();
        assert!(engine.search("zebrafish telomerase", 5).is_empty());
    }
}
