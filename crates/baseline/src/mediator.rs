//! A schema-focused (mediator-style) baseline: a global schema plus manually
//! written mappings from source attributes to global attributes.
//!
//! TAMBIS, OPM and DiscoveryLink "focus on schema information and do not make
//! use of data in any fashion" (paper, Section 6.1). The baseline models this:
//! queries against the global schema return whatever the hand-written mappings
//! expose; anything unmapped is invisible, and no object-level links or
//! duplicates exist at all.

use crate::cost::HumanEffort;
use aladin_relstore::{ColumnDef, DataType, Database, RelResult, Table, TableSchema, Value};

/// The global (mediated) schema: a flat list of concept attributes.
#[derive(Debug, Clone)]
pub struct GlobalSchema {
    /// Name of the global concept (e.g. "protein").
    pub concept: String,
    /// Global attribute names.
    pub attributes: Vec<String>,
}

/// One hand-written mapping: a source attribute feeding a global attribute.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Source (database) name.
    pub source: String,
    /// Source table.
    pub table: String,
    /// Source column.
    pub column: String,
    /// Global attribute it populates.
    pub global_attribute: String,
}

/// The mediator: global schema, mappings and the source databases.
pub struct Mediator<'a> {
    schema: GlobalSchema,
    mappings: Vec<Mapping>,
    databases: Vec<&'a Database>,
    effort: HumanEffort,
}

impl<'a> Mediator<'a> {
    /// Build a mediator over the given sources. The human effort records one
    /// declared schema element per global attribute and one mapping per
    /// mapping entry, plus one "wrapper" (parser) per *mapped* source.
    pub fn build(
        schema: GlobalSchema,
        mappings: Vec<Mapping>,
        databases: Vec<&'a Database>,
    ) -> Mediator<'a> {
        let mapped_sources: std::collections::HashSet<&str> =
            mappings.iter().map(|m| m.source.as_str()).collect();
        let effort = HumanEffort {
            parsers_written: mapped_sources.len(),
            schema_elements_declared: schema.attributes.len(),
            mappings_written: mappings.len(),
            curation_actions: 0,
        };
        Mediator {
            schema,
            mappings,
            databases,
            effort,
        }
    }

    /// The human effort required.
    pub fn effort(&self) -> HumanEffort {
        self.effort
    }

    /// The fraction of global attributes that have at least one mapping; a
    /// proxy for how much of the mediated schema is actually answerable.
    pub fn coverage(&self) -> f64 {
        if self.schema.attributes.is_empty() {
            return 0.0;
        }
        let covered = self
            .schema
            .attributes
            .iter()
            .filter(|a| self.mappings.iter().any(|m| &m.global_attribute == *a))
            .count();
        covered as f64 / self.schema.attributes.len() as f64
    }

    /// Answer a "SELECT `<global attributes>` FROM `<concept>`" query by unioning
    /// the mapped source attributes. Unmapped attributes come back as NULL —
    /// the mediator cannot guess.
    pub fn query_concept(&self, attributes: &[&str]) -> RelResult<Table> {
        let schema = TableSchema::new(
            std::iter::once(ColumnDef::text("source"))
                .chain(
                    attributes
                        .iter()
                        .map(|a| ColumnDef::new(*a, DataType::Text)),
                )
                .collect(),
        )?;
        let mut out = Table::new(self.schema.concept.clone(), schema);

        for db in &self.databases {
            // Group this source's mappings by table so one row per source row
            // is produced.
            let relevant: Vec<&Mapping> = self
                .mappings
                .iter()
                .filter(|m| {
                    m.source == db.name() && attributes.contains(&m.global_attribute.as_str())
                })
                .collect();
            if relevant.is_empty() {
                continue;
            }
            let tables: std::collections::HashSet<&str> =
                relevant.iter().map(|m| m.table.as_str()).collect();
            for table_name in tables {
                let table = match db.table(table_name) {
                    Ok(t) => t,
                    Err(_) => continue,
                };
                for row in table.rows() {
                    let mut out_row = vec![Value::text(db.name().to_string())];
                    for attr in attributes {
                        let mapping = relevant
                            .iter()
                            .find(|m| m.table == table_name && &m.global_attribute == attr);
                        let value = mapping
                            .and_then(|m| table.column_index(&m.column).ok())
                            .map(|idx| row[idx].clone())
                            .unwrap_or(Value::Null);
                        out_row.push(match value {
                            Value::Null => Value::Null,
                            v => Value::text(v.render()),
                        });
                    }
                    out.insert(out_row)?;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladin_relstore::{ColumnDef, TableSchema};

    fn dbs() -> (Database, Database) {
        let mut protkb = Database::new("protkb");
        protkb
            .create_table(
                "protkb_entry",
                TableSchema::of(vec![ColumnDef::text("ac"), ColumnDef::text("de")]),
            )
            .unwrap();
        protkb
            .insert(
                "protkb_entry",
                vec![Value::text("P10001"), Value::text("a kinase")],
            )
            .unwrap();
        let mut archive = Database::new("archive");
        archive
            .create_table(
                "archive_proteins",
                TableSchema::of(vec![ColumnDef::text("archive_id"), ColumnDef::text("note")]),
            )
            .unwrap();
        archive
            .insert(
                "archive_proteins",
                vec![Value::text("PA0001"), Value::text("probably a kinase")],
            )
            .unwrap();
        (protkb, archive)
    }

    fn schema() -> GlobalSchema {
        GlobalSchema {
            concept: "protein".into(),
            attributes: vec!["accession".into(), "description".into(), "sequence".into()],
        }
    }

    #[test]
    fn query_unions_mapped_sources() {
        let (protkb, archive) = dbs();
        let mappings = vec![
            Mapping {
                source: "protkb".into(),
                table: "protkb_entry".into(),
                column: "ac".into(),
                global_attribute: "accession".into(),
            },
            Mapping {
                source: "protkb".into(),
                table: "protkb_entry".into(),
                column: "de".into(),
                global_attribute: "description".into(),
            },
            Mapping {
                source: "archive".into(),
                table: "archive_proteins".into(),
                column: "archive_id".into(),
                global_attribute: "accession".into(),
            },
        ];
        let mediator = Mediator::build(schema(), mappings, vec![&protkb, &archive]);
        let result = mediator
            .query_concept(&["accession", "description"])
            .unwrap();
        assert_eq!(result.row_count(), 2);
        // The archive's description is not mapped → NULL.
        let archive_row: Vec<&aladin_relstore::Row> = result
            .rows()
            .iter()
            .filter(|r| r[0].render() == "archive")
            .collect();
        assert_eq!(archive_row.len(), 1);
        assert!(archive_row[0][2].is_null());
    }

    #[test]
    fn effort_and_coverage_reflect_mappings() {
        let (protkb, archive) = dbs();
        let mappings = vec![Mapping {
            source: "protkb".into(),
            table: "protkb_entry".into(),
            column: "ac".into(),
            global_attribute: "accession".into(),
        }];
        let mediator = Mediator::build(schema(), mappings, vec![&protkb, &archive]);
        assert_eq!(mediator.effort().parsers_written, 1);
        assert_eq!(mediator.effort().mappings_written, 1);
        assert_eq!(mediator.effort().schema_elements_declared, 3);
        assert!((mediator.coverage() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_schema_has_zero_coverage() {
        let (protkb, _) = dbs();
        let mediator = Mediator::build(
            GlobalSchema {
                concept: "protein".into(),
                attributes: vec![],
            },
            vec![],
            vec![&protkb],
        );
        assert_eq!(mediator.coverage(), 0.0);
        assert_eq!(mediator.effort().total(), 0);
    }
}
