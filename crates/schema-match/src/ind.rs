//! Inclusion-dependency mining over attribute value sets.
//!
//! Section 4.2 of the paper: "all unique attributes are considered as
//! potential targets for such a relationship and all attributes are considered
//! as potential sources. The values of each potential source are compared to
//! the values of each potential target. If the values of a potential source
//! are a true subset of the values of a potential target, we assume a 1:N
//! relationship [...]. If the values of a potential source are the same set as
//! the values of a potential target, we assume a 1:1 relationship."

use aladin_relstore::{Database, RelResult, Value};
use std::collections::HashSet;

/// Cardinality of a guessed relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cardinality {
    /// Source values are a proper subset of target values: 1:N.
    OneToMany,
    /// Source values equal target values: 1:1.
    OneToOne,
}

/// A discovered (or declared) inclusion dependency
/// `source_table.source_column ⊆ target_table.target_column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InclusionDependency {
    /// Referencing table.
    pub source_table: String,
    /// Referencing column.
    pub source_column: String,
    /// Referenced table.
    pub target_table: String,
    /// Referenced (unique) column.
    pub target_column: String,
    /// Guessed cardinality.
    pub cardinality: Cardinality,
    /// Whether the dependency came from a declared constraint rather than
    /// data analysis.
    pub declared: bool,
}

/// A candidate target: a unique attribute of some table.
#[derive(Debug, Clone)]
pub struct UniqueAttribute {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

/// Mine inclusion dependencies inside a single database.
///
/// `unique_attributes` lists the columns known (declared or detected) to be
/// unique; only they are considered as targets, and every column of every
/// *other* table is considered as a source. A source with no non-null values
/// is skipped — an empty set is trivially a subset of everything and would
/// produce pure noise.
pub fn mine_inclusion_dependencies(
    db: &Database,
    unique_attributes: &[UniqueAttribute],
) -> RelResult<Vec<InclusionDependency>> {
    let mut result = Vec::new();

    // Pre-compute target value sets.
    let mut target_sets: Vec<(&UniqueAttribute, HashSet<Value>)> =
        Vec::with_capacity(unique_attributes.len());
    for ua in unique_attributes {
        let table = db.table(&ua.table)?;
        target_sets.push((ua, table.distinct_values(&ua.column)?));
    }

    for table in db.tables() {
        for column in table.schema().columns() {
            let source_values = table.distinct_values(&column.name)?;
            if source_values.is_empty() {
                continue;
            }
            for (target, target_values) in &target_sets {
                if target.table.eq_ignore_ascii_case(table.name())
                    && target.column.eq_ignore_ascii_case(&column.name)
                {
                    continue; // an attribute trivially includes itself
                }
                if target_values.is_empty() {
                    continue;
                }
                if source_values.is_subset(target_values) {
                    let cardinality = if source_values.len() == target_values.len() {
                        Cardinality::OneToOne
                    } else {
                        Cardinality::OneToMany
                    };
                    result.push(InclusionDependency {
                        source_table: table.name().to_string(),
                        source_column: column.name.clone(),
                        target_table: target.table.clone(),
                        target_column: target.column.clone(),
                        cardinality,
                        declared: false,
                    });
                }
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladin_relstore::{ColumnDef, TableSchema};

    fn biosql_like() -> Database {
        let mut db = Database::new("biosql");
        db.create_table(
            "bioentry",
            TableSchema::of(vec![
                ColumnDef::int("bioentry_id"),
                ColumnDef::text("accession"),
                ColumnDef::int("taxon_id"),
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
        db.create_table(
            "taxon",
            TableSchema::of(vec![ColumnDef::int("taxon_id"), ColumnDef::text("name")]),
        )
        .unwrap();
        for i in 1..=5i64 {
            db.insert(
                "bioentry",
                vec![
                    Value::Int(i),
                    Value::text(format!("P1000{i}")),
                    Value::Int(1 + i % 2),
                ],
            )
            .unwrap();
        }
        for (id, be, acc) in [(1, 1, "X1"), (2, 1, "X2"), (3, 3, "X3")] {
            db.insert(
                "dbref",
                vec![Value::Int(id), Value::Int(be), Value::text(acc)],
            )
            .unwrap();
        }
        for (id, name) in [
            (1, "Homo sapiens"),
            (2, "Mus musculus"),
            (3, "Rattus norvegicus"),
        ] {
            db.insert("taxon", vec![Value::Int(id), Value::text(name)])
                .unwrap();
        }
        db
    }

    fn uniques() -> Vec<UniqueAttribute> {
        vec![
            UniqueAttribute {
                table: "bioentry".into(),
                column: "bioentry_id".into(),
            },
            UniqueAttribute {
                table: "bioentry".into(),
                column: "accession".into(),
            },
            UniqueAttribute {
                table: "taxon".into(),
                column: "taxon_id".into(),
            },
            UniqueAttribute {
                table: "dbref".into(),
                column: "dbref_id".into(),
            },
        ]
    }

    #[test]
    fn finds_foreign_key_shaped_dependencies() {
        let db = biosql_like();
        let inds = mine_inclusion_dependencies(&db, &uniques()).unwrap();
        // dbref.bioentry_id ⊆ bioentry.bioentry_id (1:N)
        assert!(inds.iter().any(|d| d.source_table == "dbref"
            && d.source_column == "bioentry_id"
            && d.target_table == "bioentry"
            && d.target_column == "bioentry_id"
            && d.cardinality == Cardinality::OneToMany));
        // bioentry.taxon_id ⊆ taxon.taxon_id (1:N, only 2 of 3 taxa referenced)
        assert!(inds.iter().any(|d| d.source_table == "bioentry"
            && d.source_column == "taxon_id"
            && d.target_table == "taxon"
            && d.cardinality == Cardinality::OneToMany));
    }

    #[test]
    fn equal_sets_yield_one_to_one() {
        let mut db = Database::new("x");
        db.create_table("main", TableSchema::of(vec![ColumnDef::int("id")]))
            .unwrap();
        db.create_table(
            "detail",
            TableSchema::of(vec![ColumnDef::int("detail_id"), ColumnDef::int("main_id")]),
        )
        .unwrap();
        for i in 1..=3i64 {
            db.insert("main", vec![Value::Int(i)]).unwrap();
            db.insert("detail", vec![Value::Int(i), Value::Int(i)])
                .unwrap();
        }
        let uniques = vec![UniqueAttribute {
            table: "main".into(),
            column: "id".into(),
        }];
        let inds = mine_inclusion_dependencies(&db, &uniques).unwrap();
        assert!(inds.iter().any(|d| d.source_table == "detail"
            && d.source_column == "main_id"
            && d.cardinality == Cardinality::OneToOne));
    }

    #[test]
    fn empty_source_columns_are_skipped() {
        let mut db = biosql_like();
        db.table_mut("dbref")
            .unwrap()
            .add_column(ColumnDef::text("empty_col"))
            .unwrap();
        let inds = mine_inclusion_dependencies(&db, &uniques()).unwrap();
        assert!(inds.iter().all(|d| d.source_column != "empty_col"));
    }

    #[test]
    fn self_inclusion_is_not_reported() {
        let db = biosql_like();
        let inds = mine_inclusion_dependencies(&db, &uniques()).unwrap();
        assert!(inds
            .iter()
            .all(|d| !(d.source_table == d.target_table && d.source_column == d.target_column)));
    }

    #[test]
    fn unknown_unique_attribute_errors() {
        let db = biosql_like();
        let bad = vec![UniqueAttribute {
            table: "nope".into(),
            column: "x".into(),
        }];
        assert!(mine_inclusion_dependencies(&db, &bad).is_err());
    }

    #[test]
    fn loosely_equal_representations_do_not_match_strictly() {
        // Integer surrogate keys vs. their textual rendering are different
        // value sets for IND purposes (strict equality), which protects the
        // step from spurious joins between unrelated code lists.
        let mut db = Database::new("x");
        db.create_table("a", TableSchema::of(vec![ColumnDef::int("k")]))
            .unwrap();
        db.create_table("b", TableSchema::of(vec![ColumnDef::text("k_text")]))
            .unwrap();
        for i in 1..=3i64 {
            db.insert("a", vec![Value::Int(i)]).unwrap();
            db.insert("b", vec![Value::text(i.to_string())]).unwrap();
        }
        let uniques = vec![UniqueAttribute {
            table: "a".into(),
            column: "k".into(),
        }];
        let inds = mine_inclusion_dependencies(&db, &uniques).unwrap();
        assert!(inds.iter().all(|d| d.source_table != "b"));
    }
}
