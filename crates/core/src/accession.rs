//! Detection of accession-number candidates.
//!
//! "We analyze for each unique attribute whether each of its values contains
//! at least one non-digit character and is at least four characters long. As
//! accession numbers within one database usually all have the same length, we
//! finally require the values of the attribute to differ by at most 20 percent
//! in length. [...] Each table may have only one accession number candidate;
//! if more than one candidate was found, only the one with the longer average
//! field length is considered." (Section 4.2)

use crate::config::AladinConfig;
use crate::error::AladinResult;
use crate::metadata::{AccessionCandidate, UniqueColumn};
use aladin_relstore::stats::ColumnStats;
use aladin_relstore::Database;
use std::collections::BTreeMap;

/// Minimum fraction of rows with a non-null value for a column to be an
/// accession candidate.
const MIN_COVERAGE: f64 = 0.9;

/// Decide whether a profiled unique column qualifies as an accession-number
/// candidate under the configured thresholds.
fn is_accession_candidate(stats: &ColumnStats, config: &AladinConfig) -> bool {
    if stats.non_null_count() == 0 || !stats.is_unique {
        return false;
    }
    if stats.coverage() < MIN_COVERAGE {
        return false;
    }
    if stats.min_len < config.accession_min_length {
        return false;
    }
    if stats.max_len > config.accession_max_length {
        return false;
    }
    // Require at least one non-digit character in every value.
    if stats.char_profile.has_non_digit < 1.0 {
        return false;
    }
    // Reject values containing whitespace (accession numbers are single
    // tokens; titles and descriptions are not).
    if stats.char_profile.has_whitespace > 0.0 {
        return false;
    }
    if stats.length_spread() > config.accession_max_length_spread {
        return false;
    }
    true
}

/// Detect accession-number candidates among the unique attributes of a source,
/// at most one per table (ties broken by longer average value length).
///
/// The caller provides the column statistics it has already computed (the
/// statistics are part of the reusable metadata); any unique column without
/// statistics is skipped.
pub fn detect_accession_candidates(
    _db: &Database,
    unique_columns: &[UniqueColumn],
    stats: &[ColumnStats],
    config: &AladinConfig,
) -> AladinResult<Vec<AccessionCandidate>> {
    let mut best_per_table: BTreeMap<String, AccessionCandidate> = BTreeMap::new();
    for unique in unique_columns {
        let column_stats = stats.iter().find(|s| {
            s.table.eq_ignore_ascii_case(&unique.table)
                && s.column.eq_ignore_ascii_case(&unique.column)
        });
        let column_stats = match column_stats {
            Some(s) => s,
            None => continue,
        };
        if !is_accession_candidate(column_stats, config) {
            continue;
        }
        let candidate = AccessionCandidate {
            table: unique.table.clone(),
            column: unique.column.clone(),
            avg_length: column_stats.avg_len,
        };
        best_per_table
            .entry(unique.table.to_ascii_lowercase())
            .and_modify(|existing| {
                if candidate.avg_length > existing.avg_length {
                    *existing = candidate.clone();
                }
            })
            .or_insert(candidate);
    }
    Ok(best_per_table.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladin_relstore::stats::profile_table;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn biosql_entry_table() -> Database {
        let mut db = Database::new("biosql");
        db.create_table(
            "bioentry",
            TableSchema::of(vec![
                ColumnDef::int("bioentry_id"),
                ColumnDef::text("accession"),
                ColumnDef::text("name"),
                ColumnDef::int("taxon_id"),
            ]),
        )
        .unwrap();
        let rows = [
            (1, "P10000", "KIN1_HUMAN", 9606),
            (2, "P10001", "KIN2_HUMAN", 9606),
            (3, "Q20002", "VERY_LONG_PROTEIN_NAME_HUMAN", 10090),
            (4, "O30003", "T_MOUSE", 10090),
        ];
        for (id, acc, name, taxon) in rows {
            db.insert(
                "bioentry",
                vec![
                    Value::Int(id),
                    Value::text(acc),
                    Value::text(name),
                    Value::Int(taxon),
                ],
            )
            .unwrap();
        }
        db
    }

    fn uniques_for(db: &Database) -> Vec<UniqueColumn> {
        crate::unique::detect_unique_columns(db).unwrap()
    }

    #[test]
    fn biosql_case_study_accession_is_the_only_candidate() {
        let db = biosql_entry_table();
        let config = AladinConfig::default();
        let stats = profile_table(db.table("bioentry").unwrap(), 5).unwrap();
        let uniques = uniques_for(&db);
        let candidates = detect_accession_candidates(&db, &uniques, &stats, &config).unwrap();
        // bioentry_id: unique but purely numeric -> rejected.
        // name: unique but length spread too large -> rejected.
        // accession: accepted.
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].table, "bioentry");
        assert_eq!(candidates[0].column, "accession");
    }

    #[test]
    fn short_values_are_rejected() {
        let mut db = Database::new("x");
        db.create_table("t", TableSchema::of(vec![ColumnDef::text("code")]))
            .unwrap();
        for code in ["A1", "B2", "C3"] {
            db.insert("t", vec![Value::text(code)]).unwrap();
        }
        let config = AladinConfig::default();
        let stats = profile_table(db.table("t").unwrap(), 5).unwrap();
        let uniques = uniques_for(&db);
        let candidates = detect_accession_candidates(&db, &uniques, &stats, &config).unwrap();
        assert!(candidates.is_empty());
    }

    #[test]
    fn lowering_the_min_length_admits_short_codes() {
        let mut db = Database::new("x");
        db.create_table("t", TableSchema::of(vec![ColumnDef::text("code")]))
            .unwrap();
        for code in ["A1", "B2", "C3"] {
            db.insert("t", vec![Value::text(code)]).unwrap();
        }
        let config = AladinConfig {
            accession_min_length: 2,
            ..Default::default()
        };
        let stats = profile_table(db.table("t").unwrap(), 5).unwrap();
        let uniques = uniques_for(&db);
        let candidates = detect_accession_candidates(&db, &uniques, &stats, &config).unwrap();
        assert_eq!(candidates.len(), 1);
    }

    #[test]
    fn ties_break_by_longer_average_length() {
        let mut db = Database::new("x");
        db.create_table(
            "t",
            TableSchema::of(vec![
                ColumnDef::text("short_acc"),
                ColumnDef::text("long_acc"),
            ]),
        )
        .unwrap();
        for i in 0..4 {
            db.insert(
                "t",
                vec![
                    Value::text(format!("AB{i:02}")),
                    Value::text(format!("ENSG000000000{i:02}")),
                ],
            )
            .unwrap();
        }
        let config = AladinConfig::default();
        let stats = profile_table(db.table("t").unwrap(), 5).unwrap();
        let uniques = uniques_for(&db);
        let candidates = detect_accession_candidates(&db, &uniques, &stats, &config).unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].column, "long_acc");
    }

    #[test]
    fn low_coverage_columns_are_rejected() {
        let mut db = Database::new("x");
        db.create_table(
            "t",
            TableSchema::of(vec![ColumnDef::int("id"), ColumnDef::text("maybe_acc")]),
        )
        .unwrap();
        for i in 0..10i64 {
            let acc = if i < 3 {
                Value::text(format!("ACC{i:03}"))
            } else {
                Value::Null
            };
            db.insert("t", vec![Value::Int(i), acc]).unwrap();
        }
        let config = AladinConfig::default();
        let stats = profile_table(db.table("t").unwrap(), 5).unwrap();
        let uniques = uniques_for(&db);
        let candidates = detect_accession_candidates(&db, &uniques, &stats, &config).unwrap();
        assert!(candidates.iter().all(|c| c.column != "maybe_acc"));
    }

    #[test]
    fn is_accession_candidate_rejects_non_unique_columns() {
        let mut db = Database::new("x");
        db.create_table("t", TableSchema::of(vec![ColumnDef::text("acc")]))
            .unwrap();
        db.insert("t", vec![Value::text("SAME1")]).unwrap();
        db.insert("t", vec![Value::text("SAME1")]).unwrap();
        let stats = profile_table(db.table("t").unwrap(), 5).unwrap();
        assert!(!is_accession_candidate(&stats[0], &AladinConfig::default()));
    }

    /// Whether a one-column text table of `values` (`None` for NULL) is an
    /// accession candidate under the default configuration.
    fn admits(values: &[Option<String>]) -> bool {
        let mut db = Database::new("x");
        db.create_table("t", TableSchema::of(vec![ColumnDef::text("acc")]))
            .unwrap();
        for value in values {
            let value = value.as_deref().map_or(Value::Null, Value::text);
            db.insert("t", vec![value]).unwrap();
        }
        let stats = profile_table(db.table("t").unwrap(), 5).unwrap();
        is_accession_candidate(&stats[0], &AladinConfig::default())
    }

    #[test]
    fn all_digit_and_spaced_values_are_not_accessions() {
        let column = |prefix: &str| -> Vec<Option<String>> {
            (0..10).map(|i| Some(format!("{prefix}{i:04}"))).collect()
        };
        assert!(admits(&column("AC")));
        assert!(!admits(&column("10")));
        assert!(!admits(&column("AC ")));
    }

    #[test]
    fn ninety_percent_coverage_is_admitted_and_less_is_not() {
        let column = |non_null: usize| -> Vec<Option<String>> {
            (0..100)
                .map(|i| (i < non_null).then(|| format!("AC{i:04}")))
                .collect()
        };
        assert!(admits(&column(90)));
        assert!(!admits(&column(89)));
    }
}
