//! Discovery of explicit cross-references between data sources.
//!
//! "Usually such a cross-reference is stored as the accession number of the
//! object it points to together with an indication of the database holding
//! this object. Often, both are encoded into one string, such as in
//! 'ENSG00000042753' or 'Uniprot:P11140'. [...] Because cross-references use
//! public, globally unique, and stable identifiers [...] target candidates are
//! exactly the previously discovered unique fields in primary relations of
//! other databases." (Section 4.4)

use crate::config::AladinConfig;
use crate::error::AladinResult;
use crate::links::prune::{candidate_source_attributes, pair_is_plausible, PruningStats};
use crate::metadata::{Link, LinkKind, ObjectRef, SourceStructure};
use crate::secondary::owner_accessions;
use aladin_relstore::Database;
use std::collections::{HashMap, HashSet};

/// The outcome of explicit link discovery between one source pair.
#[derive(Debug, Clone, Default)]
pub struct ExplicitLinkOutcome {
    /// Discovered object-level links.
    pub links: Vec<Link>,
    /// Number of attribute pairs actually compared.
    pub pairs_compared: usize,
    /// Pruning statistics for the source side.
    pub pruning: PruningStats,
}

/// Minimum fraction of the source attribute's non-null values that must
/// match the target accession set.
const MIN_MATCH_FRACTION: f64 = 0.05;

/// Extract the candidate identifier tokens of a raw value: the full trimmed
/// value, its `;`/`,`/`|`/whitespace-separated tokens, and each token with a
/// single leading `prefix:` stripped (covering `Uniprot:P11140` and
/// `ontodb:GO:0000123`).
fn identifier_tokens(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return out;
    }
    out.push(trimmed.to_string());
    for token in trimmed.split(|c: char| c == ';' || c == ',' || c == '|' || c.is_whitespace()) {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        if token != trimmed {
            out.push(token.to_string());
        }
        if let Some((_, rest)) = token.split_once(':') {
            if !rest.is_empty() {
                out.push(rest.to_string());
            }
        }
    }
    out
}

/// Discover explicit cross-reference links from `from` (source side) into the
/// primary objects of `to` (target side).
///
/// For every surviving source attribute, the values are tokenized and matched
/// against the accession index of every primary relation of the target. An
/// attribute pair is accepted as a cross-reference attribute when at least
/// `link_min_matches` values match and the matching fraction reaches
/// 5 %; each matching row then produces an object-level link from the row's
/// owning primary object to the referenced target object.
pub fn discover_explicit_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<ExplicitLinkOutcome> {
    let mut outcome = ExplicitLinkOutcome::default();
    let (candidates, pruning) = candidate_source_attributes(from_structure, config);
    outcome.pruning = pruning;

    // Build accession indexes for the target's primary relations (or for all
    // unique columns when the primary-only pruning is disabled).
    struct Target {
        table: String,
        avg_len: f64,
        // rendered accession -> ObjectRef
        index: HashMap<String, ObjectRef>,
    }
    let mut targets: Vec<Target> = Vec::new();
    let target_columns: Vec<(String, String)> = if config.pruning.targets_primary_only {
        to_structure
            .primary_relations
            .iter()
            .map(|p| (p.table.clone(), p.accession_column.clone()))
            .collect()
    } else {
        to_structure
            .unique_columns
            .iter()
            .map(|u| (u.table.clone(), u.column.clone()))
            .collect()
    };
    for (table, column) in target_columns {
        let t = to_db.table(&table)?;
        let idx = t.column_index(&column)?;
        // The object a match refers to is the primary object owning the row.
        let owners = owner_accessions(
            to_db,
            &to_structure.primary_relations,
            &to_structure.secondary_relations,
            &to_structure.relationships,
            &table,
        )
        .unwrap_or_else(|_| vec![None; t.row_count()]);
        let primary_table = to_structure
            .secondary(&table)
            .map(|s| s.primary_table.clone())
            .unwrap_or_else(|| table.clone());
        let mut index = HashMap::with_capacity(t.row_count());
        let mut total_len = 0usize;
        let mut n = 0usize;
        for (row_idx, row) in t.rows().iter().enumerate() {
            let v = &row[idx];
            if v.is_null() {
                continue;
            }
            let rendered = v.render();
            total_len += rendered.chars().count();
            n += 1;
            let owner = owners.get(row_idx).cloned().flatten();
            if let Some(owner_acc) = owner {
                index.insert(
                    rendered,
                    ObjectRef::new(to_db.name(), primary_table.clone(), owner_acc),
                );
            }
        }
        if !index.is_empty() {
            targets.push(Target {
                table,
                avg_len: if n == 0 {
                    0.0
                } else {
                    total_len as f64 / n as f64
                },
                index,
            });
        }
    }

    if targets.is_empty() || candidates.is_empty() {
        return Ok(outcome);
    }

    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    for attr in &candidates {
        // The owner of each row of the source attribute's table.
        let table = match from_db.table(&attr.table) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let col_idx = match table.column_index(&attr.column) {
            Ok(i) => i,
            Err(_) => continue,
        };
        let owners = owner_accessions(
            from_db,
            &from_structure.primary_relations,
            &from_structure.secondary_relations,
            &from_structure.relationships,
            &attr.table,
        )
        .unwrap_or_else(|_| vec![None; table.row_count()]);
        let from_primary_table = from_structure
            .secondary(&attr.table)
            .map(|s| s.primary_table.clone())
            .unwrap_or_else(|| attr.table.clone());

        for target in &targets {
            if config.pruning.use_statistics && !pair_is_plausible(attr, target.avg_len) {
                continue;
            }
            outcome.pairs_compared += 1;

            // First pass: count matching values to decide whether this
            // attribute pair constitutes a cross-reference attribute.
            let mut matches: Vec<(usize, ObjectRef, String)> = Vec::new();
            let mut non_null = 0usize;
            for (row_idx, row) in table.rows().iter().enumerate() {
                let v = &row[col_idx];
                if v.is_null() {
                    continue;
                }
                non_null += 1;
                let rendered = v.render();
                for token in identifier_tokens(&rendered) {
                    if let Some(target_obj) = target.index.get(&token) {
                        matches.push((row_idx, target_obj.clone(), token));
                        break;
                    }
                }
            }
            if matches.len() < config.link_min_matches {
                continue;
            }
            if non_null > 0 && (matches.len() as f64 / non_null as f64) < MIN_MATCH_FRACTION {
                continue;
            }
            // Don't link a primary accession column against itself across the
            // same source (self pairs are handled by duplicate detection).
            if from_db.name() == to_db.name() && attr.table.eq_ignore_ascii_case(&target.table) {
                continue;
            }

            for (row_idx, target_obj, token) in matches {
                let owner = match owners.get(row_idx).cloned().flatten() {
                    Some(o) => o,
                    None => continue,
                };
                let from_obj = ObjectRef::new(from_db.name(), from_primary_table.clone(), owner);
                if from_obj == target_obj {
                    continue;
                }
                if seen.insert((from_obj.clone(), target_obj.clone())) {
                    outcome.links.push(Link {
                        from: from_obj,
                        to: target_obj,
                        kind: LinkKind::ExplicitCrossRef,
                        score: 1.0,
                        evidence: format!("{}.{} = '{}'", attr.table, attr.column, token),
                    });
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_database;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn protkb() -> Database {
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
        for i in 1..=4i64 {
            db.insert(
                "protkb_entry",
                vec![Value::Int(i), Value::text(format!("P1000{i}"))],
            )
            .unwrap();
        }
        let refs = [
            (1, 1, "STRUCTDB; 1ABC"),
            (2, 2, "STRUCTDB; 2DEF"),
            (3, 3, "ONTODB; GO:0000001"),
            (4, 4, "Uniprot:P10001"),
        ];
        for (id, entry, v) in refs {
            db.insert(
                "protkb_dr",
                vec![Value::Int(id), Value::Int(entry), Value::text(v)],
            )
            .unwrap();
        }
        db
    }

    fn structdb() -> Database {
        let mut db = Database::new("structdb");
        db.create_table(
            "structures",
            TableSchema::of(vec![
                ColumnDef::text("structure_id"),
                ColumnDef::text("title"),
            ]),
        )
        .unwrap();
        db.create_table(
            "chains",
            TableSchema::of(vec![
                ColumnDef::int("chain_id"),
                ColumnDef::text("structure_id"),
            ]),
        )
        .unwrap();
        for (acc, title) in [
            ("1ABC", "kinase structure"),
            ("2DEF", "transporter"),
            ("3GHI", "unrelated"),
        ] {
            db.insert("structures", vec![Value::text(acc), Value::text(title)])
                .unwrap();
        }
        for (id, acc) in [(1, "1ABC"), (2, "2DEF"), (3, "3GHI")] {
            db.insert("chains", vec![Value::Int(id), Value::text(acc)])
                .unwrap();
        }
        db
    }

    #[test]
    fn identifier_tokens_cover_composite_forms() {
        assert!(identifier_tokens("STRUCTDB; 1ABC").contains(&"1ABC".to_string()));
        assert!(identifier_tokens("Uniprot:P11140").contains(&"P11140".to_string()));
        assert!(identifier_tokens("ontodb:GO:0000123").contains(&"GO:0000123".to_string()));
        assert!(identifier_tokens("ENSG00000042753").contains(&"ENSG00000042753".to_string()));
        assert!(identifier_tokens("   ").is_empty());
    }

    #[test]
    fn discovers_links_through_dr_lines() {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let protkb_db = protkb();
        let structdb_db = structdb();
        let protkb_structure = analyze_database(&protkb_db, &config).unwrap();
        let structdb_structure = analyze_database(&structdb_db, &config).unwrap();
        let outcome = discover_explicit_links(
            &protkb_db,
            &protkb_structure,
            &structdb_db,
            &structdb_structure,
            &config,
        )
        .unwrap();
        assert!(outcome.pairs_compared > 0);
        let pairs: Vec<(String, String)> = outcome
            .links
            .iter()
            .map(|l| (l.from.accession.clone(), l.to.accession.clone()))
            .collect();
        assert!(pairs.contains(&("P10001".to_string(), "1ABC".to_string())));
        assert!(pairs.contains(&("P10002".to_string(), "2DEF".to_string())));
        // No link into the unreferenced structure.
        assert!(!pairs.iter().any(|(_, to)| to == "3GHI"));
        assert!(outcome
            .links
            .iter()
            .all(|l| l.kind == LinkKind::ExplicitCrossRef));
    }

    #[test]
    fn an_attribute_needs_five_percent_of_its_values_to_match() {
        // 50 entries, one DR row each; the first `hits` name a structdb
        // structure, the rest name nothing.
        let referencing = |hits: usize| {
            let mut db = Database::new("refdb");
            db.create_table(
                "ref_entry",
                TableSchema::of(vec![ColumnDef::int("entry_id"), ColumnDef::text("ac")]),
            )
            .unwrap();
            db.create_table(
                "ref_dr",
                TableSchema::of(vec![
                    ColumnDef::int("dr_id"),
                    ColumnDef::int("entry_id"),
                    ColumnDef::text("value"),
                ]),
            )
            .unwrap();
            let targets = ["1ABC", "2DEF", "3GHI"][..hits]
                .iter()
                .map(|acc| acc.to_string())
                .chain((hits..50).map(|i| format!("9X{i:02}")));
            for (i, target) in targets.enumerate() {
                let id = Value::Int(i as i64 + 1);
                db.insert(
                    "ref_entry",
                    vec![id.clone(), Value::text(format!("R{i:05}"))],
                )
                .unwrap();
                db.insert(
                    "ref_dr",
                    vec![id.clone(), id, Value::text(format!("STRUCTDB; {target}"))],
                )
                .unwrap();
            }
            db
        };
        let config = AladinConfig::default();
        let structdb_db = structdb();
        let structdb_structure = analyze_database(&structdb_db, &config).unwrap();
        let links = |hits: usize| {
            let db = referencing(hits);
            let structure = analyze_database(&db, &config).unwrap();
            discover_explicit_links(&db, &structure, &structdb_db, &structdb_structure, &config)
                .unwrap()
                .links
                .len()
        };
        assert_eq!(links(2), 0);
        assert_eq!(links(3), 3);
    }

    #[test]
    fn min_match_threshold_suppresses_accidental_matches() {
        let config = AladinConfig {
            link_min_matches: 5,
            ..Default::default()
        };
        let protkb_db = protkb();
        let structdb_db = structdb();
        let protkb_structure = analyze_database(&protkb_db, &config).unwrap();
        let structdb_structure = analyze_database(&structdb_db, &config).unwrap();
        let outcome = discover_explicit_links(
            &protkb_db,
            &protkb_structure,
            &structdb_db,
            &structdb_structure,
            &config,
        )
        .unwrap();
        assert!(outcome.links.is_empty());
    }

    #[test]
    fn no_targets_means_no_links() {
        let config = AladinConfig::default();
        let protkb_db = protkb();
        let protkb_structure = analyze_database(&protkb_db, &config).unwrap();
        let mut empty = Database::new("empty");
        empty
            .create_table("t", TableSchema::of(vec![ColumnDef::text("x")]))
            .unwrap();
        let empty_structure = SourceStructure {
            source: "empty".into(),
            ..Default::default()
        };
        let outcome = discover_explicit_links(
            &protkb_db,
            &protkb_structure,
            &empty,
            &empty_structure,
            &config,
        )
        .unwrap();
        assert!(outcome.links.is_empty());
        assert_eq!(outcome.pairs_compared, 0);
    }
}
