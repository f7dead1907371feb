//! Evaluation of the discovery steps against a known ground truth.
//!
//! The paper proposes deriving "precision and recall methods for finding
//! primary relations, secondary relations, cross-references, and duplicates"
//! from an existing integrated database used as a learning test set
//! (Section 5). The synthetic corpus of `aladin-datagen` records exactly that
//! ground truth; this module computes the measures.

use crate::metadata::LinkKind;
use crate::pipeline::Aladin;
use std::collections::HashSet;

/// Precision / recall / F1 over a set comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// True positives.
    pub true_positives: usize,
    /// False positives.
    pub false_positives: usize,
    /// False negatives.
    pub false_negatives: usize,
}

impl PrecisionRecall {
    /// Build from predicted and expected sets of comparable items.
    fn from_sets<T: Eq + std::hash::Hash>(
        predicted: &HashSet<T>,
        expected: &HashSet<T>,
    ) -> PrecisionRecall {
        let tp = predicted.intersection(expected).count();
        PrecisionRecall {
            true_positives: tp,
            false_positives: predicted.len() - tp,
            false_negatives: expected.len() - tp,
        }
    }

    /// Precision (1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall (1.0 when nothing was expected).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 measure.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Structural evaluation of one source.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureEvaluation {
    /// Source name.
    pub source: String,
    /// Whether every true primary relation was found (and nothing else).
    pub primary_correct: bool,
    /// P/R over the set of primary tables.
    pub primary: PrecisionRecall,
    /// Whether the accession column of every correctly found primary table is
    /// correct.
    pub accession_correct: bool,
    /// P/R over the set of secondary tables.
    pub secondary: PrecisionRecall,
}

/// Evaluation of link discovery and duplicate detection over the warehouse.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEvaluation {
    /// P/R of explicit cross-reference links against all true links.
    pub explicit_links: PrecisionRecall,
    /// Recall of true links that were withheld from the data (discoverable
    /// only implicitly), over implicit link kinds.
    pub withheld_recall: f64,
    /// P/R of duplicate detection.
    pub duplicates: PrecisionRecall,
}

/// The ground-truth interface the evaluator needs. Implemented by
/// `aladin_datagen::GroundTruth` via the blanket functions below; kept as a
/// plain-data struct here so `aladin-core` does not depend on the generator.
#[derive(Debug, Clone, Default)]
pub struct ExpectedTruth {
    /// Per-source structural truth: (source, primary tables, accession
    /// columns, secondary tables).
    #[allow(clippy::type_complexity)]
    pub sources: Vec<(String, Vec<String>, Vec<String>, Vec<String>)>,
    /// True object links as (source_a, accession_a, source_b, accession_b,
    /// explicit).
    pub links: Vec<(String, String, String, String, bool)>,
    /// True duplicates as (source_a, accession_a, source_b, accession_b).
    pub duplicates: Vec<(String, String, String, String)>,
}

fn undirected_key(a_source: &str, a_acc: &str, b_source: &str, b_acc: &str) -> (String, String) {
    let left = format!("{a_source}\u{1}{a_acc}");
    let right = format!("{b_source}\u{1}{b_acc}");
    if left <= right {
        (left, right)
    } else {
        (right, left)
    }
}

/// Evaluate the structural discovery (primary/secondary relations) of every
/// source present in both the warehouse and the expected truth.
pub fn evaluate_structure(aladin: &Aladin, truth: &ExpectedTruth) -> Vec<StructureEvaluation> {
    let mut out = Vec::new();
    for (source, primary_tables, accession_columns, secondary_tables) in &truth.sources {
        let structure = match aladin.metadata().structure(source) {
            Some(s) => s,
            None => continue,
        };
        let predicted_primary: HashSet<String> = structure
            .primary_relations
            .iter()
            .map(|p| p.table.to_ascii_lowercase())
            .collect();
        let expected_primary: HashSet<String> = primary_tables
            .iter()
            .map(|t| t.to_ascii_lowercase())
            .collect();
        let primary = PrecisionRecall::from_sets(&predicted_primary, &expected_primary);

        let accession_correct =
            primary_tables
                .iter()
                .zip(accession_columns)
                .all(|(table, column)| {
                    structure
                        .primary_relations
                        .iter()
                        .find(|p| p.table.eq_ignore_ascii_case(table))
                        .map(|p| p.accession_column.eq_ignore_ascii_case(column))
                        .unwrap_or(false)
                });

        let predicted_secondary: HashSet<String> = structure
            .secondary_relations
            .iter()
            .map(|s| s.table.to_ascii_lowercase())
            .collect();
        let expected_secondary: HashSet<String> = secondary_tables
            .iter()
            .map(|t| t.to_ascii_lowercase())
            .collect();
        let secondary = PrecisionRecall::from_sets(&predicted_secondary, &expected_secondary);

        out.push(StructureEvaluation {
            source: source.clone(),
            primary_correct: primary.false_positives == 0 && primary.false_negatives == 0,
            primary,
            accession_correct,
            secondary,
        });
    }
    out
}

/// Evaluate link discovery and duplicate detection.
///
/// Explicit-link precision/recall is measured against *all* true links
/// (explicit and withheld): a discovered explicit link to a withheld true
/// relationship still counts as correct. `withheld_recall` measures how many
/// of the withheld true links were recovered by *any* discovered link
/// (explicit or implicit) — the paper's "detection of unseen relationships".
pub fn evaluate_links(aladin: &Aladin, truth: &ExpectedTruth) -> LinkEvaluation {
    let true_links: HashSet<(String, String)> = truth
        .links
        .iter()
        .map(|(a, aa, b, ba, _)| undirected_key(a, aa, b, ba))
        .collect();
    let withheld: HashSet<(String, String)> = truth
        .links
        .iter()
        .filter(|(_, _, _, _, explicit)| !explicit)
        .map(|(a, aa, b, ba, _)| undirected_key(a, aa, b, ba))
        .collect();

    let discovered_explicit: HashSet<(String, String)> = aladin
        .metadata()
        .links()
        .iter()
        .filter(|l| l.kind == LinkKind::ExplicitCrossRef)
        .map(|l| {
            undirected_key(
                &l.from.source,
                &l.from.accession,
                &l.to.source,
                &l.to.accession,
            )
        })
        .collect();
    let discovered_any: HashSet<(String, String)> = aladin
        .metadata()
        .links()
        .iter()
        .chain(aladin.metadata().duplicates().iter())
        .map(|l| {
            undirected_key(
                &l.from.source,
                &l.from.accession,
                &l.to.source,
                &l.to.accession,
            )
        })
        .collect();

    let explicit_links = PrecisionRecall::from_sets(&discovered_explicit, &true_links);
    let withheld_found = withheld.intersection(&discovered_any).count();
    let withheld_recall = if withheld.is_empty() {
        1.0
    } else {
        withheld_found as f64 / withheld.len() as f64
    };

    let true_duplicates: HashSet<(String, String)> = truth
        .duplicates
        .iter()
        .map(|(a, aa, b, ba)| undirected_key(a, aa, b, ba))
        .collect();
    let discovered_duplicates: HashSet<(String, String)> = aladin
        .metadata()
        .duplicates()
        .iter()
        .map(|l| {
            undirected_key(
                &l.from.source,
                &l.from.accession,
                &l.to.source,
                &l.to.accession,
            )
        })
        .collect();
    let duplicates = PrecisionRecall::from_sets(&discovered_duplicates, &true_duplicates);

    LinkEvaluation {
        explicit_links,
        withheld_recall,
        duplicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AladinConfig;
    use crate::metadata::{Link, ObjectRef};
    use aladin_relstore::{ColumnDef, Database, TableSchema, Value};

    #[test]
    fn precision_recall_arithmetic() {
        let predicted: HashSet<&str> = ["a", "b", "c"].into_iter().collect();
        let expected: HashSet<&str> = ["b", "c", "d", "e"].into_iter().collect();
        let pr = PrecisionRecall::from_sets(&predicted, &expected);
        assert_eq!(pr.true_positives, 2);
        assert_eq!(pr.false_positives, 1);
        assert_eq!(pr.false_negatives, 2);
        assert!((pr.precision() - 2.0 / 3.0).abs() < 1e-9);
        assert!((pr.recall() - 0.5).abs() < 1e-9);
        assert!(pr.f1() > 0.5 && pr.f1() < 0.67);

        let empty: HashSet<&str> = HashSet::new();
        let pr = PrecisionRecall::from_sets(&empty, &empty);
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
        assert_eq!(pr.f1(), 1.0);
    }

    fn small_warehouse() -> Aladin {
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
                TableSchema::of(vec![ColumnDef::int("entry_id"), ColumnDef::text("ac")]),
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
        for i in 1..=2i64 {
            protkb
                .insert(
                    "protkb_entry",
                    vec![Value::Int(i), Value::text(format!("P1000{i}"))],
                )
                .unwrap();
        }
        protkb
            .insert(
                "protkb_dr",
                vec![Value::Int(1), Value::Int(1), Value::text("STRUCTDB; 1ABC")],
            )
            .unwrap();
        protkb
            .insert(
                "protkb_dr",
                vec![Value::Int(2), Value::Int(2), Value::text("STRUCTDB; 2DEF")],
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
        for (acc, t) in [("1ABC", "alpha"), ("2DEF", "beta"), ("3XYZ", "gamma")] {
            structdb
                .insert("structures", vec![Value::text(acc), Value::text(t)])
                .unwrap();
        }
        aladin.add_database(structdb).unwrap();
        aladin
    }

    fn truth() -> ExpectedTruth {
        ExpectedTruth {
            sources: vec![
                (
                    "protkb".to_string(),
                    vec!["protkb_entry".to_string()],
                    vec!["ac".to_string()],
                    vec!["protkb_dr".to_string()],
                ),
                (
                    "structdb".to_string(),
                    vec!["structures".to_string()],
                    vec!["structure_id".to_string()],
                    vec![],
                ),
            ],
            links: vec![
                (
                    "protkb".into(),
                    "P10001".into(),
                    "structdb".into(),
                    "1ABC".into(),
                    true,
                ),
                (
                    "protkb".into(),
                    "P10002".into(),
                    "structdb".into(),
                    "2DEF".into(),
                    true,
                ),
                (
                    "protkb".into(),
                    "P10002".into(),
                    "structdb".into(),
                    "3XYZ".into(),
                    false,
                ),
            ],
            duplicates: vec![],
        }
    }

    #[test]
    fn structural_evaluation_matches_expectations() {
        let aladin = small_warehouse();
        let evals = evaluate_structure(&aladin, &truth());
        assert_eq!(evals.len(), 2);
        let protkb = evals.iter().find(|e| e.source == "protkb").unwrap();
        assert!(protkb.primary_correct);
        assert!(protkb.accession_correct);
        assert_eq!(protkb.secondary.false_negatives, 0);
        let structdb = evals.iter().find(|e| e.source == "structdb").unwrap();
        assert!(structdb.primary_correct);
    }

    #[test]
    fn link_evaluation_counts_found_and_missed_links() {
        let aladin = small_warehouse();
        let eval = evaluate_links(&aladin, &truth());
        assert_eq!(eval.explicit_links.true_positives, 2);
        assert_eq!(eval.explicit_links.false_positives, 0);
        // The withheld P10002-3XYZ link was not discovered by anything.
        assert_eq!(eval.explicit_links.false_negatives, 1);
        assert_eq!(eval.withheld_recall, 0.0);
        assert_eq!(eval.duplicates.precision(), 1.0);
    }

    #[test]
    fn withheld_recall_counts_implicit_recovery() {
        // The withheld P10002–3XYZ relationship, recovered by a link in the
        // truth's direction, by one stored the other way round, and by a
        // duplicate link: the comparison is undirected and counts duplicates.
        let protkb = ObjectRef::new("protkb", "protkb_entry", "P10002");
        let structdb = ObjectRef::new("structdb", "structures", "3XYZ");
        for (from, to, kind) in [
            (&protkb, &structdb, LinkKind::TextSimilarity),
            (&structdb, &protkb, LinkKind::TextSimilarity),
            (&protkb, &structdb, LinkKind::Duplicate),
        ] {
            let mut aladin = small_warehouse();
            let link = Link {
                from: from.clone(),
                to: to.clone(),
                kind,
                score: 0.9,
                evidence: "test".into(),
            };
            if kind == LinkKind::Duplicate {
                aladin.metadata_mut().add_duplicates(vec![link]);
            } else {
                aladin.metadata_mut().add_links(vec![link]);
            }
            let eval = evaluate_links(&aladin, &truth());
            assert_eq!(eval.withheld_recall, 1.0, "{kind:?} from {}", from.source);
        }
    }
}
