//! Discovery of implicit links: relationships that are not stored anywhere in
//! the data but can be inferred from value similarity.
//!
//! Section 4.4 names three kinds of comparison: sequence fields (homology),
//! long text fields (information retrieval / entity recognition) and shared
//! controlled-vocabulary terms. Each discovery function below handles one of
//! them and produces object-level [`Link`]s.

use crate::config::AladinConfig;
use crate::error::AladinResult;
use crate::metadata::{Link, LinkKind, ObjectRef, SourceStructure};
use crate::secondary::owner_accessions;
use aladin_relstore::Database;
use aladin_seq::alphabet::Alphabet;
use aladin_seq::blast::BlastIndex;
use aladin_textmine::tfidf::TfIdfModel;
use std::collections::{HashMap, HashSet};

/// Maximum number of implicit links kept per object pair discovery run
/// and per kind (guards against quadratic blow-up on large corpora).
const MAX_LINKS_PER_PAIR: usize = 10_000;

/// Collect `(owner accession, value)` pairs of all columns of a source that
/// satisfy a predicate on the column statistics.
fn collect_field_values<F>(
    db: &Database,
    structure: &SourceStructure,
    mut keep: F,
) -> AladinResult<Vec<(ObjectRef, String)>>
where
    F: FnMut(&aladin_relstore::stats::ColumnStats) -> bool,
{
    let mut out = Vec::new();
    for cs in &structure.column_stats {
        if !keep(cs) {
            continue;
        }
        let table = match db.table(&cs.table) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let col = match table.column_index(&cs.column) {
            Ok(i) => i,
            Err(_) => continue,
        };
        let owners = owner_accessions(
            db,
            &structure.primary_relations,
            &structure.secondary_relations,
            &structure.relationships,
            &cs.table,
        )
        .unwrap_or_else(|_| vec![None; table.row_count()]);
        let primary_table = structure
            .secondary(&cs.table)
            .map(|s| s.primary_table.clone())
            .unwrap_or_else(|| cs.table.clone());
        for (row_idx, row) in table.rows().iter().enumerate() {
            let v = &row[col];
            if v.is_null() {
                continue;
            }
            if let Some(owner) = owners.get(row_idx).cloned().flatten() {
                out.push((
                    ObjectRef::new(db.name(), primary_table.clone(), owner),
                    v.render(),
                ));
            }
        }
    }
    Ok(out)
}

/// The alphabet most of `values` detect as, ignoring values that detect as
/// none; protein when none detects. A column counts as a sequence column
/// when 90% of its values fit an alphabet, so any one value, the first
/// included, may be a free-text note.
fn majority_alphabet(values: &[(ObjectRef, String)]) -> Alphabet {
    let detected: Vec<Alphabet> = values
        .iter()
        .filter_map(|(_, v)| Alphabet::detect(v))
        .collect();
    // `max_by_key` keeps the last of equal counts: ties go to the more
    // specific alphabet, DNA before RNA before protein.
    [Alphabet::Protein, Alphabet::Rna, Alphabet::Dna]
        .into_iter()
        .map(|a| (detected.iter().filter(|&&d| d == a).count(), a))
        .filter(|&(n, _)| n > 0)
        .max_by_key(|&(n, _)| n)
        .map_or(Alphabet::Protein, |(_, a)| a)
}

/// Discover sequence-homology links between two sources.
///
/// Sequence fields are recognized from the column statistics ("finding
/// sequence fields is simple, as those contain only strings over a fixed
/// alphabet"); the target side is indexed with the seeded homology search
/// under the alphabet most target values detect as, and every source
/// sequence is queried against it. The search takes
/// [`AladinConfig::sequence_link_threshold`] as its similarity floor, so
/// candidates that cannot reach it are dropped before they are aligned.
pub fn discover_sequence_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<Vec<Link>> {
    let from_seqs = collect_field_values(from_db, from_structure, |cs| cs.looks_like_sequence())?;
    let to_seqs = collect_field_values(to_db, to_structure, |cs| cs.looks_like_sequence())?;
    if from_seqs.is_empty() || to_seqs.is_empty() {
        return Ok(Vec::new());
    }

    let mut index = BlastIndex::new(majority_alphabet(&to_seqs));
    let mut target_objects: HashMap<String, (ObjectRef, usize)> = HashMap::new();
    for (i, (obj, seq)) in to_seqs.iter().enumerate() {
        let id = format!("{i}");
        index.add(id.clone(), seq);
        target_objects.insert(id, (obj.clone(), seq.len()));
    }

    let mut links = Vec::new();
    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    for (from_obj, seq) in &from_seqs {
        // The floor reaches the search, so a candidate whose composition
        // cannot reach the threshold is never scored.
        for hit in index.search_similar(seq, config.sequence_link_threshold) {
            let (to_obj, to_len) = match target_objects.get(&hit.subject_id) {
                Some(t) => t,
                None => continue,
            };
            if from_obj == to_obj {
                continue;
            }
            let similarity = hit.similarity(seq.len(), *to_len);
            if similarity < config.sequence_link_threshold {
                continue;
            }
            if seen.insert((from_obj.clone(), to_obj.clone())) {
                links.push(Link {
                    from: from_obj.clone(),
                    to: to_obj.clone(),
                    kind: LinkKind::SequenceSimilarity,
                    score: similarity,
                    evidence: format!(
                        "alignment score {} identity {:.2}",
                        hit.alignment.score,
                        hit.alignment.identity()
                    ),
                });
            }
            if links.len() >= MAX_LINKS_PER_PAIR {
                return Ok(links);
            }
        }
    }
    Ok(links)
}

/// Discover text-similarity links between two sources by comparing free-text
/// annotation fields with TF-IDF cosine similarity.
pub fn discover_text_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<Vec<Link>> {
    let from_texts = collect_field_values(from_db, from_structure, |cs| cs.looks_like_free_text())?;
    let to_texts = collect_field_values(to_db, to_structure, |cs| cs.looks_like_free_text())?;
    if from_texts.is_empty() || to_texts.is_empty() {
        return Ok(Vec::new());
    }

    // Fit the model on the target documents; document ids are target ordinals.
    let model = TfIdfModel::fit(
        to_texts
            .iter()
            .enumerate()
            .map(|(i, (_, text))| (i.to_string(), text.clone())),
    );

    let mut links = Vec::new();
    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    for (from_obj, text) in &from_texts {
        for (doc_id, score) in model.most_similar(text, 3, &[]) {
            if score < config.text_link_threshold {
                continue;
            }
            let idx: usize = match doc_id.parse() {
                Ok(i) => i,
                Err(_) => continue,
            };
            let to_obj = &to_texts[idx].0;
            if from_obj == to_obj {
                continue;
            }
            if seen.insert((from_obj.clone(), to_obj.clone())) {
                links.push(Link {
                    from: from_obj.clone(),
                    to: to_obj.clone(),
                    kind: LinkKind::TextSimilarity,
                    score,
                    evidence: format!("tf-idf cosine {score:.2}"),
                });
            }
            if links.len() >= MAX_LINKS_PER_PAIR {
                return Ok(links);
            }
        }
    }
    Ok(links)
}

/// Discover shared-term links: objects of two sources annotated with the same
/// controlled-vocabulary value (e.g. the same ontology term accession) are
/// linked pairwise.
///
/// Only values that look like identifiers (no whitespace, length ≥ 4, not
/// purely numeric) participate, and values shared by more than
/// `shared_term_max_objects` objects on either side are skipped — ubiquitous
/// terms would otherwise link everything to everything.
pub fn discover_shared_term_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<Vec<Link>> {
    // Term-like columns: identifier-shaped, not sequences or free text, and
    // not the source's own primary accession column (cross-references into a
    // *third* source are exactly what we want to compare; the object's own
    // key is not an annotation).
    let is_own_accession = |structure: &SourceStructure, table: &str, column: &str| {
        structure.primary_relations.iter().any(|p| {
            p.table.eq_ignore_ascii_case(table) && p.accession_column.eq_ignore_ascii_case(column)
        })
    };
    let looks_like_term = |cs: &aladin_relstore::stats::ColumnStats| {
        !cs.all_numeric
            && !cs.looks_like_sequence()
            && !cs.looks_like_free_text()
            && cs.avg_len >= 4.0
    };
    let from_vals = collect_field_values(from_db, from_structure, |cs| {
        looks_like_term(cs) && !is_own_accession(from_structure, &cs.table, &cs.column)
    })?;
    let to_vals = collect_field_values(to_db, to_structure, |cs| {
        looks_like_term(cs) && !is_own_accession(to_structure, &cs.table, &cs.column)
    })?;
    if from_vals.is_empty() || to_vals.is_empty() {
        return Ok(Vec::new());
    }

    let mut from_by_value: HashMap<&str, Vec<&ObjectRef>> = HashMap::new();
    for (obj, v) in &from_vals {
        if v.contains(char::is_whitespace) {
            continue;
        }
        from_by_value.entry(v.as_str()).or_default().push(obj);
    }
    let mut to_by_value: HashMap<&str, Vec<&ObjectRef>> = HashMap::new();
    for (obj, v) in &to_vals {
        if v.contains(char::is_whitespace) {
            continue;
        }
        to_by_value.entry(v.as_str()).or_default().push(obj);
    }

    let mut links = Vec::new();
    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    // Shared values in sorted order: iterating the HashMap directly would
    // emit links in a per-instance order (and truncate at the per-pair cap
    // nondeterministically).
    let mut shared_values: Vec<&str> = from_by_value.keys().copied().collect();
    shared_values.sort_unstable();
    for value in shared_values {
        let from_objs = &from_by_value[value];
        let to_objs = match to_by_value.get(value) {
            Some(o) => o,
            None => continue,
        };
        if from_objs.len() > config.shared_term_max_objects
            || to_objs.len() > config.shared_term_max_objects
        {
            continue;
        }
        for from_obj in from_objs {
            for to_obj in to_objs {
                if from_obj == to_obj {
                    continue;
                }
                if seen.insert(((*from_obj).clone(), (*to_obj).clone())) {
                    links.push(Link {
                        from: (*from_obj).clone(),
                        to: (*to_obj).clone(),
                        kind: LinkKind::SharedTerm,
                        score: 0.8,
                        evidence: format!("shared value '{value}'"),
                    });
                }
                if links.len() >= MAX_LINKS_PER_PAIR {
                    return Ok(links);
                }
            }
        }
    }
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_database;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn seq(base: &str, n: usize) -> String {
        base.repeat(n)
    }

    fn protein_source(name: &str, entries: &[(&str, &str, &str)]) -> Database {
        // (accession, description, sequence)
        let mut db = Database::new(name);
        db.create_table(
            "entries",
            TableSchema::of(vec![
                ColumnDef::text("acc"),
                ColumnDef::text("description"),
                ColumnDef::text("sequence"),
            ]),
        )
        .unwrap();
        for (acc, desc, sequence) in entries {
            db.insert(
                "entries",
                vec![
                    Value::text(*acc),
                    Value::text(*desc),
                    Value::text(*sequence),
                ],
            )
            .unwrap();
        }
        db
    }

    fn config() -> AladinConfig {
        AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            sequence_link_threshold: 0.5,
            text_link_threshold: 0.3,
            ..Default::default()
        }
    }

    #[test]
    fn sequence_links_connect_homologous_proteins() {
        let shared = seq("MKTAYIAKQRQISFVKSHFSRQ", 3);
        let other = seq("GGGGWWWWPPPPLLLLNNNNQQQQ", 3);
        let a = protein_source(
            "protkb",
            &[
                (
                    "P10001",
                    "serine kinase involved in signalling pathways",
                    &shared,
                ),
                ("P10002", "membrane transporter for sugar molecules", &other),
            ],
        );
        let b = protein_source(
            "archive",
            &[
                (
                    "PA0001",
                    "probable serine kinase involved in signalling",
                    &shared,
                ),
                (
                    "PA0002",
                    "ribosomal assembly factor for small subunit",
                    &seq("AAAACCCCDDDDEEEEFFFF", 3),
                ),
            ],
        );
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let links = discover_sequence_links(&a, &sa, &b, &sb, &cfg).unwrap();
        assert!(!links.is_empty());
        assert!(links
            .iter()
            .any(|l| l.from.accession == "P10001" && l.to.accession == "PA0001"));
        assert!(links.iter().all(|l| l.kind == LinkKind::SequenceSimilarity));
        assert!(links
            .iter()
            .all(|l| l.from.accession != "P10002" || l.to.accession != "PA0002"));
    }

    #[test]
    fn a_non_ascii_value_in_a_sequence_column_does_not_stop_the_other_links() {
        // Twelve distinct pseudo-random proteins, each stored in both sources.
        const AA: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
        let mut state = 7u32;
        let mut residue = || {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            char::from(AA[(state >> 16) as usize % AA.len()])
        };
        let proteins: Vec<String> = (0..12)
            .map(|_| (0..40).map(|_| residue()).collect())
            .collect();
        let accessions = |prefix: &str| -> Vec<String> {
            (0..12)
                .map(|i| format!("{prefix}{:04}", 1001 + i))
                .collect()
        };
        let (a_acc, b_acc) = (accessions("P1"), accessions("PA"));
        let mut a_seqs = proteins.clone();
        // 11 of 12 values are sequences, so the column still counts as one.
        a_seqs[0] = "MKTAYIAKQR – isoform note, see ΑΒ entry MKTAYIAKQRQISFVKSHFSRQ".into();
        let source = |name: &str, acc: &[String], seqs: &[String]| {
            let entries: Vec<(&str, &str, &str)> = acc
                .iter()
                .zip(seqs)
                .map(|(a, s)| (a.as_str(), "uncharacterized protein", s.as_str()))
                .collect();
            protein_source(name, &entries)
        };
        let a = source("protkb", &a_acc, &a_seqs);
        let b = source("archive", &b_acc, &proteins);
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let forward = discover_sequence_links(&a, &sa, &b, &sb, &cfg).unwrap();
        let backward = discover_sequence_links(&b, &sb, &a, &sa, &cfg).unwrap();
        let linked = |links: &[Link], from: &str, to: &str| {
            links
                .iter()
                .any(|l| l.from.accession == from && l.to.accession == to)
        };
        for i in 1..12 {
            assert!(linked(&forward, &a_acc[i], &b_acc[i]), "{}", a_acc[i]);
            assert!(linked(&backward, &b_acc[i], &a_acc[i]), "{}", b_acc[i]);
        }
    }

    #[test]
    fn a_note_in_the_first_target_row_does_not_change_the_alphabet() {
        // Twenty distinct pseudo-random 90-nt genes, each stored in both
        // sources; the target also holds one free-text note.
        let mut state = 11u32;
        let mut base = || {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            char::from(b"ACGT"[(state >> 16) as usize % 4])
        };
        let genes: Vec<String> = (0..20).map(|_| (0..90).map(|_| base()).collect()).collect();
        let note = "ACGTTGCA see entry GB0001 for the full clone sequence";
        let rows = |prefix: &str| -> Vec<(String, String)> {
            genes
                .iter()
                .enumerate()
                .map(|(i, g)| (format!("{prefix}{:04}", 1 + i), g.clone()))
                .collect()
        };
        let source = |name: &str, rows: &[(String, String)]| {
            let entries: Vec<(&str, &str, &str)> = rows
                .iter()
                .map(|(acc, s)| (acc.as_str(), "uncharacterized gene", s.as_str()))
                .collect();
            protein_source(name, &entries)
        };
        let from = source("genedb", &rows("GA"));
        let note_row = ("GB9999".to_string(), note.to_string());
        let mut note_last = rows("GB");
        note_last.push(note_row.clone());
        let mut note_first = vec![note_row];
        note_first.extend(rows("GB"));

        let cfg = config();
        let sf = analyze_database(&from, &cfg).unwrap();
        let links_with = |target_rows: &[(String, String)]| {
            let to = source("archive", target_rows);
            let st = analyze_database(&to, &cfg).unwrap();
            assert!(st.column_stats.iter().any(|cs| cs.looks_like_sequence()));
            let mut links: Vec<(String, String, u64, String)> =
                discover_sequence_links(&from, &sf, &to, &st, &cfg)
                    .unwrap()
                    .into_iter()
                    .map(|l| {
                        (
                            l.from.accession,
                            l.to.accession,
                            l.score.to_bits(),
                            l.evidence,
                        )
                    })
                    .collect();
            links.sort();
            links
        };
        let last = links_with(&note_last);
        assert_eq!(last.len(), 20);
        for (i, (from, to, score, evidence)) in last.iter().enumerate() {
            assert_eq!(
                (from, to),
                (&format!("GA{:04}", 1 + i), &format!("GB{:04}", 1 + i))
            );
            assert_eq!(f64::from_bits(*score), 1.0);
            assert_eq!(evidence, "alignment score 180 identity 1.00");
        }
        assert_eq!(links_with(&note_first), last);
    }

    #[test]
    fn text_links_connect_similar_descriptions() {
        let a = protein_source(
            "protkb",
            &[
                (
                    "P10001",
                    "serine threonine kinase involved in cell cycle regulation",
                    &seq("MKTAYIAKQR", 5),
                ),
                (
                    "P10002",
                    "glucose membrane transporter of the plasma membrane",
                    &seq("GGGGWWWWLL", 5),
                ),
            ],
        );
        let b = protein_source(
            "genedb",
            &[
                (
                    "ENSG00000000001",
                    "gene encoding a serine threonine kinase for cell cycle regulation",
                    &seq("ACGTACGTAA", 5),
                ),
                (
                    "ENSG00000000002",
                    "gene encoding a ribosomal protein of the large subunit",
                    &seq("TTTTGGGGCC", 5),
                ),
            ],
        );
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let links = discover_text_links(&a, &sa, &b, &sb, &cfg).unwrap();
        assert!(links
            .iter()
            .any(|l| l.from.accession == "P10001" && l.to.accession == "ENSG00000000001"));
        assert!(links.iter().all(|l| l.kind == LinkKind::TextSimilarity));
        // The transporter does not link to the ribosomal gene.
        assert!(!links
            .iter()
            .any(|l| l.from.accession == "P10002" && l.to.accession == "ENSG00000000002"));
    }

    #[test]
    fn shared_term_links_connect_objects_with_common_annotation() {
        let mut a = Database::new("protkb");
        a.create_table(
            "entries",
            TableSchema::of(vec![ColumnDef::text("acc"), ColumnDef::text("go_term")]),
        )
        .unwrap();
        a.insert(
            "entries",
            vec![Value::text("P10001"), Value::text("GO:0000001")],
        )
        .unwrap();
        a.insert(
            "entries",
            vec![Value::text("P10002"), Value::text("GO:0000002")],
        )
        .unwrap();
        a.insert(
            "entries",
            vec![Value::text("P10003"), Value::text("GO:0000001")],
        )
        .unwrap();

        let mut b = Database::new("genedb");
        b.create_table(
            "genes",
            TableSchema::of(vec![
                ColumnDef::text("gene_acc"),
                ColumnDef::text("annotation"),
            ]),
        )
        .unwrap();
        b.insert(
            "genes",
            vec![Value::text("ENSG00000000001"), Value::text("GO:0000001")],
        )
        .unwrap();
        b.insert(
            "genes",
            vec![Value::text("ENSG00000000002"), Value::text("GO:0000009")],
        )
        .unwrap();

        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let links = discover_shared_term_links(&a, &sa, &b, &sb, &cfg).unwrap();
        let pairs: Vec<(&str, &str)> = links
            .iter()
            .map(|l| (l.from.accession.as_str(), l.to.accession.as_str()))
            .collect();
        assert!(pairs.contains(&("P10001", "ENSG00000000001")));
        assert!(pairs.contains(&("P10003", "ENSG00000000001")));
        assert!(!pairs.iter().any(|(_, to)| *to == "ENSG00000000002"));
    }

    #[test]
    fn sources_without_matching_fields_produce_no_links() {
        let a = protein_source(
            "protkb",
            &[(
                "P10001",
                "some kinase protein description here",
                &seq("MKTAYIAKQR", 4),
            )],
        );
        let mut b = Database::new("taxdb");
        b.create_table(
            "taxa",
            TableSchema::of(vec![ColumnDef::text("code"), ColumnDef::int("taxid")]),
        )
        .unwrap();
        b.insert("taxa", vec![Value::text("TX09606"), Value::Int(9606)])
            .unwrap();
        b.insert("taxa", vec![Value::text("TX10090"), Value::Int(10090)])
            .unwrap();
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        assert!(discover_sequence_links(&a, &sa, &b, &sb, &cfg)
            .unwrap()
            .is_empty());
        assert!(discover_text_links(&a, &sa, &b, &sb, &cfg)
            .unwrap()
            .is_empty());
    }
}
