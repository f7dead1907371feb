//! Duplicate detection across data sources.
//!
//! "In the fifth step we search for a special kind of 'links' between primary
//! objects in different data sources, i.e., those indicating that the database
//! objects represent the same real world object. Such duplicate links are
//! established if two objects are sufficiently similar according to some
//! similarity metric. [...] here duplicates should be only flagged and not
//! merged." (Sections 3 and 4.5)
//!
//! Candidate generation depends on [`DuplicateCandidates`]:
//!
//! * **Exhaustive** — the pre-blocking pipeline, preserved as the regression
//!   baseline: an *uncapped* join over every shared identifier value (a
//!   keyword carried by hundreds of objects on both sides joins all of them
//!   pairwise), the explicit links between the pair as seeds, and nearest
//!   neighbours in a TF-IDF space where every object is compared against
//!   every document of both sources. A pairwise pass is `O(n · m)` in the
//!   object counts — the all-vs-all behaviour the paper's Section 6.2
//!   worries about.
//! * **Blocked** (the default) — blocking / sorted-neighbourhood candidate
//!   keys: each object is keyed by its accession prefix and by its *rarest*
//!   normalised name/identifier tokens (rarity measured by document
//!   frequency over both sources, so family-wide and corpus-wide tokens
//!   never form blocks), only objects sharing a key are paired, blocks
//!   larger than [`AladinConfig::duplicate_block_cap`] on either side are
//!   skipped as non-discriminative, and a sorted-neighbourhood window over
//!   the normalised-text sort order catches near-misses. Explicit links
//!   still seed the candidate set. Candidate generation is near-linear in
//!   the number of matches.
//!
//! Candidates are scored with the same similarity formula in both modes (a
//! configurable text measure over the flattened annotation plus a
//! sequence-identity ramp when both objects carry sequences). The ramp is 0
//! for any sequence similarity at or below 0.8, so in both modes a pair whose
//! composition bound ([`aladin_seq::bound`], over the raw bytes the alignment
//! compares) stays below 0.8 gets a sequence component of 0 without being
//! aligned. That filter changes no score, so the exhaustive mode stays
//! bit-for-bit the pre-blocking pipeline. The blocked mode additionally
//! skips the alignment when an admissible upper bound on the whole score
//! (sequence contribution assumed perfect) already stays below the
//! duplicate threshold; that prune never affects an above-threshold pair,
//! and stays blocked-only. Blocking itself is still a heuristic: a pair whose
//! only shared signal is a value carried by more than `duplicate_block_cap`
//! objects is not generated unless the window catches it, so blocked recall
//! is not *guaranteed* to equal exhaustive recall on adversarial data.
//! `tests/pipeline_truth.rs` pins that on the datagen world blocking
//! reports a superset of the exhaustive path's duplicates.

use crate::config::{AladinConfig, DuplicateCandidates, DuplicateMeasure};
use crate::error::AladinResult;
use crate::metadata::{Link, LinkKind, ObjectRef, SourceStructure};
use crate::secondary::owner_accessions;
use aladin_relstore::Database;
use aladin_seq::align::local_align;
use aladin_seq::alphabet::Alphabet;
use aladin_seq::bound::{may_reach, Composition};
use aladin_seq::score::ScoringScheme;
use aladin_textmine::distance::normalized_levenshtein;
use aladin_textmine::qgram::qgram_similarity;
use aladin_textmine::tfidf::{cosine_similarity, SparseVector, TfIdfModel};
use std::collections::{HashMap, HashSet};

/// The flattened representation of one primary object used for duplicate
/// scoring: its accession, all its scalar annotation values concatenated, and
/// its sequence (if any).
#[derive(Debug, Clone)]
struct ObjectProfile {
    /// The object.
    pub object: ObjectRef,
    /// Concatenated textual annotation (primary-row values plus secondary
    /// annotation), excluding the accession itself and sequences.
    pub text: String,
    /// The object's sequence, if one of its fields looks like a sequence.
    pub sequence: Option<String>,
    /// All rendered identifier-like values attached to the object (used for
    /// shared-accession candidate generation).
    pub identifiers: HashSet<String>,
}

/// Build the profiles of all primary objects of a source.
fn build_profiles(db: &Database, structure: &SourceStructure) -> AladinResult<Vec<ObjectProfile>> {
    let mut profiles: HashMap<String, ObjectProfile> = HashMap::new();

    for primary in &structure.primary_relations {
        let table = db.table(&primary.table)?;
        let acc_idx = table.column_index(&primary.accession_column)?;
        for row in table.rows() {
            let acc = &row[acc_idx];
            if acc.is_null() {
                continue;
            }
            let accession = acc.render();
            let object = ObjectRef::new(db.name(), primary.table.clone(), accession.clone());
            let entry = profiles.entry(accession.clone()).or_insert(ObjectProfile {
                object,
                text: String::new(),
                sequence: None,
                identifiers: HashSet::new(),
            });
            entry.identifiers.insert(accession.clone());
            for (i, value) in row.iter().enumerate() {
                if i == acc_idx || value.is_null() {
                    continue;
                }
                append_value(entry, &value.render());
            }
        }
    }

    // Secondary annotation: walk every table with an owner path and append the
    // values to the owning object's profile.
    for cs in &structure.column_stats {
        if structure.is_primary(&cs.table) {
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
        if cs.all_numeric {
            continue; // surrogate keys and counters say nothing about identity
        }
        let owners = owner_accessions(
            db,
            &structure.primary_relations,
            &structure.secondary_relations,
            &structure.relationships,
            &cs.table,
        )
        .unwrap_or_else(|_| vec![None; table.row_count()]);
        for (row_idx, row) in table.rows().iter().enumerate() {
            let v = &row[col];
            if v.is_null() {
                continue;
            }
            if let Some(owner) = owners.get(row_idx).cloned().flatten() {
                if let Some(profile) = profiles.get_mut(&owner) {
                    append_value(profile, &v.render());
                }
            }
        }
    }

    let mut out: Vec<ObjectProfile> = profiles.into_values().collect();
    out.sort_by(|a, b| a.object.cmp(&b.object));
    Ok(out)
}

fn append_value(profile: &mut ObjectProfile, rendered: &str) {
    if rendered.is_empty() {
        return;
    }
    if rendered.len() >= 30 && Alphabet::detect(rendered).is_some() {
        // Keep the longest sequence seen for the object.
        if profile
            .sequence
            .as_ref()
            .map(|s| s.len() < rendered.len())
            .unwrap_or(true)
        {
            profile.sequence = Some(rendered.to_string());
        }
        return;
    }
    if !rendered.contains(char::is_whitespace) && rendered.len() <= 24 {
        profile.identifiers.insert(rendered.to_string());
    }
    if !profile.text.is_empty() {
        profile.text.push(' ');
    }
    profile.text.push_str(rendered);
}

/// Score the similarity of two profiles in `[0, 1]`, given their TF-IDF
/// vectors under [`DuplicateMeasure::TfIdf`] (without vectors that measure
/// falls back to q-grams).
///
/// * Equal public accessions across sources (the PDB three-flavour case) are
///   conclusive.
/// * When both objects carry sequences, the sequence contribution is a ramp
///   over the identity range `[0.8, 1.0]`: near-identical sequences are strong
///   duplicate evidence, while "merely homologous" family members (≈85 %
///   identity) contribute nothing — they are links, not duplicates.
/// * A shared non-trivial identifier (one object's accession or name appearing
///   verbatim among the other's identifier values) adds a bounded bonus; it is
///   deliberately *not* conclusive, because a referencing object (an
///   interaction listing a protein as participant) shares that identifier
///   without being a duplicate.
///
/// With a `floor`, a pair whose admissible upper bound stays below it scores
/// `None` before the alignment is paid for: even a perfect sequence match
/// cannot lift the score past `0.5·text + 0.5 + bonus`.
fn profile_similarity(
    a: &ObjectProfile,
    b: &ObjectProfile,
    measure: DuplicateMeasure,
    vectors: Option<(&SparseVector, &SparseVector)>,
    floor: Option<f64>,
) -> Option<f64> {
    if a.object.accession == b.object.accession {
        return Some(1.0);
    }
    let text_sim = text_similarity(a, b, measure, vectors);
    let bonus = identifier_bonus(a, b);
    if let Some(floor) = floor {
        let upper = match (&a.sequence, &b.sequence) {
            (Some(_), Some(_)) => 0.5 * text_sim + 0.5 + bonus,
            _ => text_sim + bonus,
        };
        if upper < floor {
            return None;
        }
    }
    let score = match (&a.sequence, &b.sequence) {
        (Some(sa), Some(sb)) => 0.5 * text_sim + 0.5 * sequence_ramp(sa, sb),
        _ => text_sim,
    };
    Some((score + bonus).min(1.0))
}

/// The text-similarity component of the score under the configured measure.
fn text_similarity(
    a: &ObjectProfile,
    b: &ObjectProfile,
    measure: DuplicateMeasure,
    vectors: Option<(&SparseVector, &SparseVector)>,
) -> f64 {
    match (measure, vectors) {
        (DuplicateMeasure::EditDistance, _) => normalized_levenshtein(&a.text, &b.text),
        (DuplicateMeasure::QGram, _) => qgram_similarity(&a.text, &b.text, 3),
        (DuplicateMeasure::TfIdf, Some((va, vb))) => cosine_similarity(va, vb),
        (DuplicateMeasure::TfIdf, None) => qgram_similarity(&a.text, &b.text, 3),
    }
}

/// The shared-identifier bonus of a pair: 0.2 when one object's accession
/// appears verbatim among the other's identifier values.
fn identifier_bonus(a: &ObjectProfile, b: &ObjectProfile) -> f64 {
    let shares_identifier =
        a.identifiers.contains(&b.object.accession) || b.identifiers.contains(&a.object.accession);
    if shares_identifier {
        0.2
    } else {
        0.0
    }
}

/// Sequence similarity at and below which the sequence component of a
/// duplicate score is 0; it ramps from there to 1 at similarity 1.0.
const SEQUENCE_RAMP_START: f64 = 0.8;

/// The sequence component of a duplicate score: the alignment's identity ×
/// coverage of the shorter raw string, ramped over
/// `[SEQUENCE_RAMP_START, 1.0]`. The ramp is exactly 0 for any similarity at
/// or below its start, so a pair whose composition bound (over the raw bytes
/// the alignment compares) stays below the start is 0 without aligning.
fn sequence_ramp(sa: &str, sb: &str) -> f64 {
    let shared = Composition::of(sa).shared(&Composition::of(sb));
    if !may_reach(shared, sa.len(), sb.len(), SEQUENCE_RAMP_START) {
        return 0.0;
    }
    let alphabet = Alphabet::detect(sa).unwrap_or(Alphabet::Protein);
    let alignment = local_align(sa, sb, &ScoringScheme::for_alphabet(alphabet));
    let shorter = sa.len().min(sb.len()).max(1);
    let similarity =
        alignment.identity() * (alignment.alignment_length.min(shorter) as f64 / shorter as f64);
    ((similarity - SEQUENCE_RAMP_START) / 0.2).clamp(0.0, 1.0)
}

/// How many leading characters of the normalised accession form the
/// accession-prefix blocking key.
const ACCESSION_PREFIX_LEN: usize = 4;

/// How many leading text tokens feed the blocking-token pool. The profile
/// text starts with the primary-row values (name, symbol, organism, ...), so
/// the leading tokens are the object's naming attributes rather than
/// trailing free-text annotation.
const NAME_TOKEN_COUNT: usize = 16;

/// How many of an object's rarest tokens actually become blocking keys.
/// Rarity is document frequency over both sources, so the selected keys are
/// the most discriminative ones (a gene symbol, a distinctive name word)
/// rather than family- or corpus-wide vocabulary.
const RARE_TOKENS_PER_OBJECT: usize = 6;

/// Length of the normalised-text key used for the sorted-neighbourhood pass.
const SORT_KEY_LEN: usize = 24;

/// Normalise a string into lowercase alphanumeric tokens (Unicode-aware:
/// any non-alphanumeric character separates tokens).
fn normalised_tokens(s: &str) -> impl Iterator<Item = String> + '_ {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
}

/// The accession-prefix blocking key of a profile, if the accession has any
/// alphanumeric content.
fn accession_key(profile: &ObjectProfile) -> Option<String> {
    let accession: String = profile
        .object
        .accession
        .chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(char::to_lowercase)
        .take(ACCESSION_PREFIX_LEN)
        .collect();
    if accession.is_empty() {
        None
    } else {
        Some(format!("acc:{accession}"))
    }
}

/// The blocking-token pool of one profile: the normalised identifier values
/// and the leading normalised name tokens (single-character tokens are too
/// common to discriminate and are dropped). The rarest
/// [`RARE_TOKENS_PER_OBJECT`] of these become the object's blocking keys.
fn token_pool(profile: &ObjectProfile) -> Vec<String> {
    let mut tokens: Vec<String> = Vec::new();
    for id in &profile.identifiers {
        let normalised: String = id
            .chars()
            .filter(|c| c.is_alphanumeric())
            .flat_map(char::to_lowercase)
            .collect();
        if normalised.chars().count() >= 2 {
            tokens.push(normalised);
        }
    }
    for token in normalised_tokens(&profile.text).take(NAME_TOKEN_COUNT) {
        if token.chars().count() >= 2 {
            tokens.push(token);
        }
    }
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

/// The sorted-neighbourhood key of a profile: its normalised text, truncated.
/// Sorting both sources' profiles by this key brings objects with similar
/// leading annotation next to each other; a sliding window then pairs
/// cross-source neighbours that share no discriminative blocking key.
fn neighbourhood_key(profile: &ObjectProfile) -> String {
    let mut key = String::with_capacity(SORT_KEY_LEN);
    for token in normalised_tokens(&profile.text) {
        if !key.is_empty() {
            key.push(' ');
        }
        key.push_str(&token);
        if key.chars().count() >= SORT_KEY_LEN {
            break;
        }
    }
    key.chars().take(SORT_KEY_LEN).collect()
}

/// Generate candidate pairs by blocking + sorted neighbourhood.
fn blocked_candidates(
    a_profiles: &[ObjectProfile],
    b_profiles: &[ObjectProfile],
    config: &AladinConfig,
    candidates: &mut HashSet<(usize, usize)>,
) {
    // Token pools and their document frequency over both sources: the df
    // ranking picks each object's most discriminative tokens as keys.
    let a_pools: Vec<Vec<String>> = a_profiles.iter().map(token_pool).collect();
    let b_pools: Vec<Vec<String>> = b_profiles.iter().map(token_pool).collect();
    let mut df: HashMap<&str, usize> = HashMap::new();
    for pool in a_pools.iter().chain(b_pools.iter()) {
        for token in pool {
            *df.entry(token.as_str()).or_insert(0) += 1;
        }
    }
    let rare_keys = |pool: &[String]| -> Vec<String> {
        let mut ranked: Vec<&String> = pool.iter().collect();
        // Ties broken by token text: pools are sorted and deduped, so the
        // selection is deterministic.
        ranked.sort_by_key(|t| (df.get(t.as_str()).copied().unwrap_or(0), (*t).clone()));
        ranked
            .into_iter()
            .take(RARE_TOKENS_PER_OBJECT)
            .map(|t| format!("tok:{t}"))
            .collect()
    };

    // Blocking: objects sharing a candidate key are paired, unless the block
    // is too large on either side to discriminate.
    let mut blocks: HashMap<String, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (i, p) in a_profiles.iter().enumerate() {
        for key in accession_key(p).into_iter().chain(rare_keys(&a_pools[i])) {
            blocks.entry(key).or_default().0.push(i);
        }
    }
    for (j, p) in b_profiles.iter().enumerate() {
        for key in accession_key(p).into_iter().chain(rare_keys(&b_pools[j])) {
            blocks.entry(key).or_default().1.push(j);
        }
    }
    let cap = config.duplicate_block_cap.max(1);
    for (a_side, b_side) in blocks.values() {
        if a_side.is_empty() || b_side.is_empty() || a_side.len() > cap || b_side.len() > cap {
            continue;
        }
        for &i in a_side {
            for &j in b_side {
                candidates.insert((i, j));
            }
        }
    }

    // Sorted neighbourhood: merge both sides into one key-sorted sequence and
    // pair cross-source entries within the window.
    let window = config.duplicate_window;
    if window == 0 {
        return;
    }
    // side 0 = a, side 1 = b; (key, side, index) sorts deterministically.
    let mut entries: Vec<(String, u8, usize)> =
        Vec::with_capacity(a_profiles.len() + b_profiles.len());
    entries.extend(
        a_profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (neighbourhood_key(p), 0u8, i)),
    );
    entries.extend(
        b_profiles
            .iter()
            .enumerate()
            .map(|(j, p)| (neighbourhood_key(p), 1u8, j)),
    );
    entries.sort_unstable();
    for (pos, (_, side, idx)) in entries.iter().enumerate() {
        for (other_key, other_side, other_idx) in entries.iter().skip(pos + 1).take(window) {
            let _ = other_key;
            match (side, other_side) {
                (0, 1) => {
                    candidates.insert((*idx, *other_idx));
                }
                (1, 0) => {
                    candidates.insert((*other_idx, *idx));
                }
                _ => {}
            }
        }
    }
}

/// The outcome of duplicate detection between one source pair.
#[derive(Debug, Clone, Default)]
pub struct DuplicateOutcome {
    /// Discovered duplicate links.
    pub links: Vec<Link>,
    /// Number of candidate pairs actually scored (the blocking metric: the
    /// exhaustive mode additionally *compares* every cross-source document
    /// pair during nearest-neighbour generation, which this count excludes).
    pub candidates_scored: usize,
}

/// Detect duplicates between the primary objects of two sources.
///
/// Returns duplicate links (kind [`LinkKind::Duplicate`]) with the similarity
/// as score. `existing_links` (typically the explicit links already found
/// between the pair) seed the candidate set. Candidate generation follows
/// [`AladinConfig::duplicate_candidate_mode`] (see the module docs for the
/// two modes), and the returned links are fully ordered (score descending,
/// then endpoints) so the output is deterministic.
pub fn detect_duplicates(
    a_db: &Database,
    a_structure: &SourceStructure,
    b_db: &Database,
    b_structure: &SourceStructure,
    existing_links: &[Link],
    config: &AladinConfig,
) -> AladinResult<DuplicateOutcome> {
    let a_profiles = build_profiles(a_db, a_structure)?;
    let b_profiles = build_profiles(b_db, b_structure)?;
    if a_profiles.is_empty() || b_profiles.is_empty() {
        return Ok(DuplicateOutcome::default());
    }

    let a_index: HashMap<&str, usize> = a_profiles
        .iter()
        .enumerate()
        .map(|(i, p)| (p.object.accession.as_str(), i))
        .collect();
    let b_index: HashMap<&str, usize> = b_profiles
        .iter()
        .enumerate()
        .map(|(i, p)| (p.object.accession.as_str(), i))
        .collect();

    // TF-IDF model over both sides (for the TfIdf measure and for candidate
    // generation by nearest neighbour in the exhaustive mode).
    let model = TfIdfModel::fit(
        a_profiles
            .iter()
            .map(|p| (format!("a/{}", p.object.accession), p.text.clone()))
            .chain(
                b_profiles
                    .iter()
                    .map(|p| (format!("b/{}", p.object.accession), p.text.clone())),
            ),
    );

    let mut candidates: HashSet<(usize, usize)> = HashSet::new();

    // 1. Existing explicit links between the pair.
    for link in existing_links {
        let (a_obj, b_obj) = if link.from.source == a_db.name() && link.to.source == b_db.name() {
            (&link.from, &link.to)
        } else if link.from.source == b_db.name() && link.to.source == a_db.name() {
            (&link.to, &link.from)
        } else {
            continue;
        };
        if let (Some(&i), Some(&j)) = (
            a_index.get(a_obj.accession.as_str()),
            b_index.get(b_obj.accession.as_str()),
        ) {
            candidates.insert((i, j));
        }
    }

    // 2. Mode-dependent generation.
    match config.duplicate_candidate_mode {
        DuplicateCandidates::Exhaustive => {
            // The legacy all-vs-all pass: an uncapped join over every shared
            // identifier value, then TF-IDF nearest neighbours where every
            // object is compared against every document of both sources.
            let mut b_by_identifier: HashMap<&str, Vec<usize>> = HashMap::new();
            for (i, p) in b_profiles.iter().enumerate() {
                for id in &p.identifiers {
                    b_by_identifier.entry(id.as_str()).or_default().push(i);
                }
            }
            for (i, p) in a_profiles.iter().enumerate() {
                for id in &p.identifiers {
                    if let Some(matches) = b_by_identifier.get(id.as_str()) {
                        for &j in matches {
                            candidates.insert((i, j));
                        }
                    }
                }
            }
            for (i, p) in a_profiles.iter().enumerate() {
                if p.text.is_empty() {
                    continue;
                }
                for (doc, _) in model.most_similar(&p.text, config.duplicate_candidates, &[]) {
                    if let Some(acc) = doc.strip_prefix("b/") {
                        if let Some(&j) = b_index.get(acc) {
                            candidates.insert((i, j));
                        }
                    }
                }
            }
        }
        DuplicateCandidates::Blocked => {
            // Identifier matches are folded into the (capped) blocking keys;
            // only the sorted-neighbourhood window and the seeds add to them.
            blocked_candidates(&a_profiles, &b_profiles, config, &mut candidates);
        }
    }

    // Score candidates in deterministic order, with each profile vectorized
    // exactly once for the TF-IDF measure.
    let mut ordered: Vec<(usize, usize)> = candidates.into_iter().collect();
    ordered.sort_unstable();
    let vectors: Option<(Vec<SparseVector>, Vec<SparseVector>)> =
        (config.duplicate_measure == DuplicateMeasure::TfIdf).then(|| {
            (
                a_profiles
                    .iter()
                    .map(|p| model.vectorize(&p.text))
                    .collect(),
                b_profiles
                    .iter()
                    .map(|p| model.vectorize(&p.text))
                    .collect(),
            )
        });

    let mut links = Vec::new();
    let candidates_scored = ordered.len();
    // Only the blocked mode prunes — the exhaustive mode is the pre-blocking
    // pipeline kept bit-for-bit as baseline.
    let floor = (config.duplicate_candidate_mode == DuplicateCandidates::Blocked)
        .then_some(config.duplicate_threshold);
    for (i, j) in ordered {
        let a = &a_profiles[i];
        let b = &b_profiles[j];
        let pair_vectors = vectors.as_ref().map(|(va, vb)| (&va[i], &vb[j]));
        let Some(score) = profile_similarity(a, b, config.duplicate_measure, pair_vectors, floor)
        else {
            continue;
        };
        if score >= config.duplicate_threshold {
            links.push(Link {
                from: a.object.clone(),
                to: b.object.clone(),
                kind: LinkKind::Duplicate,
                score,
                evidence: format!("{:?} similarity {score:.2}", config.duplicate_measure),
            });
        }
    }
    links.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.from.cmp(&y.from))
            .then_with(|| x.to.cmp(&y.to))
    });
    Ok(DuplicateOutcome {
        links,
        candidates_scored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_database;
    use aladin_relstore::{ColumnDef, TableSchema, Value};
    use proptest::prelude::*;

    fn seq(base: &str, n: usize) -> String {
        base.repeat(n)
    }

    fn protkb() -> Database {
        let mut db = Database::new("protkb");
        db.create_table(
            "entries",
            TableSchema::of(vec![
                ColumnDef::text("acc"),
                ColumnDef::text("name"),
                ColumnDef::text("description"),
                ColumnDef::text("sequence"),
            ]),
        )
        .unwrap();
        // Name lengths vary widely so the name column is (correctly) not an
        // accession candidate and `acc` remains the accession column.
        let rows = [
            (
                "P10001",
                "STK1_HUMAN",
                "serine threonine kinase 1 involved in cell cycle regulation",
                seq("MKTAYIAKQRQISFVKSHFSRQ", 3),
            ),
            (
                "P10002",
                "GLUT1_TRANSPORTER_HUMAN",
                "glucose membrane transporter of the plasma membrane",
                seq("GGGGWWWWLLLLNNNNPPPPRRRR", 3),
            ),
            (
                "P10003",
                "RB_HUMAN",
                "ribosomal assembly factor for the small subunit",
                seq("AAAACCCCDDDDEEEEFFFFHHHH", 3),
            ),
        ];
        for (acc, name, desc, sequence) in rows {
            db.insert(
                "entries",
                vec![
                    Value::text(acc),
                    Value::text(name),
                    Value::text(desc),
                    Value::text(sequence),
                ],
            )
            .unwrap();
        }
        db
    }

    fn archive(with_ref: bool) -> Database {
        let mut db = Database::new("archive");
        db.create_table(
            "archive_proteins",
            TableSchema::of(vec![
                ColumnDef::text("archive_id"),
                ColumnDef::text("protein_name"),
                ColumnDef::text("function_note"),
                ColumnDef::text("sequence"),
                ColumnDef::text("uniprot_ref"),
            ]),
        )
        .unwrap();
        let rows = [
            (
                "PA0001",
                "serine threonine kinase 1 (STK1)",
                "probable serine threonine kinase 1 associated with cell cycle regulation",
                seq("MKTAYIAKQRQISFVKSHFSRQ", 3),
                if with_ref { "P10001" } else { "" },
            ),
            (
                "PA0002",
                "heat shock chaperone (HSP)",
                "heat shock chaperone responding to oxidative stress in the cytoplasm",
                seq("YYYYTTTTKKKKMMMMSSSSVVVV", 3),
                "",
            ),
        ];
        for (acc, name, note, sequence, uref) in rows {
            db.insert(
                "archive_proteins",
                vec![
                    Value::text(acc),
                    Value::text(name),
                    Value::text(note),
                    Value::text(sequence),
                    if uref.is_empty() {
                        Value::Null
                    } else {
                        Value::text(uref)
                    },
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
            duplicate_threshold: 0.5,
            ..Default::default()
        }
    }

    /// The sequence ramp as it was computed before the composition bound:
    /// always aligned.
    fn aligned_ramp(sa: &str, sb: &str) -> f64 {
        let alphabet = Alphabet::detect(sa).unwrap_or(Alphabet::Protein);
        let alignment = local_align(sa, sb, &ScoringScheme::for_alphabet(alphabet));
        let shorter = sa.len().min(sb.len()).max(1);
        let similarity = alignment.identity()
            * (alignment.alignment_length.min(shorter) as f64 / shorter as f64);
        ((similarity - 0.8) / 0.2).clamp(0.0, 1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_bounded_ramp_equals_the_aligned_one(
            a in prop_oneof!["[ACGT]{0,60}", "[ACDEFGHIKLMNPQRSTVWY]{0,60}", "[ACGTacgt é–]{0,40}"],
            tail in "[ACGTMKLV]{0,12}",
            keep in 0usize..60,
        ) {
            // A prefix of `a` plus a tail: similarities on both sides of 0.8.
            let b: String = a.chars().take(keep).chain(tail.chars()).collect();
            prop_assert_eq!(sequence_ramp(&a, &b).to_bits(), aligned_ramp(&a, &b).to_bits());
            prop_assert_eq!(sequence_ramp(&b, &a).to_bits(), aligned_ramp(&b, &a).to_bits());
        }
    }

    #[test]
    fn profiles_capture_text_sequence_and_identifiers() {
        let db = protkb();
        let cfg = config();
        let structure = analyze_database(&db, &cfg).unwrap();
        let profiles = build_profiles(&db, &structure).unwrap();
        assert_eq!(profiles.len(), 3);
        let p1 = profiles
            .iter()
            .find(|p| p.object.accession == "P10001")
            .unwrap();
        assert!(p1.text.contains("serine threonine kinase"));
        assert!(p1.sequence.is_some());
        assert!(p1.identifiers.contains("P10001"));
        assert!(p1.identifiers.contains("STK1_HUMAN"));
        let p2 = profiles
            .iter()
            .find(|p| p.object.accession == "P10002")
            .unwrap();
        assert!(p2.identifiers.contains("GLUT1_TRANSPORTER_HUMAN"));
    }

    #[test]
    fn detects_duplicates_by_annotation_and_sequence_similarity() {
        let cfg = config();
        let a = protkb();
        let b = archive(false);
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let dups = detect_duplicates(&a, &sa, &b, &sb, &[], &cfg)
            .unwrap()
            .links;
        assert!(dups
            .iter()
            .any(|d| d.from.accession == "P10001" && d.to.accession == "PA0001"));
        // The unrelated archive entry is not a duplicate of anything.
        assert!(!dups.iter().any(|d| d.to.accession == "PA0002"));
        assert!(dups.iter().all(|d| d.kind == LinkKind::Duplicate));
        assert!(dups.iter().all(|d| d.score >= cfg.duplicate_threshold));
    }

    #[test]
    fn shared_accession_values_boost_the_score() {
        let cfg = config();
        let a = protkb();
        let without_ref = {
            let b = archive(false);
            let sa = analyze_database(&a, &cfg).unwrap();
            let sb = analyze_database(&b, &cfg).unwrap();
            detect_duplicates(&a, &sa, &b, &sb, &[], &cfg)
                .unwrap()
                .links
                .into_iter()
                .find(|d| d.from.accession == "P10001" && d.to.accession == "PA0001")
                .expect("duplicate must be found even without the reference")
                .score
        };
        let with_ref = {
            let b = archive(true); // carries uniprot_ref = P10001
            let sa = analyze_database(&a, &cfg).unwrap();
            let sb = analyze_database(&b, &cfg).unwrap();
            detect_duplicates(&a, &sa, &b, &sb, &[], &cfg)
                .unwrap()
                .links
                .into_iter()
                .find(|d| d.from.accession == "P10001" && d.to.accession == "PA0001")
                .expect("shared accession must be flagged")
                .score
        };
        assert!(with_ref >= without_ref);
        assert!(with_ref >= cfg.duplicate_threshold);
    }

    #[test]
    fn equal_accessions_across_sources_are_conclusive() {
        // The PDB three-flavour case: the same accession in two sources.
        let profile = |source: &str, text: &str| ObjectProfile {
            object: ObjectRef::new(source, "structures", "1ABC"),
            text: text.to_string(),
            sequence: None,
            identifiers: HashSet::from(["1ABC".to_string()]),
        };
        let a = profile("structdb", "crystal structure of a kinase");
        let b = profile("structdb_msd", "CRYSTAL STRUCTURE OF A KINASE");
        assert_eq!(
            profile_similarity(&a, &b, DuplicateMeasure::QGram, None, None),
            Some(1.0)
        );
    }

    #[test]
    fn referencing_objects_are_not_duplicates_of_their_targets() {
        // An interaction record listing P10001 as a participant shares the
        // identifier but has nothing else in common with the protein entry.
        let protein = ObjectProfile {
            object: ObjectRef::new("protkb", "entries", "P10001"),
            text: "serine threonine kinase involved in cell cycle regulation Homo sapiens".into(),
            sequence: Some("MKTAYIAKQRQISFVKSHFSRQ".repeat(3)),
            identifiers: HashSet::from(["P10001".to_string(), "STK1_HUMAN".to_string()]),
        };
        let interaction = ObjectProfile {
            object: ObjectRef::new("interactdb", "interactions_interaction", "BI-000001"),
            text: "two hybrid 0.87 bait prey".into(),
            sequence: None,
            identifiers: HashSet::from(["BI-000001".to_string(), "P10001".to_string()]),
        };
        let score = profile_similarity(&protein, &interaction, DuplicateMeasure::TfIdf, None, None)
            .unwrap();
        assert!(score < 0.5, "referencing object scored {score:.2}");
    }

    #[test]
    fn duplicate_measures_are_ablatable() {
        let a = protkb();
        let b = archive(false);
        for measure in [
            DuplicateMeasure::EditDistance,
            DuplicateMeasure::QGram,
            DuplicateMeasure::TfIdf,
        ] {
            let cfg = AladinConfig {
                duplicate_measure: measure,
                duplicate_threshold: 0.4,
                ..config()
            };
            let sa = analyze_database(&a, &cfg).unwrap();
            let sb = analyze_database(&b, &cfg).unwrap();
            let dups = detect_duplicates(&a, &sa, &b, &sb, &[], &cfg)
                .unwrap()
                .links;
            assert!(
                dups.iter()
                    .any(|d| d.from.accession == "P10001" && d.to.accession == "PA0001"),
                "measure {measure:?} missed the true duplicate"
            );
        }
    }

    #[test]
    fn existing_links_seed_candidates() {
        let cfg = AladinConfig {
            duplicate_candidates: 0, // disable nearest-neighbour generation
            ..config()
        };
        let a = protkb();
        let b = archive(false);
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let seed = Link {
            from: ObjectRef::new("protkb", "entries", "P10001"),
            to: ObjectRef::new("archive", "archive_proteins", "PA0001"),
            kind: LinkKind::ExplicitCrossRef,
            score: 1.0,
            evidence: "seed".into(),
        };
        let dups = detect_duplicates(&a, &sa, &b, &sb, &[seed], &cfg)
            .unwrap()
            .links;
        assert!(dups
            .iter()
            .any(|d| d.from.accession == "P10001" && d.to.accession == "PA0001"));
    }

    #[test]
    fn empty_sources_produce_no_duplicates() {
        let cfg = config();
        let a = protkb();
        let sa = analyze_database(&a, &cfg).unwrap();
        let mut empty = Database::new("empty");
        empty
            .create_table("t", TableSchema::of(vec![ColumnDef::text("acc")]))
            .unwrap();
        let se = SourceStructure {
            source: "empty".into(),
            ..Default::default()
        };
        for mode in [
            DuplicateCandidates::Exhaustive,
            DuplicateCandidates::Blocked,
        ] {
            let cfg = AladinConfig {
                duplicate_candidate_mode: mode,
                ..cfg.clone()
            };
            let outcome = detect_duplicates(&a, &sa, &empty, &se, &[], &cfg).unwrap();
            assert!(outcome.links.is_empty(), "mode {mode:?}");
            assert_eq!(outcome.candidates_scored, 0, "mode {mode:?}");
        }
    }

    #[test]
    fn blocked_mode_finds_the_same_duplicates_as_exhaustive_here() {
        let a = protkb();
        let b = archive(false);
        let run = |mode: DuplicateCandidates| {
            let cfg = AladinConfig {
                duplicate_candidate_mode: mode,
                ..config()
            };
            let sa = analyze_database(&a, &cfg).unwrap();
            let sb = analyze_database(&b, &cfg).unwrap();
            detect_duplicates(&a, &sa, &b, &sb, &[], &cfg)
                .unwrap()
                .links
        };
        let exhaustive = run(DuplicateCandidates::Exhaustive);
        let blocked = run(DuplicateCandidates::Blocked);
        // Every pair the exhaustive path reports above the threshold is also
        // reported (with an identical score) by the blocked path.
        for link in &exhaustive {
            assert!(
                blocked.iter().any(|l| l.from == link.from
                    && l.to == link.to
                    && (l.score - link.score).abs() < 1e-12),
                "blocked path dropped {} -> {}",
                link.from,
                link.to
            );
        }
        assert!(blocked
            .iter()
            .any(|d| d.from.accession == "P10001" && d.to.accession == "PA0001"));
    }

    /// One source whose every row shares the same name token: the shared
    /// block exceeds the cap and is skipped, candidate generation stays
    /// near-linear, and the one true duplicate (equal accession across the
    /// sources) is still found through its accession-prefix block.
    #[test]
    fn oversized_blocks_are_skipped_without_losing_accession_matches() {
        let make = |name: &str, rows: usize| {
            let mut db = Database::new(name);
            db.create_table(
                "entries",
                TableSchema::of(vec![ColumnDef::text("acc"), ColumnDef::text("description")]),
            )
            .unwrap();
            for i in 0..rows {
                db.insert(
                    "entries",
                    vec![
                        Value::text(format!("L{i:04}")),
                        Value::text(format!("ubiquitous chaperone protein variant {i}")),
                    ],
                )
                .unwrap();
            }
            db
        };
        let cfg = AladinConfig {
            duplicate_candidate_mode: DuplicateCandidates::Blocked,
            duplicate_block_cap: 8,
            duplicate_window: 2,
            duplicate_threshold: 0.99,
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let a = make("left", 40);
        let b = make("right", 40);
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let outcome = detect_duplicates(&a, &sa, &b, &sb, &[], &cfg).unwrap();
        // The common tokens ("ubiquitous", "chaperone", ...) block 40 objects
        // per side and are skipped; candidates come from equal accessions,
        // accession prefixes, distinct variant ordinals and the window — far
        // fewer than the 1600 all-vs-all pairs.
        assert!(
            outcome.candidates_scored < 800,
            "scored {} pairs",
            outcome.candidates_scored
        );
        // Equal accessions across the sources are conclusive duplicates and
        // must all survive the cap.
        assert_eq!(outcome.links.len(), 40);
        assert!(outcome.links.iter().all(|l| l.score == 1.0));
    }

    #[test]
    fn unicode_and_whitespace_only_names_are_handled() {
        let make = |name: &str, label: &str| {
            let mut db = Database::new(name);
            db.create_table(
                "entries",
                TableSchema::of(vec![ColumnDef::text("acc"), ColumnDef::text("description")]),
            )
            .unwrap();
            for (i, desc) in [label, "   ", "\t\u{00a0}\u{3000}"].iter().enumerate() {
                db.insert(
                    "entries",
                    vec![Value::text(format!("X{i:04}")), Value::text(*desc)],
                )
                .unwrap();
            }
            db
        };
        let cfg = AladinConfig {
            duplicate_candidate_mode: DuplicateCandidates::Blocked,
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        // Identical Greek descriptions plus equal accessions across sources.
        let a = make("alpha", "πρωτεΐνη κινάση ενεργοποιημένη από μιτογόνο");
        let b = make("beta", "πρωτεΐνη κινάση ενεργοποιημένη από μιτογόνο");
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let outcome = detect_duplicates(&a, &sa, &b, &sb, &[], &cfg).unwrap();
        // Equal accessions across sources are conclusive even for the
        // whitespace-only rows; nothing panics on non-ASCII tokenisation.
        assert!(outcome.links.len() >= 3, "found {}", outcome.links.len());
        assert!(outcome.links.iter().any(|l| l.score == 1.0));
    }

    #[test]
    fn blocking_keys_normalise_unicode_and_skip_blank_text() {
        let profile = |acc: &str, text: &str| ObjectProfile {
            object: ObjectRef::new("src", "entries", acc),
            text: text.to_string(),
            sequence: None,
            identifiers: HashSet::from([acc.to_string()]),
        };
        let greek = profile("Πρ0001", "Κινάση ΕΝΕΡΓΗ 7");
        let pool = token_pool(&greek);
        assert!(pool.iter().any(|t| t == "κινάση"), "pool: {pool:?}");
        assert_eq!(accession_key(&greek).as_deref(), Some("acc:πρ00"));
        // Single-character tokens are dropped as non-discriminative.
        assert!(!pool.iter().any(|t| t == "7"));

        let blank = profile(" ", "  \t ");
        assert!(token_pool(&blank).is_empty());
        assert!(accession_key(&blank).is_none());
        assert_eq!(neighbourhood_key(&blank), "");
        assert_eq!(neighbourhood_key(&greek), "κινάση ενεργη 7");
    }

    #[test]
    fn sorted_neighbourhood_window_pairs_adjacent_texts() {
        let profile = |source: &str, acc: &str, text: &str| ObjectProfile {
            object: ObjectRef::new(source, "entries", acc),
            text: text.to_string(),
            sequence: None,
            identifiers: HashSet::new(),
        };
        // No shared tokens of length >= 2 between the pair (so no token
        // block), but adjacent in sort order: the window must pair them.
        let a_profiles = vec![profile("a", "A1", "zz q")];
        let b_profiles = vec![profile("b", "B1", "zy w")];
        let mut candidates = HashSet::new();
        let cfg = AladinConfig {
            duplicate_block_cap: 0, // every block over-caps: only the window acts
            duplicate_window: 3,
            ..Default::default()
        };
        blocked_candidates(&a_profiles, &b_profiles, &cfg, &mut candidates);
        assert!(candidates.contains(&(0, 0)));

        let mut no_window = HashSet::new();
        let cfg = AladinConfig {
            duplicate_window: 0,
            ..cfg
        };
        blocked_candidates(&a_profiles, &b_profiles, &cfg, &mut no_window);
        assert!(no_window.is_empty());
    }
}
