//! Seed-and-extend homology search (a BLAST-like heuristic).
//!
//! The exact Smith-Waterman alignment in [`crate::align`] is quadratic per
//! pair; comparing every sequence field value of one source against every
//! value of another source would be far too slow for link discovery. Like
//! BLAST, [`BlastIndex`] first selects candidate subjects by counting shared
//! k-mer seeds and only then aligns the best candidates exactly. Each
//! candidate is scored first, without a traceback; the full alignment runs
//! only for a candidate whose score reaches the alphabet's minimum (20 for
//! nucleotides, 30 for proteins).
//! `aladin-core` turns the resulting [`HomologyHit`]s into implicit links
//! between objects.
//!
//! A caller that keeps only hits of some [`HomologyHit::similarity`] calls
//! [`BlastIndex::search_similar`] with that floor. It drops a seeded
//! candidate before the score pass when the [`crate::bound`] on its byte
//! composition shows the similarity cannot reach the floor, so it returns
//! exactly the hits of [`BlastIndex::search`] whose similarity can. The
//! index counts each subject's bytes once, when the subject is added.

use crate::align::{local_align, local_score, Alignment};
use crate::alphabet::Alphabet;
use crate::bound::{may_reach, Composition};
use crate::kmer::KmerIndex;
use crate::score::ScoringScheme;

/// Parameters of the seeded homology search.
#[derive(Debug, Clone)]
struct BlastParams {
    /// K-mer word size used for seeding (BLAST uses 11 for DNA, 3 for
    /// proteins; the defaults here follow that split).
    word_size: usize,
    /// Minimum number of shared seeds for a subject to be considered.
    min_seeds: usize,
    /// Maximum number of candidate subjects to align per query.
    max_candidates: usize,
    /// Minimum alignment score for a hit to be reported.
    min_score: i32,
    /// Minimum identity fraction for a hit to be reported.
    min_identity: f64,
}

impl BlastParams {
    /// Default parameters for an alphabet.
    fn for_alphabet(alphabet: Alphabet) -> BlastParams {
        if alphabet.is_nucleotide() {
            BlastParams {
                word_size: 8,
                min_seeds: 2,
                max_candidates: 25,
                min_score: 20,
                min_identity: 0.7,
            }
        } else {
            BlastParams {
                word_size: 3,
                min_seeds: 2,
                max_candidates: 25,
                min_score: 30,
                min_identity: 0.4,
            }
        }
    }
}

/// A reported homology hit between a query and an indexed subject.
#[derive(Debug, Clone, PartialEq)]
pub struct HomologyHit {
    /// Identifier of the subject sequence (as registered in the index).
    pub subject_id: String,
    /// Number of shared k-mer seeds.
    pub seeds: usize,
    /// The local alignment of query vs. subject.
    pub alignment: Alignment,
}

impl HomologyHit {
    /// A normalized similarity in `[0, 1]`: identity weighted by how much of
    /// the shorter sequence is covered by the alignment.
    pub fn similarity(&self, query_len: usize, subject_len: usize) -> f64 {
        let shorter = query_len.min(subject_len).max(1);
        let coverage = self.alignment.alignment_length.min(shorter) as f64 / shorter as f64;
        self.alignment.identity() * coverage
    }
}

/// A searchable collection of subject sequences.
#[derive(Debug, Clone)]
pub struct BlastIndex {
    params: BlastParams,
    scheme: ScoringScheme,
    kmers: KmerIndex,
    sequences: Vec<String>,
    /// The byte composition of each normalized subject, by ordinal.
    compositions: Vec<Composition>,
}

impl BlastIndex {
    /// Create an empty index for the given alphabet with default parameters.
    pub fn new(alphabet: Alphabet) -> BlastIndex {
        let params = BlastParams::for_alphabet(alphabet);
        BlastIndex {
            kmers: KmerIndex::new(params.word_size),
            scheme: ScoringScheme::for_alphabet(alphabet),
            params,
            sequences: Vec::new(),
            compositions: Vec::new(),
        }
    }

    /// Number of indexed subject sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True if no subjects are indexed.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Add a subject sequence under an identifier.
    pub fn add(&mut self, id: impl Into<String>, sequence: &str) {
        let normalized = crate::alphabet::normalize_sequence(sequence);
        self.kmers.add_sequence(id, &normalized);
        self.compositions.push(Composition::of(&normalized));
        self.sequences.push(normalized);
    }

    /// Search for homologs of `query`, returning hits sorted by descending
    /// alignment score.
    pub fn search(&self, query: &str) -> Vec<HomologyHit> {
        self.seeded(query, None)
    }

    /// [`search`](Self::search) for a caller that keeps only hits whose
    /// [`HomologyHit::similarity`] reaches `min_similarity`, with the raw
    /// query and subject lengths or any lengths at least the normalized
    /// ones. Returns every such hit of `search`, with identical fields, and
    /// nothing `search` does not return. A candidate whose composition
    /// bound falls below the floor is dropped before its score pass.
    pub fn search_similar(&self, query: &str, min_similarity: f64) -> Vec<HomologyHit> {
        self.seeded(query, Some(min_similarity))
    }

    /// The seeded search, with the composition bound applied when a
    /// similarity floor is given.
    fn seeded(&self, query: &str, min_similarity: Option<f64>) -> Vec<HomologyHit> {
        let query = crate::alphabet::normalize_sequence(query);
        if query.is_empty() || self.is_empty() {
            return Vec::new();
        }
        let bound = min_similarity.map(|floor| (floor, Composition::of(&query)));
        let candidates = self
            .kmers
            .seed_counts(&query)
            .into_iter()
            .take(self.params.max_candidates)
            .filter(|&(_, seeds)| seeds >= self.params.min_seeds)
            .filter(|&(ordinal, _)| {
                bound.as_ref().is_none_or(|(floor, composition)| {
                    let shared = composition.shared(&self.compositions[ordinal]);
                    may_reach(shared, query.len(), self.sequences[ordinal].len(), *floor)
                })
            });
        self.hits(&query, candidates)
    }

    /// Exact (unseeded) search: Smith-Waterman against every subject. Used by
    /// the E9 ablation to quantify what the seeding heuristic trades away.
    pub fn search_exact(&self, query: &str) -> Vec<HomologyHit> {
        let query = crate::alphabet::normalize_sequence(query);
        if query.is_empty() {
            return Vec::new();
        }
        self.hits(
            &query,
            (0..self.sequences.len()).map(|ordinal| (ordinal, 0)),
        )
    }

    /// Align the normalized `query` against each `(subject ordinal, seeds)`
    /// candidate and keep the hits that reach both `min_score` and
    /// `min_identity`, by descending score, then subject id. The score pass
    /// decides first; the traceback runs only for a score that reaches
    /// `min_score`, which drops nothing a full alignment would have kept.
    fn hits(
        &self,
        query: &str,
        candidates: impl Iterator<Item = (usize, usize)>,
    ) -> Vec<HomologyHit> {
        let mut hits: Vec<HomologyHit> = candidates
            .filter_map(|(ordinal, seeds)| {
                let subject = &self.sequences[ordinal];
                if local_score(query, subject, &self.scheme) < self.params.min_score {
                    return None;
                }
                let alignment = local_align(query, subject, &self.scheme);
                (alignment.identity() >= self.params.min_identity).then(|| HomologyHit {
                    subject_id: self
                        .kmers
                        .sequence_id(ordinal)
                        .unwrap_or_default()
                        .to_string(),
                    seeds,
                    alignment,
                })
            })
            .collect();
        hits.sort_by(|a, b| {
            b.alignment
                .score
                .cmp(&a.alignment.score)
                .then_with(|| a.subject_id.cmp(&b.subject_id))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn dna_index() -> BlastIndex {
        let mut idx = BlastIndex::new(Alphabet::Dna);
        idx.add("seq_a", "ACGTACGTACGTACGTACGTACGTACGT");
        idx.add("seq_b", "TTTTGGGGCCCCAAAATTTTGGGGCCCC");
        // seq_c shares a long region with seq_a
        idx.add("seq_c", "GGGGACGTACGTACGTACGTGGGG");
        idx
    }

    #[test]
    fn finds_homologous_sequences() {
        let idx = dna_index();
        let hits = idx.search("ACGTACGTACGTACGTACGT");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, "seq_a");
        assert!(hits.iter().any(|h| h.subject_id == "seq_c"));
        assert!(hits.iter().all(|h| h.subject_id != "seq_b"));
        assert!(hits[0].alignment.identity() > 0.95);
    }

    #[test]
    fn unrelated_query_yields_nothing() {
        let idx = dna_index();
        let hits = idx.search("CACACACACACACACACACA");
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_query_or_index() {
        let idx = dna_index();
        assert!(idx.search("").is_empty());
        let empty = BlastIndex::new(Alphabet::Dna);
        assert!(empty.is_empty());
        assert!(empty.search("ACGTACGT").is_empty());
        assert_eq!(dna_index().len(), 3);
    }

    #[test]
    fn exact_search_is_a_superset_of_seeded_search() {
        let idx = dna_index();
        let query = "ACGTACGTACGTACGTACGT";
        let seeded: Vec<String> = idx
            .search(query)
            .into_iter()
            .map(|h| h.subject_id)
            .collect();
        let exact: Vec<String> = idx
            .search_exact(query)
            .into_iter()
            .map(|h| h.subject_id)
            .collect();
        for id in &seeded {
            assert!(exact.contains(id));
        }
        assert!(exact.len() >= seeded.len());
    }

    #[test]
    fn similarity_combines_identity_and_coverage() {
        let idx = dna_index();
        let query = "ACGTACGTACGTACGTACGTACGTACGT";
        let hits = idx.search(query);
        let top = &hits[0];
        let sim = top.similarity(query.len(), 28);
        assert!(sim > 0.9);
        // Coverage penalty: same hit against a much longer hypothetical query.
        assert!(top.similarity(1000, 28) >= sim * 0.9);
    }

    #[test]
    fn protein_search_with_conservative_substitutions() {
        let mut idx = BlastIndex::new(Alphabet::Protein);
        idx.add("prot_a", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ");
        idx.add("prot_b", "GGGGGGGGGGWWWWWWWWWWPPPPPPPPPP");
        // Query differs from prot_a by a few conservative substitutions.
        let hits = idx.search("MKTAYIAKQRQLSFVKSHFSRQLEERLGLIEVQ");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, "prot_a");
    }

    #[test]
    fn a_score_equal_to_min_score_is_a_hit() {
        let mut idx = BlastIndex::new(Alphabet::Protein);
        idx.add("prot_a", "MKTAYI");
        assert_eq!(idx.params.min_score, 30);
        for hits in [idx.search("MKTAYI"), idx.search_exact("MKTAYI")] {
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].subject_id, "prot_a");
            assert_eq!(hits[0].alignment.score, 30);
        }
    }

    #[test]
    fn non_ascii_values_are_indexed_and_searched() {
        let note = "MKTAYIAKQR – isoform note, see ΑΒ entry MKTAYIAKQRQISFVKSHFSRQ";
        let mut idx = BlastIndex::new(Alphabet::Protein);
        idx.add("note", note);
        idx.add("plain", "MKTAYIAKQRQISFVKSHFSRQ");
        let hits = idx.search(note);
        assert_eq!(hits[0].subject_id, "note");
        assert!(hits.iter().any(|h| h.subject_id == "plain"));
        assert_eq!(idx.search("MKTAYIAKQRQISFVKSHFSRQ").len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bounded_search_keeps_exactly_the_hits_that_can_reach_the_floor(
            query in prop_oneof![
                "[ACGT]{8,60}",
                "[ACDEFGHIKLMNPQRSTVWY]{6,50}",
                "[ACGTacgt \t]{8,50}",
                "[MKTAYIé–]{4,30}",
            ],
            cuts in prop::collection::vec((0usize..64, 0usize..64, "[ACGTMKLVé ]{0,30}"), 0..10),
            floor in 0.0f64..=1.0,
            nucleotide in any::<bool>(),
        ) {
            let alphabet = if nucleotide { Alphabet::Dna } else { Alphabet::Protein };
            let mut idx = BlastIndex::new(alphabet);
            // Subjects are query fragments with a random tail, so shared
            // seeds and every degree of coverage and identity occur.
            let mut raw_lengths = HashMap::new();
            for (n, (a, b, tail)) in cuts.iter().enumerate() {
                let fragment = query.get(*a.min(b)..*a.max(b)).unwrap_or(&query);
                let subject = format!("{fragment}{tail}");
                raw_lengths.insert(n.to_string(), subject.len());
                idx.add(n.to_string(), &subject);
            }
            let all = idx.search(&query);
            for f in [floor, 0.0, 0.5, 1.0] {
                let bounded = idx.search_similar(&query, f);
                // Nothing `search` does not return, in the same order.
                let mut rest = all.iter();
                for hit in &bounded {
                    prop_assert!(rest.any(|h| h == hit), "{hit:?} not from search");
                }
                // Every hit that reaches the floor.
                for hit in &all {
                    let sim = hit.similarity(query.len(), raw_lengths[&hit.subject_id]);
                    if sim >= f {
                        prop_assert!(bounded.contains(hit), "{hit:?} ({sim}) dropped at {f}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_search_skips_subjects_that_cannot_reach_the_floor() {
        let mut idx = BlastIndex::new(Alphabet::Dna);
        idx.add("same", "ACGTACGTACGTACGTACGT");
        // Shares the seeds, but only 12 of its 20 bytes can pair with the
        // query's: at most 0.6 similarity.
        idx.add("half", "ACGTACGTACGTNNNNNNNN");
        let ids = |hits: Vec<HomologyHit>| -> Vec<String> {
            hits.into_iter().map(|h| h.subject_id).collect()
        };
        assert_eq!(ids(idx.search("ACGTACGTACGTACGTACGT")), ["same", "half"]);
        assert_eq!(
            ids(idx.search_similar("ACGTACGTACGTACGTACGT", 0.6)),
            ["same", "half"]
        );
        assert_eq!(
            ids(idx.search_similar("ACGTACGTACGTACGTACGT", 0.61)),
            ["same"]
        );
    }
}
