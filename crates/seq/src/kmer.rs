//! K-mer indexing of sequence collections (the seeding stage of homology
//! search).

use std::collections::HashMap;

/// An index from k-mers to the sequences (and offsets) containing them.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    k: usize,
    /// k-mer → list of (sequence ordinal, offset)
    postings: HashMap<String, Vec<(usize, usize)>>,
    /// Registered sequence ids, by ordinal.
    ids: Vec<String>,
}

impl KmerIndex {
    /// Create an empty index with word size `k` (clamped to at least 2).
    pub fn new(k: usize) -> KmerIndex {
        KmerIndex {
            k: k.max(2),
            postings: HashMap::new(),
            ids: Vec::new(),
        }
    }

    /// The word size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The id of a sequence by ordinal.
    pub fn sequence_id(&self, ordinal: usize) -> Option<&str> {
        self.ids.get(ordinal).map(String::as_str)
    }

    /// Add a sequence under an identifier; returns its ordinal. Sequences
    /// shorter than `k` are registered but contribute no k-mers.
    pub fn add_sequence(&mut self, id: impl Into<String>, sequence: &str) -> usize {
        let ordinal = self.ids.len();
        self.ids.push(id.into());
        for (offset, kmer) in self.windows(sequence) {
            self.postings
                .entry(kmer.to_string())
                .or_default()
                .push((ordinal, offset));
        }
        ordinal
    }

    /// Every `k`-byte window of `sequence` with its byte offset, except the
    /// windows that would cut a multi-byte character: a column that is 90%
    /// sequence-like may still hold the odd non-ASCII note. ASCII input
    /// yields every window.
    fn windows<'a>(&self, sequence: &'a str) -> impl Iterator<Item = (usize, &'a str)> {
        let k = self.k;
        (0..(sequence.len() + 1).saturating_sub(k))
            .filter_map(move |offset| Some((offset, sequence.get(offset..offset + k)?)))
    }

    /// All postings of a k-mer: `(sequence ordinal, offset)` pairs.
    pub fn lookup(&self, kmer: &str) -> &[(usize, usize)] {
        self.postings.get(kmer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Count the number of shared k-mer seeds between the query and every
    /// indexed sequence; returns `(ordinal, seed count)` sorted by descending
    /// count. This is the candidate-selection step of seeded homology search.
    pub fn seed_counts(&self, query: &str) -> Vec<(usize, usize)> {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for (_, kmer) in self.windows(query) {
            if let Some(postings) = self.postings.get(kmer) {
                for (ordinal, _) in postings {
                    *counts.entry(*ordinal).or_insert(0) += 1;
                }
            }
        }
        let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> KmerIndex {
        let mut idx = KmerIndex::new(4);
        idx.add_sequence("s1", "ACGTACGTACGT");
        idx.add_sequence("s2", "TTTTTTTTTTTT");
        idx.add_sequence("s3", "ACGTAAAATTTT");
        idx
    }

    #[test]
    fn counts_and_ids() {
        let idx = index();
        assert_eq!(idx.k(), 4);
        assert_eq!(idx.sequence_id(0), Some("s1"));
        assert_eq!(idx.sequence_id(2), Some("s3"));
        assert_eq!(idx.sequence_id(3), None);
        assert_eq!(idx.sequence_id(9), None);
        // All nine windows of s2 are TTTT; s3 ends in one.
        let offsets = |ordinal| -> Vec<usize> {
            idx.lookup("TTTT")
                .iter()
                .filter(|&&(o, _)| o == ordinal)
                .map(|&(_, offset)| offset)
                .collect()
        };
        assert_eq!(offsets(1), (0..9).collect::<Vec<_>>());
        assert_eq!(offsets(2), [8]);
        // Each of the query's two windows counts every posting it meets.
        assert_eq!(idx.seed_counts("TTTTT"), [(1, 18), (2, 2)]);
    }

    #[test]
    fn lookup_returns_offsets() {
        let idx = index();
        let hits = idx.lookup("ACGT");
        // s1 has ACGT at offsets 0,4,8; s3 at offset 0.
        assert_eq!(hits.iter().filter(|(o, _)| *o == 0).count(), 3);
        assert_eq!(hits.iter().filter(|(o, _)| *o == 2).count(), 1);
        assert!(idx.lookup("GGGG").is_empty());
    }

    #[test]
    fn seed_counts_rank_by_shared_kmers() {
        let idx = index();
        let counts = idx.seed_counts("ACGTACGT");
        assert_eq!(counts[0].0, 0); // s1 shares the most seeds
        assert!(counts.iter().any(|(o, _)| *o == 2)); // s3 shares some
        assert!(!counts.iter().any(|(o, _)| *o == 1)); // s2 shares none
    }

    #[test]
    fn short_sequences_and_queries() {
        let mut idx = KmerIndex::new(5);
        // Registered under an ordinal, but with no k-mers to seed from.
        assert_eq!(idx.add_sequence("tiny", "ACG"), 0);
        assert_eq!(idx.sequence_id(0), Some("tiny"));
        assert!(idx.lookup("ACG").is_empty());
        assert!(idx.seed_counts("ACGTA").is_empty());
        assert!(idx.seed_counts("AC").is_empty());
    }

    #[test]
    fn k_is_clamped() {
        let idx = KmerIndex::new(0);
        assert_eq!(idx.k(), 2);
    }

    #[test]
    fn non_ascii_values_seed_without_panicking() {
        let note = "MKTAYIAKQR – isoform note, see ΑΒ entry MKTAYIAKQRQISFVKSHFSRQ";
        let mut idx = KmerIndex::new(3);
        idx.add_sequence("note", note);
        idx.add_sequence("plain", "MKTAYIAKQRQISFVKSHFSRQ");
        // The three-byte dash cuts four windows, each Greek letter two.
        assert_eq!(idx.windows(note).count(), note.len() - 2 - 8);
        assert_eq!(idx.lookup("MKT"), &[(0, 0), (0, 44), (1, 0)]);
        let counts = idx.seed_counts(note);
        assert_eq!(counts[0].0, 0);
        assert!(counts.iter().any(|&(o, _)| o == 1));
    }
}
