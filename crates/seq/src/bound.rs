//! An upper bound on how similar a local alignment of two sequences can be,
//! from their byte composition alone.
//!
//! [`local_align`](crate::align::local_align) counts an identity where a
//! query byte is aligned with an equal subject byte, and an alignment uses
//! each position of either sequence at most once. Two sequences therefore
//! share at most Σ over bytes b of min(count in one, count in the other)
//! identities: [`Composition::shared`]. The similarity callers threshold,
//! identity × coverage of the shorter sequence as in
//! [`HomologyHit::similarity`](crate::blast::HomologyHit::similarity), is at
//! most identities ÷ the shorter length. [`may_reach`] compares that bound
//! with a floor, so a pair it rules out needs no alignment at all.
//!
//! The counts and lengths must be those of the bytes the kernel compares:
//! the normalized sequences inside a [`BlastIndex`](crate::blast::BlastIndex),
//! the raw strings where a caller aligns raw strings. A length shorter than
//! the one the caller divides by only loosens the bound.

use std::cmp::Ordering;

/// How far under a floor a bound must fall to rule a pair out. The computed
/// similarity is a product of two rounded quotients, so it may exceed the
/// exact identities ÷ shorter length by a few ulps.
const MARGIN: f64 = 1e-9;

/// The byte composition of a sequence: each byte value that occurs, with its
/// count, by ascending byte. Sparse, so an index can keep one per subject: a
/// DNA sequence has at most five entries, a protein about twenty.
#[derive(Debug, Clone)]
pub struct Composition(Box<[(u8, u32)]>);

impl Composition {
    /// Count the bytes of `sequence`.
    pub fn of(sequence: &str) -> Composition {
        let mut counts = [0usize; 256];
        for &byte in sequence.as_bytes() {
            counts[usize::from(byte)] += 1;
        }
        Composition(
            (0..=u8::MAX)
                .zip(counts)
                .filter(|&(_, count)| count > 0)
                .map(|(byte, count)| (byte, u32::try_from(count).unwrap_or(u32::MAX)))
                .collect(),
        )
    }

    /// The most identities any local alignment of a sequence with this
    /// composition against one with `other` can have: Σ over bytes of the
    /// smaller count. A count saturated at `u32::MAX` (a sequence of 4 GiB
    /// or more) on both sides bounds nothing.
    pub fn shared(&self, other: &Composition) -> usize {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j, mut shared) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let common = a[i].1.min(b[j].1);
                    if common == u32::MAX {
                        return usize::MAX;
                    }
                    shared += common as usize;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }
}

/// Whether two sequences of `len_a` and `len_b` bytes that share at most
/// `shared` identities can align with a similarity of at least `floor`.
/// `false` proves they cannot; `true` only means the bound does not rule
/// them out.
pub fn may_reach(shared: usize, len_a: usize, len_b: usize, floor: f64) -> bool {
    shared as f64 / len_a.min(len_b).max(1) as f64 >= floor - MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::local_align;
    use crate::alphabet::normalize_sequence;
    use crate::blast::HomologyHit;
    use crate::score::ScoringScheme;
    use proptest::prelude::*;

    /// DNA, protein, mixed-case, whitespace and non-ASCII strings, empty and
    /// length 1 included.
    fn sequences() -> impl Strategy<Value = String> {
        prop_oneof![
            "[ACGT]{0,40}",
            "[AC]{0,30}",
            "[ACDEFGHIKLMNPQRSTVWY]{0,40}",
            "[ACGTNacgtnMKLVmklv \t]{0,30}",
            "[ -~\t–ΑΒéÿ]{0,20}",
            "[ACGTW]{0,1}",
        ]
    }

    /// The similarity `HomologyHit::similarity` reports for an alignment of
    /// sequences of these lengths.
    fn similarity(
        query: &str,
        subject: &str,
        lengths: (usize, usize),
        scheme: &ScoringScheme,
    ) -> f64 {
        let hit = HomologyHit {
            subject_id: String::new(),
            seeds: 0,
            alignment: local_align(query, subject, scheme),
        };
        hit.similarity(lengths.0, lengths.1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_bound_is_never_below_the_computed_similarity(
            query in sequences(),
            other in sequences(),
            prefix in 0usize..8,
        ) {
            // A shared prefix makes high similarities common.
            let prefix: String = query.chars().take(prefix).collect();
            let subject = format!("{prefix}{other}");
            for scheme in [ScoringScheme::nucleotide(), ScoringScheme::protein()] {
                // Raw strings, as duplicate scoring aligns them.
                let shared = Composition::of(&query).shared(&Composition::of(&subject));
                let raw = (query.len(), subject.len());
                let sim = similarity(&query, &subject, raw, &scheme);
                prop_assert!(may_reach(shared, raw.0, raw.1, sim), "{query:?} {subject:?}");
                prop_assert!(shared as f64 / raw.0.min(raw.1).max(1) as f64 >= sim - 1e-12);

                // Normalized bytes, as a `BlastIndex` aligns them; its
                // callers divide by the raw lengths.
                let (q, s) = (normalize_sequence(&query), normalize_sequence(&subject));
                let shared = Composition::of(&q).shared(&Composition::of(&s));
                let sim = similarity(&q, &s, raw, &scheme);
                prop_assert!(may_reach(shared, q.len(), s.len(), sim), "{q:?} {s:?}");
            }
        }
    }

    #[test]
    fn compositions_are_sparse_and_sorted() {
        assert!(Composition::of("").0.is_empty());
        assert_eq!(
            Composition::of("GATTACA").0.as_ref(),
            &[(b'A', 3), (b'C', 1), (b'G', 1), (b'T', 2)]
        );
        assert_eq!(Composition::of("é").0.as_ref(), &[(0xA9, 1), (0xC3, 1)]);
    }

    #[test]
    fn shared_takes_the_smaller_count_of_each_common_byte() {
        let dna = Composition::of("AACCGGTT");
        assert_eq!(dna.shared(&Composition::of("AAAA")), 2);
        assert_eq!(dna.shared(&Composition::of("ACGT")), 4);
        assert_eq!(dna.shared(&Composition::of("MKLV")), 0);
        assert_eq!(dna.shared(&Composition::of("")), 0);
        assert_eq!(
            Composition::of("acgt").shared(&Composition::of("ACGT")),
            0,
            "case matters: the kernel compares bytes"
        );
    }

    #[test]
    fn saturated_counts_on_both_sides_bound_nothing() {
        let huge = Composition(Box::new([(b'A', u32::MAX), (b'C', 7)]));
        assert_eq!(huge.shared(&huge), usize::MAX);
        assert_eq!(huge.shared(&Composition::of("AAC")), 3);
    }

    #[test]
    fn may_reach_divides_by_the_shorter_length() {
        assert!(may_reach(8, 10, 100, 0.8));
        assert!(!may_reach(7, 10, 100, 0.8));
        assert!(may_reach(0, 0, 0, 0.0));
        assert!(!may_reach(0, 0, 5, 0.5));
        // The margin keeps a bound equal to the floor, up to rounding.
        assert!(may_reach(4, 5, 5, 0.8 + 1e-12));
    }
}
