//! Smith-Waterman local alignment.
//!
//! [`local_align`] fills the dynamic-programming matrix one query residue at
//! a time over a single row of `i32` scores, and keeps only a one-byte
//! traceback pointer per cell: O(|query| · |subject|) time and pointer bytes,
//! O(|subject|) scores. `local_score` runs the same recurrence with no
//! pointers at all, so a caller that drops alignments below a score threshold
//! can decide first and pay for the traceback only when the score reaches it.
//! Both read substitution scores from a `Profile`, one 256-entry row of
//! [`ScoringScheme::substitution`] scores per distinct query byte.

use crate::score::ScoringScheme;

/// The result of a local alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Alignment score under the scoring scheme.
    pub score: i32,
    /// Start offset (0-based) of the aligned region in the query.
    pub query_start: usize,
    /// End offset (exclusive) of the aligned region in the query.
    pub query_end: usize,
    /// Start offset (0-based) of the aligned region in the subject.
    pub subject_start: usize,
    /// End offset (exclusive) of the aligned region in the subject.
    pub subject_end: usize,
    /// Number of aligned positions with identical residues.
    pub identities: usize,
    /// Total number of aligned columns (including gaps).
    pub alignment_length: usize,
}

impl Alignment {
    /// Fraction of identical positions over the alignment length, in `[0,1]`.
    pub fn identity(&self) -> f64 {
        if self.alignment_length == 0 {
            0.0
        } else {
            self.identities as f64 / self.alignment_length as f64
        }
    }

    /// An empty (score 0) alignment.
    pub fn empty() -> Alignment {
        Alignment {
            score: 0,
            query_start: 0,
            query_end: 0,
            subject_start: 0,
            subject_end: 0,
            identities: 0,
            alignment_length: 0,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Trace {
    Stop,
    Diagonal,
    Up,
    Left,
}

/// Substitution scores of a query against every byte: one 256-entry row per
/// distinct query byte, filled from [`ScoringScheme::substitution`], so the
/// scheme's fields still define every score.
struct Profile {
    rows: Vec<[i32; 256]>,
    /// The row of each query residue, in query order.
    residues: Vec<u8>,
}

impl Profile {
    fn new(query: &[u8], scheme: &ScoringScheme) -> Profile {
        let mut slot = [None::<u8>; 256];
        let mut rows = Vec::new();
        let residues = query
            .iter()
            .map(|&a| {
                *slot[usize::from(a)].get_or_insert_with(|| {
                    rows.push(std::array::from_fn(|b| scheme.substitution(a, b as u8)));
                    // At most 256 distinct bytes, so the index fits.
                    (rows.len() - 1) as u8
                })
            })
            .collect();
        Profile { rows, residues }
    }

    /// The score row of every query residue, in query order.
    fn rows(&self) -> impl Iterator<Item = &[i32; 256]> {
        self.residues.iter().map(|&r| &self.rows[usize::from(r)])
    }
}

/// Smith-Waterman local alignment of `query` against `subject`.
///
/// On equal scores a cell prefers the diagonal, then up, then left, and the
/// alignment ends at the first best cell in row-major (query-major) order.
/// Runs in O(|query| · |subject|) time with one traceback byte per cell and
/// one row of scores; sequences are expected to be normalized (uppercase, no
/// whitespace).
pub fn local_align(query: &str, subject: &str, scheme: &ScoringScheme) -> Alignment {
    let q = query.as_bytes();
    let s = subject.as_bytes();
    if q.is_empty() || s.is_empty() {
        return Alignment::empty();
    }
    let cols = s.len();
    let gap = scheme.gap_penalty;
    // `row[j]` holds the previous query row's score in subject column j
    // until this row's replaces it; row and column 0 are the zero border.
    let mut row = vec![0i32; cols];
    let mut trace = vec![Trace::Stop; q.len() * cols];
    let mut best = 0i32;
    let mut best_cell = 0usize;

    let profile = Profile::new(q, scheme);
    for (i, (sub, pointers)) in profile.rows().zip(trace.chunks_exact_mut(cols)).enumerate() {
        let (mut diag, mut left) = (0i32, 0i32);
        for (j, ((h, t), &b)) in row.iter_mut().zip(pointers).zip(s).enumerate() {
            let diagonal = diag + sub[usize::from(b)];
            let up = *h + gap;
            let from_left = left + gap;
            let (mut v, mut p) = (0, Trace::Stop);
            if diagonal > v {
                v = diagonal;
                p = Trace::Diagonal;
            }
            if up > v {
                v = up;
                p = Trace::Up;
            }
            if from_left > v {
                v = from_left;
                p = Trace::Left;
            }
            diag = *h;
            *h = v;
            *t = p;
            left = v;
            if v > best {
                best = v;
                best_cell = i * cols + j;
            }
        }
    }

    if best == 0 {
        return Alignment::empty();
    }

    // Traceback, in 1-based matrix coordinates: cell (i, j) aligns q[i - 1]
    // with s[j - 1] and its pointer is trace[(i - 1) * cols + (j - 1)].
    let (end_i, end_j) = (best_cell / cols + 1, best_cell % cols + 1);
    let (mut i, mut j) = (end_i, end_j);
    let mut identities = 0usize;
    let mut length = 0usize;
    while i > 0 && j > 0 {
        match trace[(i - 1) * cols + (j - 1)] {
            Trace::Stop => break,
            Trace::Diagonal => {
                if q[i - 1] == s[j - 1] {
                    identities += 1;
                }
                length += 1;
                i -= 1;
                j -= 1;
            }
            Trace::Up => {
                length += 1;
                i -= 1;
            }
            Trace::Left => {
                length += 1;
                j -= 1;
            }
        }
    }

    Alignment {
        score: best,
        query_start: i,
        query_end: end_i,
        subject_start: j,
        subject_end: end_j,
        identities,
        alignment_length: length,
    }
}

/// The score [`local_align`] reports for `query` against `subject`, from one
/// row of scores and no traceback: O(|subject|) memory.
pub(crate) fn local_score(query: &str, subject: &str, scheme: &ScoringScheme) -> i32 {
    let s = subject.as_bytes();
    let gap = scheme.gap_penalty;
    let mut row = vec![0i32; s.len()];
    let mut best = 0i32;
    for sub in Profile::new(query.as_bytes(), scheme).rows() {
        let (mut diag, mut left) = (0i32, 0i32);
        for (h, &b) in row.iter_mut().zip(s) {
            let from_above =
                branchless_max(branchless_max(diag + sub[usize::from(b)], *h + gap), 0);
            let v = branchless_max(from_above, left + gap);
            diag = *h;
            *h = v;
            left = v;
            best = branchless_max(best, v);
        }
    }
    best
}

/// `a.max(b)` as a select rather than a branch. Scores hover around zero on
/// unrelated sequences, so a branch on their order would be mispredicted
/// about as often as taken: kept branch-free, the score pass runs about twice
/// as fast.
#[inline(always)]
fn branchless_max(a: i32, b: i32) -> i32 {
    std::hint::select_unpredictable(a > b, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The quadratic kernel [`local_align`] replaced, verbatim: a full score
    /// matrix beside the traceback matrix. The oracle of the tests below.
    fn reference_align(query: &str, subject: &str, scheme: &ScoringScheme) -> Alignment {
        let q = query.as_bytes();
        let s = subject.as_bytes();
        if q.is_empty() || s.is_empty() {
            return Alignment::empty();
        }
        let rows = q.len() + 1;
        let cols = s.len() + 1;
        let mut score = vec![0i32; rows * cols];
        let mut trace = vec![Trace::Stop; rows * cols];
        let mut best = 0i32;
        let mut best_pos = (0usize, 0usize);

        for i in 1..rows {
            for j in 1..cols {
                let diag =
                    score[(i - 1) * cols + (j - 1)] + scheme.substitution(q[i - 1], s[j - 1]);
                let up = score[(i - 1) * cols + j] + scheme.gap_penalty;
                let left = score[i * cols + (j - 1)] + scheme.gap_penalty;
                let (v, t) = {
                    let mut v = 0;
                    let mut t = Trace::Stop;
                    if diag > v {
                        v = diag;
                        t = Trace::Diagonal;
                    }
                    if up > v {
                        v = up;
                        t = Trace::Up;
                    }
                    if left > v {
                        v = left;
                        t = Trace::Left;
                    }
                    (v, t)
                };
                score[i * cols + j] = v;
                trace[i * cols + j] = t;
                if v > best {
                    best = v;
                    best_pos = (i, j);
                }
            }
        }

        if best == 0 {
            return Alignment::empty();
        }

        // Traceback.
        let (mut i, mut j) = best_pos;
        let (end_i, end_j) = best_pos;
        let mut identities = 0usize;
        let mut length = 0usize;
        while i > 0 && j > 0 {
            match trace[i * cols + j] {
                Trace::Stop => break,
                Trace::Diagonal => {
                    if q[i - 1] == s[j - 1] {
                        identities += 1;
                    }
                    length += 1;
                    i -= 1;
                    j -= 1;
                }
                Trace::Up => {
                    length += 1;
                    i -= 1;
                }
                Trace::Left => {
                    length += 1;
                    j -= 1;
                }
            }
        }

        Alignment {
            score: best,
            query_start: i,
            query_end: end_i,
            subject_start: j,
            subject_end: end_j,
            identities,
            alignment_length: length,
        }
    }

    /// A mutated copy of `base`: each `(position, op, residue)` substitutes,
    /// inserts or deletes one character, so the pair shares gapped regions.
    fn mutate(base: &str, edits: &[(usize, u8, String)]) -> String {
        let mut chars: Vec<char> = base.chars().collect();
        for (position, op, residue) in edits {
            let at = position % (chars.len() + 1);
            let c = residue.chars().next().unwrap_or('A');
            match op {
                0 if at < chars.len() => chars[at] = c,
                1 => chars.insert(at, c),
                _ if at < chars.len() => {
                    chars.remove(at);
                }
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    /// DNA, protein, mixed-case and out-of-alphabet strings, empty and
    /// length 1 included; a two-letter alphabet makes equal-score ties
    /// frequent.
    fn sequences() -> impl Strategy<Value = String> {
        prop_oneof![
            "[ACGT]{0,40}",
            "[AC]{0,30}",
            "[ACDEFGHIKLMNPQRSTVWY]{0,40}",
            "[ACGTNacgtnMKLVmklv]{0,30}",
            "[ -~\t–ΑΒéÿ]{0,20}",
            "[ACGTW]{0,1}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernel_equals_the_quadratic_reference(
            query in sequences(),
            other in sequences(),
            edits in prop::collection::vec((0usize..64, 0u8..3, "[ACGTLIKaé]"), 0..6),
        ) {
            let related = mutate(&query, &edits);
            for scheme in [ScoringScheme::nucleotide(), ScoringScheme::protein()] {
                for subject in [&other, &related] {
                    let alignment = local_align(&query, subject, &scheme);
                    prop_assert_eq!(&alignment, &reference_align(&query, subject, &scheme));
                    prop_assert_eq!(local_score(&query, subject, &scheme), alignment.score);
                }
            }
        }
    }

    #[test]
    fn identical_sequences_align_fully() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("ACGTACGT", "ACGTACGT", &scheme);
        assert_eq!(a.score, 16);
        assert_eq!(a.identities, 8);
        assert_eq!(a.alignment_length, 8);
        assert_eq!(a.identity(), 1.0);
        assert_eq!(a.query_start, 0);
        assert_eq!(a.query_end, 8);
    }

    #[test]
    fn local_alignment_finds_embedded_region() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("TTTTACGTACGTTTTT", "ACGTACGT", &scheme);
        assert_eq!(a.identities, 8);
        assert_eq!(a.query_start, 4);
        assert_eq!(a.query_end, 12);
        assert_eq!(a.subject_start, 0);
        assert_eq!(a.subject_end, 8);
    }

    #[test]
    fn mismatches_reduce_score_but_keep_alignment() {
        let scheme = ScoringScheme::nucleotide();
        let perfect = local_align("ACGTACGTACGT", "ACGTACGTACGT", &scheme);
        let mutated = local_align("ACGTACGTACGT", "ACGTACCTACGT", &scheme);
        assert!(mutated.score < perfect.score);
        assert!(mutated.identity() > 0.8);
    }

    #[test]
    fn gaps_are_introduced_when_profitable() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("ACGTTTACGT", "ACGTACGT", &scheme);
        // 8 matches, 2 gap positions: 8*2 - 2*2 = 12
        assert_eq!(a.score, 12);
        assert_eq!(a.identities, 8);
        assert_eq!(a.alignment_length, 10);
    }

    #[test]
    fn unrelated_sequences_score_low() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("AAAAAAAA", "CCCCCCCC", &scheme);
        assert_eq!(a.score, 0);
        assert_eq!(a.alignment_length, 0);
        assert_eq!(a.identity(), 0.0);
    }

    #[test]
    fn empty_inputs_yield_empty_alignment() {
        let scheme = ScoringScheme::nucleotide();
        assert_eq!(local_align("", "ACGT", &scheme), Alignment::empty());
        assert_eq!(local_align("ACGT", "", &scheme), Alignment::empty());
    }

    #[test]
    fn protein_alignment_uses_matrix() {
        let scheme = ScoringScheme::protein();
        // Conservative substitution (L→I) should still align well.
        let a = local_align("MKTLYIAKQR", "MKTIYIAKQR", &scheme);
        assert!(a.identity() >= 0.9);
        assert!(a.score > 30);
    }

    #[test]
    fn alignment_is_symmetric_in_score() {
        let scheme = ScoringScheme::nucleotide();
        let ab = local_align("ACGGTTAACC", "ACGTTAACGG", &scheme);
        let ba = local_align("ACGTTAACGG", "ACGGTTAACC", &scheme);
        assert_eq!(ab.score, ba.score);
        assert_eq!(ab.identities, ba.identities);
    }
}
