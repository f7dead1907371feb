//! Substitution scoring and gap penalties.

use crate::alphabet::Alphabet;

/// A scoring scheme for pairwise alignment: substitution scores plus linear
/// gap penalties.
#[derive(Debug, Clone)]
pub struct ScoringScheme {
    /// Score for aligning two identical residues (nucleotide mode) — ignored
    /// in protein mode where the substitution matrix decides.
    pub match_score: i32,
    /// Score for aligning two different residues (nucleotide mode).
    pub mismatch_score: i32,
    /// Penalty (negative contribution) per gap position.
    pub gap_penalty: i32,
    /// Whether the protein substitution matrix should be used.
    pub protein: bool,
}

impl ScoringScheme {
    /// The default nucleotide scheme: +2 match, -1 mismatch, -2 gap (the
    /// classic megablast-style parameters).
    pub fn nucleotide() -> ScoringScheme {
        ScoringScheme {
            match_score: 2,
            mismatch_score: -1,
            gap_penalty: -2,
            protein: false,
        }
    }

    /// The default protein scheme: a compact BLOSUM62-like matrix and -4 gap.
    pub fn protein() -> ScoringScheme {
        ScoringScheme {
            match_score: 4,
            mismatch_score: -2,
            gap_penalty: -4,
            protein: true,
        }
    }

    /// Pick a default scheme for an alphabet.
    pub fn for_alphabet(alphabet: Alphabet) -> ScoringScheme {
        if alphabet.is_nucleotide() {
            ScoringScheme::nucleotide()
        } else {
            ScoringScheme::protein()
        }
    }

    /// Substitution score between two residues (uppercase expected).
    pub fn substitution(&self, a: u8, b: u8) -> i32 {
        if self.protein {
            blosum_like(a, b)
        } else if a == b {
            self.match_score
        } else {
            self.mismatch_score
        }
    }
}

/// A compact BLOSUM62-flavoured substitution score.
///
/// Rather than embedding the full 20×20 matrix, residues are grouped into the
/// standard BLOSUM conservation groups; identical bytes score +5,
/// same-group substitutions +1 and cross-group substitutions -2. This keeps
/// the ranking behaviour of BLOSUM62 (identities ≫ conservative substitutions
/// > non-conservative) which is all the homology-link heuristics depend on.
fn blosum_like(a: u8, b: u8) -> i32 {
    let group = BLOSUM_GROUP[usize::from(a)];
    if a == b {
        5
    } else if group != 0 && group == BLOSUM_GROUP[usize::from(b)] {
        1
    } else {
        -2
    }
}

/// The BLOSUM conservation groups of [`blosum_like`].
const GROUPS: [&[u8]; 8] = [
    b"ILMV", // aliphatic
    b"FWY",  // aromatic
    b"KRH",  // basic
    b"DE",   // acidic
    b"STNQ", // polar
    b"AG",   // small
    b"C",    // cysteine
    b"P",    // proline
];

/// The group of every byte, case-insensitive: 1 + its index in [`GROUPS`],
/// or 0 for a byte in no group.
static BLOSUM_GROUP: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut g = 0;
    while g < GROUPS.len() {
        let mut k = 0;
        while k < GROUPS[g].len() {
            let residue = GROUPS[g][k];
            table[residue as usize] = g as u8 + 1;
            table[residue.to_ascii_lowercase() as usize] = g as u8 + 1;
            k += 1;
        }
        g += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nucleotide_scoring() {
        let s = ScoringScheme::nucleotide();
        assert_eq!(s.substitution(b'A', b'A'), 2);
        assert_eq!(s.substitution(b'A', b'C'), -1);
        assert_eq!(s.gap_penalty, -2);
    }

    #[test]
    fn protein_scoring_prefers_identity_then_group() {
        let s = ScoringScheme::protein();
        let identity = s.substitution(b'L', b'L');
        let conservative = s.substitution(b'L', b'I');
        let radical = s.substitution(b'L', b'D');
        assert!(identity > conservative);
        assert!(conservative > radical);
        assert_eq!(identity, 5);
        assert_eq!(conservative, 1);
        assert_eq!(radical, -2);
    }

    #[test]
    fn scheme_selection_by_alphabet() {
        assert!(!ScoringScheme::for_alphabet(Alphabet::Dna).protein);
        assert!(!ScoringScheme::for_alphabet(Alphabet::Rna).protein);
        assert!(ScoringScheme::for_alphabet(Alphabet::Protein).protein);
    }

    #[test]
    fn blosum_like_is_symmetric() {
        for &a in b"ARNDCQEGHILKMFPSTWYV" {
            for &b in b"ARNDCQEGHILKMFPSTWYV" {
                assert_eq!(blosum_like(a, b), blosum_like(b, a));
            }
        }
    }

    /// The group scan `blosum_like` replaced, kept as its oracle.
    fn blosum_like_by_scan(a: u8, b: u8) -> i32 {
        if a == b {
            return 5;
        }
        let group_of = |x: u8| {
            GROUPS
                .iter()
                .position(|g| g.contains(&x.to_ascii_uppercase()))
        };
        match (group_of(a), group_of(b)) {
            (Some(ga), Some(gb)) if ga == gb => 1,
            _ => -2,
        }
    }

    #[test]
    fn blosum_table_equals_the_group_scan_for_every_byte_pair() {
        for a in 0..=u8::MAX {
            for b in 0..=u8::MAX {
                assert_eq!(blosum_like(a, b), blosum_like_by_scan(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn unknown_residues_score_as_radical() {
        assert_eq!(blosum_like(b'X', b'L'), -2);
        assert_eq!(blosum_like(b'X', b'X'), 5);
    }
}
