//! Sequence alphabets and detection.

/// The biological sequence alphabets recognized by the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alphabet {
    /// DNA: A, C, G, T (N as ambiguity code).
    Dna,
    /// RNA: A, C, G, U (N as ambiguity code).
    Rna,
    /// Protein: the 20 amino-acid one-letter codes plus X/B/Z ambiguity codes.
    Protein,
}

const DNA: &str = "ACGTN";
const RNA: &str = "ACGUN";
const PROTEIN: &str = "ACDEFGHIKLMNPQRSTVWYXBZ";

impl Alphabet {
    /// The allowed characters (uppercase) of this alphabet.
    pub fn characters(self) -> &'static str {
        match self {
            Alphabet::Dna => DNA,
            Alphabet::Rna => RNA,
            Alphabet::Protein => PROTEIN,
        }
    }

    /// Whether the string (case-insensitive) is a valid sequence over this
    /// alphabet. Empty strings are not valid sequences.
    pub fn validates(self, sequence: &str) -> bool {
        !sequence.is_empty()
            && sequence
                .chars()
                .all(|c| self.characters().contains(c.to_ascii_uppercase()))
    }

    /// Detect the most plausible alphabet for a string, or `None` if it does
    /// not look like a sequence at all.
    ///
    /// DNA/RNA are checked before protein because every DNA string is also a
    /// valid protein string; the paper's heuristic ("sequence fields contain
    /// only strings over a fixed alphabet") needs the more specific choice.
    pub fn detect(sequence: &str) -> Option<Alphabet> {
        if sequence.is_empty() {
            return None;
        }
        if Alphabet::Dna.validates(sequence) {
            Some(Alphabet::Dna)
        } else if Alphabet::Rna.validates(sequence) {
            Some(Alphabet::Rna)
        } else if Alphabet::Protein.validates(sequence) {
            Some(Alphabet::Protein)
        } else {
            None
        }
    }

    /// True for the nucleotide alphabets.
    pub fn is_nucleotide(self) -> bool {
        matches!(self, Alphabet::Dna | Alphabet::Rna)
    }
}

/// Normalize a raw sequence string: uppercase and strip whitespace.
pub fn normalize_sequence(raw: &str) -> String {
    raw.chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_ascii_uppercase())
        .collect()
}

/// Reverse complement of a DNA sequence (non-ACGT characters map to N).
pub fn reverse_complement(dna: &str) -> String {
    dna.chars()
        .rev()
        .map(|c| match c.to_ascii_uppercase() {
            'A' => 'T',
            'T' => 'A',
            'C' => 'G',
            'G' => 'C',
            _ => 'N',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_per_alphabet() {
        assert!(Alphabet::Dna.validates("ACGTACGTNN"));
        assert!(Alphabet::Dna.validates("acgt"));
        assert!(!Alphabet::Dna.validates("ACGU"));
        assert!(Alphabet::Rna.validates("ACGUACGU"));
        assert!(Alphabet::Protein.validates("MKTAYIAKQR"));
        assert!(!Alphabet::Protein.validates("MKTA1"));
        assert!(!Alphabet::Dna.validates(""));
    }

    #[test]
    fn detection_prefers_specific_alphabets() {
        assert_eq!(Alphabet::detect("ACGTACGT"), Some(Alphabet::Dna));
        assert_eq!(Alphabet::detect("ACGUACGU"), Some(Alphabet::Rna));
        assert_eq!(
            Alphabet::detect("MKTAYIAKQRQISFVKSHFSRQ"),
            Some(Alphabet::Protein)
        );
        assert_eq!(Alphabet::detect("hello world"), None);
        assert_eq!(Alphabet::detect(""), None);
    }

    #[test]
    fn nucleotide_predicate() {
        assert!(Alphabet::Dna.is_nucleotide());
        assert!(Alphabet::Rna.is_nucleotide());
        assert!(!Alphabet::Protein.is_nucleotide());
    }

    #[test]
    fn normalization_strips_whitespace_and_uppercases() {
        assert_eq!(normalize_sequence("acg t\nACG T"), "ACGTACGT");
    }

    #[test]
    fn reverse_complement_roundtrip() {
        assert_eq!(reverse_complement("ACGT"), "ACGT");
        assert_eq!(reverse_complement("AACC"), "GGTT");
        assert_eq!(
            reverse_complement(reverse_complement("ACGGTTAC").as_str()),
            "ACGGTTAC"
        );
        assert_eq!(reverse_complement("ACX"), "NGT");
    }
}
