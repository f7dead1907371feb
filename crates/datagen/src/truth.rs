//! Ground truth recorded alongside the generated corpus.
//!
//! The paper proposes using an existing integrated database (COLUMBA) as a
//! "learning test set for estimating the performance of ALADIN's various
//! analysis algorithms. Thus, precision and recall methods for finding primary
//! relations, secondary relations, cross-references, and duplicates can be
//! derived" (Section 5). The generator records exactly those four kinds of
//! truth so the evaluation in `aladin-core::eval` can compute P/R/F1.

/// Ground truth about the structure of one generated source *after import*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceTruth {
    /// Source (database) name.
    pub source: String,
    /// The table(s) holding the primary objects (usually one; two for the
    /// EnsEmbl-like two-primary configuration).
    pub primary_tables: Vec<String>,
    /// The accession-number column of each primary table (parallel to
    /// `primary_tables`).
    pub accession_columns: Vec<String>,
    /// Tables that hold annotation of the primary objects (everything that is
    /// not a primary table).
    pub secondary_tables: Vec<String>,
}

/// A true object-level relationship between primary objects of two sources.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectLink {
    /// Source holding the referencing object.
    pub from_source: String,
    /// Accession of the referencing object.
    pub from_accession: String,
    /// Source holding the referenced object.
    pub to_source: String,
    /// Accession of the referenced object.
    pub to_accession: String,
    /// Whether an explicit cross-reference for this relationship was emitted
    /// into the data. Links with `explicit == false` exist in the world but
    /// were withheld (the "annotation backlog"); finding them requires the
    /// implicit techniques (sequence homology, text similarity, shared
    /// ontology terms).
    pub explicit: bool,
}

/// A pair of database objects that represent the same real-world object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DuplicatePair {
    /// First source.
    pub source_a: String,
    /// Accession in the first source.
    pub accession_a: String,
    /// Second source.
    pub source_b: String,
    /// Accession in the second source.
    pub accession_b: String,
}

/// A pair of homologous proteins (same family) visible across sources; the
/// target of implicit sequence-similarity links.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HomologPair {
    /// First source.
    pub source_a: String,
    /// Accession in the first source.
    pub accession_a: String,
    /// Second source.
    pub source_b: String,
    /// Accession in the second source.
    pub accession_b: String,
    /// Family index shared by the two proteins.
    pub family: usize,
}

/// The full ground truth for a generated corpus.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Structural truth for every source.
    pub sources: Vec<SourceTruth>,
    /// True object-level links (explicit and withheld).
    pub links: Vec<ObjectLink>,
    /// True duplicate pairs across sources.
    pub duplicates: Vec<DuplicatePair>,
    /// True homolog pairs across sources (excluding duplicates).
    pub homologs: Vec<HomologPair>,
}

impl GroundTruth {
    /// Structural truth for one source, if present.
    pub fn source(&self, name: &str) -> Option<&SourceTruth> {
        self.sources.iter().find(|s| s.source == name)
    }

    /// Number of links that were emitted explicitly.
    pub fn explicit_link_count(&self) -> usize {
        self.links.iter().filter(|l| l.explicit).count()
    }

    /// Number of true links that were withheld (discoverable only implicitly).
    pub fn withheld_link_count(&self) -> usize {
        self.links.iter().filter(|l| !l.explicit).count()
    }

    /// Check whether a (source, accession) → (source, accession) pair is a
    /// true link, regardless of direction.
    pub fn is_true_link(
        &self,
        source_a: &str,
        accession_a: &str,
        source_b: &str,
        accession_b: &str,
    ) -> bool {
        self.links.iter().any(|l| {
            (l.from_source == source_a
                && l.from_accession == accession_a
                && l.to_source == source_b
                && l.to_accession == accession_b)
                || (l.from_source == source_b
                    && l.from_accession == accession_b
                    && l.to_source == source_a
                    && l.to_accession == accession_a)
        })
    }

    /// Check whether two (source, accession) objects are true duplicates,
    /// regardless of order.
    pub fn is_true_duplicate(
        &self,
        source_a: &str,
        accession_a: &str,
        source_b: &str,
        accession_b: &str,
    ) -> bool {
        self.duplicates.iter().any(|d| {
            (d.source_a == source_a
                && d.accession_a == accession_a
                && d.source_b == source_b
                && d.accession_b == accession_b)
                || (d.source_a == source_b
                    && d.accession_a == accession_b
                    && d.source_b == source_a
                    && d.accession_b == accession_a)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        GroundTruth {
            sources: vec![SourceTruth {
                source: "protkb".into(),
                primary_tables: vec!["protkb_entry".into()],
                accession_columns: vec!["ac".into()],
                secondary_tables: vec!["protkb_kw".into(), "protkb_dr".into()],
            }],
            links: vec![
                ObjectLink {
                    from_source: "protkb".into(),
                    from_accession: "P10000".into(),
                    to_source: "structdb".into(),
                    to_accession: "1ABC".into(),
                    explicit: true,
                },
                ObjectLink {
                    from_source: "protkb".into(),
                    from_accession: "P10001".into(),
                    to_source: "structdb".into(),
                    to_accession: "2DEF".into(),
                    explicit: false,
                },
            ],
            duplicates: vec![DuplicatePair {
                source_a: "protkb".into(),
                accession_a: "P10000".into(),
                source_b: "archive".into(),
                accession_b: "PA0001".into(),
            }],
            homologs: vec![],
        }
    }

    #[test]
    fn lookup_helpers() {
        let t = truth();
        assert!(t.source("protkb").is_some());
        assert!(t.source("missing").is_none());
        assert_eq!(t.explicit_link_count(), 1);
        assert_eq!(t.withheld_link_count(), 1);
    }

    #[test]
    fn link_and_duplicate_checks_are_symmetric() {
        let t = truth();
        assert!(t.is_true_link("protkb", "P10000", "structdb", "1ABC"));
        assert!(t.is_true_link("structdb", "1ABC", "protkb", "P10000"));
        assert!(!t.is_true_link("protkb", "P10000", "structdb", "2DEF"));
        assert!(t.is_true_duplicate("archive", "PA0001", "protkb", "P10000"));
        assert!(!t.is_true_duplicate("archive", "PA0002", "protkb", "P10000"));
    }
}
