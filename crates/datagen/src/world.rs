//! The synthetic biological "world": real-world objects and their true
//! relationships, before any database renders (a subset of) them.

use crate::corpus::CorpusConfig;
use crate::ids;
use crate::sequences::{mutate_sequence, random_sequence, reverse_translate};
use crate::vocab;
use aladin_seq::alphabet::Alphabet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A protein family: members share a mutated copy of the ancestor sequence.
#[derive(Debug, Clone)]
pub struct Family {
    /// Family index.
    pub idx: usize,
    /// Human-readable family name ("serine/threonine kinase").
    pub name: String,
    /// Ancestor protein sequence members are derived from.
    pub ancestor_sequence: String,
}

/// A real-world protein and everything the world knows about it.
#[derive(Debug, Clone)]
pub struct Protein {
    /// Protein index (world-wide ordinal).
    pub idx: usize,
    /// Family this protein belongs to.
    pub family: usize,
    /// Member ordinal within the family.
    pub family_member: usize,
    /// Recommended name ("serine/threonine kinase 3").
    pub name: String,
    /// Gene-symbol-like short name ("STK3").
    pub symbol: String,
    /// Free-text functional description.
    pub description: String,
    /// Amino-acid sequence.
    pub protein_sequence: String,
    /// Coding DNA sequence (deterministic reverse translation).
    pub dna_sequence: String,
    /// Swiss-Prot-style keywords.
    pub keywords: Vec<String>,
    /// Ontology terms annotated to this protein (term indexes).
    pub terms: Vec<usize>,
    /// Organism (index into [`World::taxa`]).
    pub taxon: usize,
    /// Accession in the protein knowledgebase, if the protein is in it.
    pub protkb_accession: Option<String>,
    /// Accession in the protein archive (second, overlapping protein DB).
    pub archive_accession: Option<String>,
    /// Accession of the gene entry, if the gene source covers this protein.
    pub gene_accession: Option<String>,
    /// Accession of the structure entry, if a structure exists.
    pub structure_accession: Option<String>,
}

/// A protein structure (PDB-like entry).
#[derive(Debug, Clone)]
pub struct Structure {
    /// Structure index.
    pub idx: usize,
    /// Four-character accession.
    pub accession: String,
    /// The protein this structure belongs to (world index).
    pub protein: usize,
    /// Experimental resolution in Å.
    pub resolution: f64,
    /// Experimental method.
    pub method: String,
    /// Title line.
    pub title: String,
    /// Chain identifiers.
    pub chains: Vec<char>,
    /// Deposition year.
    pub year: i64,
}

/// An ontology term (GO-like).
#[derive(Debug, Clone)]
pub struct Term {
    /// Term index.
    pub idx: usize,
    /// Accession ("GO:0000001").
    pub accession: String,
    /// Term name.
    pub name: String,
    /// Definition sentence.
    pub definition: String,
    /// Namespace (process / function / component).
    pub namespace: String,
    /// Parent term index, if any (single-inheritance tree for simplicity).
    pub parent: Option<usize>,
}

/// An organism.
#[derive(Debug, Clone)]
pub struct Taxon {
    /// Taxon index.
    pub idx: usize,
    /// Alphanumeric taxonomy code ("TX09606").
    pub code: String,
    /// Numeric NCBI-style taxid.
    pub taxid: i64,
    /// Scientific name.
    pub scientific_name: String,
    /// Common name.
    pub common_name: String,
}

/// A binary protein-protein interaction.
#[derive(Debug, Clone)]
pub struct Interaction {
    /// Interaction index.
    pub idx: usize,
    /// Accession ("BI-000001").
    pub accession: String,
    /// First participant (protein world index).
    pub protein_a: usize,
    /// Second participant (protein world index).
    pub protein_b: usize,
    /// Detection method.
    pub method: String,
    /// Confidence score in `[0, 1]`.
    pub confidence: f64,
}

/// The complete synthetic world.
#[derive(Debug, Clone)]
pub struct World {
    /// Protein families.
    pub families: Vec<Family>,
    /// Proteins.
    pub proteins: Vec<Protein>,
    /// Structures.
    pub structures: Vec<Structure>,
    /// Ontology terms.
    pub terms: Vec<Term>,
    /// Taxa.
    pub taxa: Vec<Taxon>,
    /// Interactions.
    pub interactions: Vec<Interaction>,
}

impl World {
    /// Generate a world from a configuration (deterministic per seed).
    pub fn generate(config: &CorpusConfig) -> World {
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Taxa.
        let n_taxa = config.n_taxa.clamp(1, vocab::ORGANISMS.len());
        let taxa: Vec<Taxon> = (0..n_taxa)
            .map(|i| {
                let (sci, common, taxid) = vocab::ORGANISMS[i];
                Taxon {
                    idx: i,
                    code: ids::taxon_accession(i),
                    taxid,
                    scientific_name: sci.to_string(),
                    common_name: common.to_string(),
                }
            })
            .collect();

        // Ontology terms: a forest of shallow trees.
        let namespaces = [
            "biological_process",
            "molecular_function",
            "cellular_component",
        ];
        let terms: Vec<Term> = (0..config.n_terms.max(1))
            .map(|i| {
                let process = vocab::PROCESSES[i % vocab::PROCESSES.len()];
                let noun = vocab::FUNCTION_NOUNS[i % vocab::FUNCTION_NOUNS.len()];
                let name = if i % 2 == 0 {
                    process.to_string()
                } else {
                    format!("{noun} activity")
                };
                Term {
                    idx: i,
                    accession: ids::term_accession(i),
                    name: name.clone(),
                    definition: format!(
                        "The {} exhibited during {}.",
                        name,
                        vocab::PROCESSES[(i * 7 + 3) % vocab::PROCESSES.len()]
                    ),
                    namespace: namespaces[i % namespaces.len()].to_string(),
                    parent: if i >= 3 { Some(i % 3) } else { None },
                }
            })
            .collect();

        // Families.
        let n_families = config.n_families.max(1);
        let families: Vec<Family> = (0..n_families)
            .map(|i| {
                let name = vocab::family_name(&mut rng);
                let length = rng.gen_range(80..240);
                Family {
                    idx: i,
                    name,
                    ancestor_sequence: random_sequence(&mut rng, Alphabet::Protein, length),
                }
            })
            .collect();

        // Proteins.
        let mut proteins: Vec<Protein> = Vec::with_capacity(config.n_proteins);
        let mut structures: Vec<Structure> = Vec::new();
        for i in 0..config.n_proteins {
            let family = i % n_families;
            let family_member = i / n_families;
            let fam = &families[family];
            let protein_sequence = mutate_sequence(&mut rng, &fam.ancestor_sequence, 0.08, 0.01);
            let dna_sequence = reverse_translate(&protein_sequence);
            let name = format!("{} {}", fam.name, family_member + 1);
            let symbol = vocab::gene_symbol(&fam.name, i);
            let description = vocab::protein_description(&mut rng, &fam.name, family_member);
            let n_kw = rng.gen_range(2..5);
            let keywords: Vec<String> = (0..n_kw)
                .map(|k| vocab::KEYWORDS[(i * 3 + k * 7) % vocab::KEYWORDS.len()].to_string())
                .collect();
            let n_terms = rng.gen_range(1..4);
            let term_refs: Vec<usize> = (0..n_terms)
                .map(|k| (i * 5 + k * 11) % terms.len())
                .collect();
            let taxon = i % taxa.len();

            let in_protkb = true; // the knowledgebase covers everything
            let in_archive = rng.gen_bool(config.archive_overlap.clamp(0.0, 1.0));
            let in_genedb = rng.gen_bool(config.gene_fraction.clamp(0.0, 1.0));
            let has_structure = rng.gen_bool(config.structure_fraction.clamp(0.0, 1.0));

            let structure_accession = if has_structure {
                let s_idx = structures.len();
                let accession = ids::structure_accession(s_idx);
                let n_chains = rng.gen_range(1..4);
                structures.push(Structure {
                    idx: s_idx,
                    accession: accession.clone(),
                    protein: i,
                    resolution: (rng.gen_range(10..35) as f64) / 10.0,
                    method: vocab::pick(&mut rng, vocab::STRUCTURE_METHODS).to_string(),
                    title: format!("Crystal structure of {name}"),
                    chains: (0..n_chains).map(|c| (b'A' + c as u8) as char).collect(),
                    year: rng.gen_range(1995..2005),
                });
                Some(accession)
            } else {
                None
            };

            proteins.push(Protein {
                idx: i,
                family,
                family_member,
                name,
                symbol,
                description,
                protein_sequence,
                dna_sequence,
                keywords,
                terms: term_refs,
                taxon,
                protkb_accession: in_protkb.then(|| ids::protkb_accession(i)),
                archive_accession: in_archive.then(|| ids::archive_accession(i)),
                gene_accession: in_genedb.then(|| ids::gene_accession(i)),
                structure_accession,
            });
        }

        // Interactions between random distinct proteins, biased to same family.
        let interactions: Vec<Interaction> = (0..config.interaction_count)
            .filter_map(|i| {
                if proteins.len() < 2 {
                    return None;
                }
                let a = rng.gen_range(0..proteins.len());
                let b = if rng.gen_bool(0.5) {
                    // prefer a same-family partner when one exists
                    let fam = proteins[a].family;
                    let candidates: Vec<usize> = proteins
                        .iter()
                        .filter(|p| p.family == fam && p.idx != a)
                        .map(|p| p.idx)
                        .collect();
                    if candidates.is_empty() {
                        (a + 1) % proteins.len()
                    } else {
                        candidates[rng.gen_range(0..candidates.len())]
                    }
                } else {
                    let mut b = rng.gen_range(0..proteins.len());
                    if b == a {
                        b = (b + 1) % proteins.len();
                    }
                    b
                };
                Some(Interaction {
                    idx: i,
                    accession: ids::interaction_accession(i),
                    protein_a: a,
                    protein_b: b,
                    method: vocab::pick(&mut rng, vocab::INTERACTION_METHODS).to_string(),
                    confidence: (rng.gen_range(50..100) as f64) / 100.0,
                })
            })
            .collect();

        World {
            families,
            proteins,
            structures,
            terms,
            taxa,
            interactions,
        }
    }

    /// Proteins present in the archive source (the protkb/archive overlap).
    pub fn archived_proteins(&self) -> impl Iterator<Item = &Protein> {
        self.proteins
            .iter()
            .filter(|p| p.archive_accession.is_some())
    }

    /// Proteins with a gene entry.
    pub fn gene_proteins(&self) -> impl Iterator<Item = &Protein> {
        self.proteins.iter().filter(|p| p.gene_accession.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CorpusConfig {
        CorpusConfig {
            n_proteins: 60,
            ..CorpusConfig::small(42)
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let w1 = World::generate(&config());
        let w2 = World::generate(&config());
        assert_eq!(w1.proteins.len(), w2.proteins.len());
        assert_eq!(
            w1.proteins[5].protein_sequence,
            w2.proteins[5].protein_sequence
        );
        assert_eq!(w1.structures.len(), w2.structures.len());

        let mut other = config();
        other.seed = 43;
        let w3 = World::generate(&other);
        assert_ne!(
            w1.proteins[5].protein_sequence,
            w3.proteins[5].protein_sequence
        );
    }

    #[test]
    fn every_protein_is_in_the_knowledgebase_with_unique_accessions() {
        let w = World::generate(&config());
        assert_eq!(w.proteins.len(), 60);
        let accs: std::collections::HashSet<_> = w
            .proteins
            .iter()
            .filter_map(|p| p.protkb_accession.clone())
            .collect();
        assert_eq!(accs.len(), 60);
    }

    #[test]
    fn overlaps_respect_configured_fractions_roughly() {
        let mut cfg = config();
        cfg.n_proteins = 400;
        cfg.archive_overlap = 0.5;
        cfg.structure_fraction = 0.3;
        let w = World::generate(&cfg);
        let archived = w.archived_proteins().count();
        assert!(archived > 120 && archived < 280, "archived = {archived}");
        assert!(
            w.structures.len() > 60 && w.structures.len() < 180,
            "structures = {}",
            w.structures.len()
        );
    }

    #[test]
    fn same_family_proteins_are_homologous() {
        let w = World::generate(&config());
        let fam0: Vec<&Protein> = w.proteins.iter().filter(|p| p.family == 0).collect();
        assert!(fam0.len() >= 2);
        // Same-family proteins derive from the same ancestor. Positional
        // identity is fragile under the generator's indels (one early indel
        // shifts every later position), so measure homology the way the
        // homology-search code does: shared k-mers, which survive local
        // substitutions and are frame-independent.
        fn kmers(s: &str) -> std::collections::HashSet<&[u8]> {
            s.as_bytes().windows(6).collect()
        }
        let a = kmers(&fam0[0].protein_sequence);
        let b = kmers(&fam0[1].protein_sequence);
        let shared = a.intersection(&b).count() as f64 / a.len().min(b.len()) as f64;
        assert!(shared > 0.1, "same-family 6-mer overlap {shared:.3}");
        // Cross-family sequences are unrelated: essentially no shared 6-mers.
        let other = w
            .proteins
            .iter()
            .find(|p| p.family == 1)
            .expect("second family");
        let c = kmers(&other.protein_sequence);
        let cross = a.intersection(&c).count() as f64 / a.len().min(c.len()) as f64;
        assert!(cross < shared / 2.0, "cross-family overlap {cross:.3}");
    }

    #[test]
    fn structures_reference_existing_proteins() {
        let w = World::generate(&config());
        for s in &w.structures {
            assert!(s.protein < w.proteins.len());
            assert_eq!(
                w.proteins[s.protein].structure_accession.as_deref(),
                Some(s.accession.as_str())
            );
        }
    }

    #[test]
    fn interactions_connect_distinct_existing_proteins() {
        let w = World::generate(&config());
        assert!(!w.interactions.is_empty());
        for i in &w.interactions {
            assert!(i.protein_a < w.proteins.len());
            assert!(i.protein_b < w.proteins.len());
            assert_ne!(i.protein_a, i.protein_b);
            assert!(i.confidence >= 0.5 && i.confidence <= 1.0);
        }
    }

    #[test]
    fn terms_form_a_forest() {
        let w = World::generate(&config());
        for t in &w.terms {
            if let Some(p) = t.parent {
                assert!(p < w.terms.len());
                assert!(p < t.idx);
            }
        }
    }
}
