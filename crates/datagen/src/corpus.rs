//! Corpus generation: configuration, source dumps and ground-truth assembly.

use crate::sources::{self, EmittedXref};
use crate::truth::{DuplicatePair, GroundTruth, HomologPair, ObjectLink, SourceTruth};
use crate::world::World;
use aladin_import::{import_files, ImportResult, SourceFormat};
use aladin_relstore::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Configuration of a synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// RNG seed; everything downstream is deterministic per seed.
    pub seed: u64,
    /// Number of real-world proteins.
    pub n_proteins: usize,
    /// Number of protein families (controls homology structure).
    pub n_families: usize,
    /// Number of ontology terms.
    pub n_terms: usize,
    /// Number of organisms (clamped to the built-in organism list).
    pub n_taxa: usize,
    /// Fraction of proteins with a solved structure.
    pub structure_fraction: f64,
    /// Fraction of proteins also present in the protein archive (duplicates).
    pub archive_overlap: f64,
    /// Fraction of proteins with a gene entry.
    pub gene_fraction: f64,
    /// Number of protein-protein interactions.
    pub interaction_count: usize,
    /// Fraction of true cross-references withheld from the data (the
    /// annotation backlog); withheld links remain in the ground truth with
    /// `explicit == false`.
    pub missing_xref_rate: f64,
    /// Sequence mutation rate applied to the archive's copies of protein
    /// sequences.
    pub mutation_rate: f64,
    /// Probability that the archive rewords a description.
    pub description_noise: f64,
    /// Emit two extra re-cleaned "flavours" of the structure database (the
    /// three-representations duplicate scenario of the case study).
    pub three_flavour_structures: bool,
    /// Give the gene source a second primary relation (clones), as in the
    /// EnsEmbl discussion of Section 4.2.
    pub two_primary_gene_db: bool,
}

impl CorpusConfig {
    /// A small corpus (fast tests): ~40 proteins.
    pub fn small(seed: u64) -> CorpusConfig {
        CorpusConfig {
            seed,
            n_proteins: 40,
            n_families: 8,
            n_terms: 30,
            n_taxa: 5,
            structure_fraction: 0.4,
            archive_overlap: 0.5,
            gene_fraction: 0.7,
            interaction_count: 25,
            missing_xref_rate: 0.15,
            mutation_rate: 0.03,
            description_noise: 0.5,
            three_flavour_structures: false,
            two_primary_gene_db: false,
        }
    }

    /// A medium corpus (integration tests and experiments): ~300 proteins.
    pub fn medium(seed: u64) -> CorpusConfig {
        CorpusConfig {
            n_proteins: 300,
            n_families: 40,
            n_terms: 120,
            n_taxa: 10,
            interaction_count: 200,
            ..CorpusConfig::small(seed)
        }
    }

    /// A large corpus (benchmarks): ~1500 proteins.
    pub fn large(seed: u64) -> CorpusConfig {
        CorpusConfig {
            n_proteins: 1500,
            n_families: 150,
            n_terms: 400,
            n_taxa: 10,
            interaction_count: 1000,
            ..CorpusConfig::small(seed)
        }
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig::small(0)
    }
}

/// A rendered data source: the files a provider would publish, plus the format
/// the import component should use.
#[derive(Debug, Clone)]
pub struct SourceDump {
    /// Source (database) name.
    pub name: String,
    /// Serialization format of the files.
    pub format: SourceFormat,
    /// `(file name, file content)` pairs.
    pub files: Vec<(String, String)>,
}

impl SourceDump {
    /// Import the dump into a relational database using the matching parser.
    pub fn import(&self) -> ImportResult<Database> {
        import_files(&self.name, self.format, &self.files)
    }

    /// Total size of the rendered files in bytes.
    pub fn byte_size(&self) -> usize {
        self.files.iter().map(|(_, c)| c.len()).sum()
    }
}

/// A generated corpus: the rendered sources and the ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Configuration the corpus was generated from.
    pub config: CorpusConfig,
    /// Rendered data sources.
    pub sources: Vec<SourceDump>,
    /// Ground truth for evaluation.
    pub truth: GroundTruth,
}

impl Corpus {
    /// Generate a corpus from a configuration.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        let world = World::generate(config);
        Corpus::from_world(config, &world)
    }

    /// Generate a corpus from an already-built world (useful when the caller
    /// also needs the world itself).
    pub fn from_world(config: &CorpusConfig, world: &World) -> Corpus {
        // Renderer RNG is independent of the world RNG but still seeded.
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9E3779B97F4A7C15));

        let mut dumps = Vec::new();
        let mut emitted: Vec<EmittedXref> = Vec::new();

        let (d, x) = sources::protein_kb::render(world, config, &mut rng);
        dumps.push(d);
        emitted.extend(x);
        let (d, x) = sources::structure_db::render(world, config, &mut rng);
        dumps.push(d);
        emitted.extend(x);
        let (d, x) = sources::gene_db::render(world, config, &mut rng);
        dumps.push(d);
        emitted.extend(x);
        let (d, x) = sources::ontology_src::render(world);
        dumps.push(d);
        emitted.extend(x);
        let (d, x) = sources::interaction_db::render(world);
        dumps.push(d);
        emitted.extend(x);
        let (d, x) = sources::archive::render(world, config, &mut rng);
        dumps.push(d);
        emitted.extend(x);
        let (d, x) = sources::taxonomy::render(world);
        dumps.push(d);
        emitted.extend(x);
        if config.three_flavour_structures {
            for flavour in ["msd", "uniform"] {
                let (d, x) = sources::structure_db::render_flavour(world, flavour, &mut rng);
                dumps.push(d);
                emitted.extend(x);
            }
        }

        let truth = build_truth(config, world, &emitted);
        Corpus {
            config: config.clone(),
            sources: dumps,
            truth,
        }
    }

    /// Import every source, returning the databases in source order.
    pub fn import_all(&self) -> ImportResult<Vec<Database>> {
        self.sources.iter().map(SourceDump::import).collect()
    }

    /// Look up a rendered source by name.
    pub fn source(&self, name: &str) -> Option<&SourceDump> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// Total rendered size in bytes across all sources.
    pub fn byte_size(&self) -> usize {
        self.sources.iter().map(SourceDump::byte_size).sum()
    }
}

fn build_truth(config: &CorpusConfig, world: &World, emitted: &[EmittedXref]) -> GroundTruth {
    let emitted_set: HashSet<(String, String, String, String)> = emitted
        .iter()
        .flat_map(|x| {
            // Treat emitted references as undirected evidence for the link.
            [
                (
                    x.from_source.clone(),
                    x.from_accession.clone(),
                    x.to_source.clone(),
                    x.to_accession.clone(),
                ),
                (
                    x.to_source.clone(),
                    x.to_accession.clone(),
                    x.from_source.clone(),
                    x.from_accession.clone(),
                ),
            ]
        })
        .collect();
    let is_emitted = |a: &str, aa: &str, b: &str, ba: &str| {
        emitted_set.contains(&(a.to_string(), aa.to_string(), b.to_string(), ba.to_string()))
    };

    // Structural truth per source.
    let mut sources = vec![
        SourceTruth {
            source: sources::protein_kb::NAME.to_string(),
            primary_tables: vec![sources::protein_kb::primary_table()],
            accession_columns: vec![sources::protein_kb::accession_column()],
            secondary_tables: sources::protein_kb::secondary_tables(),
        },
        SourceTruth {
            source: sources::structure_db::NAME.to_string(),
            primary_tables: vec![sources::structure_db::primary_table()],
            accession_columns: vec![sources::structure_db::accession_column()],
            secondary_tables: sources::structure_db::secondary_tables(),
        },
        SourceTruth {
            source: sources::gene_db::NAME.to_string(),
            primary_tables: sources::gene_db::primary_tables(config),
            accession_columns: sources::gene_db::accession_columns(config),
            secondary_tables: sources::gene_db::secondary_tables(config),
        },
        SourceTruth {
            source: sources::ontology_src::NAME.to_string(),
            primary_tables: vec![sources::ontology_src::primary_table()],
            accession_columns: vec![sources::ontology_src::accession_column()],
            secondary_tables: sources::ontology_src::secondary_tables(),
        },
        SourceTruth {
            source: sources::interaction_db::NAME.to_string(),
            primary_tables: vec![sources::interaction_db::primary_table()],
            accession_columns: vec![sources::interaction_db::accession_column()],
            secondary_tables: sources::interaction_db::secondary_tables(),
        },
        SourceTruth {
            source: sources::archive::NAME.to_string(),
            primary_tables: vec![sources::archive::primary_table()],
            accession_columns: vec![sources::archive::accession_column()],
            secondary_tables: sources::archive::secondary_tables(),
        },
        SourceTruth {
            source: sources::taxonomy::NAME.to_string(),
            primary_tables: vec![sources::taxonomy::primary_table()],
            accession_columns: vec![sources::taxonomy::accession_column()],
            secondary_tables: sources::taxonomy::secondary_tables(),
        },
    ];
    if config.three_flavour_structures {
        for flavour in ["msd", "uniform"] {
            sources.push(SourceTruth {
                source: format!("structdb_{flavour}"),
                primary_tables: vec![format!("{flavour}_structures")],
                accession_columns: vec!["entry_code".to_string()],
                secondary_tables: Vec::new(),
            });
        }
    }

    // Object links.
    let mut links = Vec::new();
    let push_link = |from_source: &str,
                     from_acc: &str,
                     to_source: &str,
                     to_acc: &str,
                     links: &mut Vec<ObjectLink>| {
        links.push(ObjectLink {
            from_source: from_source.to_string(),
            from_accession: from_acc.to_string(),
            to_source: to_source.to_string(),
            to_accession: to_acc.to_string(),
            explicit: is_emitted(from_source, from_acc, to_source, to_acc),
        });
    };
    for p in &world.proteins {
        let p_acc = match &p.protkb_accession {
            Some(a) => a,
            None => continue,
        };
        if let Some(s_acc) = &p.structure_accession {
            push_link(
                sources::protein_kb::NAME,
                p_acc,
                sources::structure_db::NAME,
                s_acc,
                &mut links,
            );
        }
        if let Some(g_acc) = &p.gene_accession {
            push_link(
                sources::protein_kb::NAME,
                p_acc,
                sources::gene_db::NAME,
                g_acc,
                &mut links,
            );
        }
        for &term in &p.terms {
            push_link(
                sources::protein_kb::NAME,
                p_acc,
                sources::ontology_src::NAME,
                &world.terms[term].accession,
                &mut links,
            );
        }
        // Protein → taxon links are never explicit (no DR lines to taxdb).
        links.push(ObjectLink {
            from_source: sources::protein_kb::NAME.to_string(),
            from_accession: p_acc.clone(),
            to_source: sources::taxonomy::NAME.to_string(),
            to_accession: world.taxa[p.taxon].code.clone(),
            explicit: false,
        });
        // Gene → term links (the gene renderer emits at most the first term).
        if let Some(g_acc) = &p.gene_accession {
            if let Some(&term) = p.terms.first() {
                push_link(
                    sources::gene_db::NAME,
                    g_acc,
                    sources::ontology_src::NAME,
                    &world.terms[term].accession,
                    &mut links,
                );
            }
        }
    }
    for i in &world.interactions {
        for protein in [i.protein_a, i.protein_b] {
            if let Some(p_acc) = &world.proteins[protein].protkb_accession {
                push_link(
                    sources::interaction_db::NAME,
                    &i.accession,
                    sources::protein_kb::NAME,
                    p_acc,
                    &mut links,
                );
            }
        }
    }

    // Duplicates: protkb vs archive, plus structure flavours.
    let mut duplicates = Vec::new();
    for p in world.archived_proteins() {
        if let (Some(p_acc), Some(a_acc)) = (&p.protkb_accession, &p.archive_accession) {
            duplicates.push(DuplicatePair {
                source_a: sources::protein_kb::NAME.to_string(),
                accession_a: p_acc.clone(),
                source_b: sources::archive::NAME.to_string(),
                accession_b: a_acc.clone(),
            });
            // The archive entry describes the same object as the knowledgebase
            // entry, so it is also linked (explicitly only when the archive
            // emitted a uniprot_ref).
            push_link(
                sources::archive::NAME,
                a_acc,
                sources::protein_kb::NAME,
                p_acc,
                &mut links,
            );
        }
    }
    if config.three_flavour_structures {
        for s in &world.structures {
            for flavour in ["msd", "uniform"] {
                duplicates.push(DuplicatePair {
                    source_a: sources::structure_db::NAME.to_string(),
                    accession_a: s.accession.clone(),
                    source_b: format!("structdb_{flavour}"),
                    accession_b: s.accession.clone(),
                });
            }
        }
    }

    // Homolog pairs across protkb and archive (same family, different
    // real-world protein).
    let mut homologs = Vec::new();
    for a in world.archived_proteins() {
        for b in &world.proteins {
            if a.idx == b.idx || a.family != b.family {
                continue;
            }
            if let (Some(a_acc), Some(b_acc)) = (&a.archive_accession, &b.protkb_accession) {
                homologs.push(HomologPair {
                    source_a: sources::archive::NAME.to_string(),
                    accession_a: a_acc.clone(),
                    source_b: sources::protein_kb::NAME.to_string(),
                    accession_b: b_acc.clone(),
                    family: a.family,
                });
            }
        }
    }

    GroundTruth {
        sources,
        links,
        duplicates,
        homologs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = CorpusConfig::small(5);
        let c1 = Corpus::generate(&config);
        let c2 = Corpus::generate(&config);
        assert_eq!(c1.sources.len(), c2.sources.len());
        assert_eq!(c1.sources[0].files[0].1, c2.sources[0].files[0].1);
        assert_eq!(c1.truth.links.len(), c2.truth.links.len());
    }

    #[test]
    fn corpus_has_seven_sources_by_default() {
        let corpus = Corpus::generate(&CorpusConfig::small(1));
        assert_eq!(corpus.sources.len(), 7);
        for name in [
            "protkb",
            "structdb",
            "genedb",
            "ontodb",
            "interactdb",
            "archive",
            "taxdb",
        ] {
            assert!(corpus.source(name).is_some(), "missing source {name}");
        }
        assert!(corpus.byte_size() > 1000);
    }

    #[test]
    fn three_flavour_option_adds_structure_sources_and_duplicates() {
        let mut config = CorpusConfig::small(2);
        config.three_flavour_structures = true;
        let corpus = Corpus::generate(&config);
        assert_eq!(corpus.sources.len(), 9);
        assert!(corpus.source("structdb_msd").is_some());
        assert!(corpus
            .truth
            .duplicates
            .iter()
            .any(|d| d.source_b == "structdb_msd"));
    }

    #[test]
    fn all_sources_import_cleanly() {
        let corpus = Corpus::generate(&CorpusConfig::small(3));
        let dbs = corpus.import_all().unwrap();
        assert_eq!(dbs.len(), corpus.sources.len());
        for (db, truth) in dbs.iter().zip(&corpus.truth.sources) {
            assert_eq!(db.name(), truth.source);
            for table in &truth.primary_tables {
                assert!(
                    db.table(table).is_ok(),
                    "{}: missing primary table {table}",
                    db.name()
                );
            }
            for (table, column) in truth.primary_tables.iter().zip(&truth.accession_columns) {
                let t = db.table(table).unwrap();
                assert!(
                    t.schema().index_of(column).is_some(),
                    "{}: table {table} lacks accession column {column}",
                    db.name()
                );
                assert!(t.column_is_unique(column).unwrap());
            }
        }
    }

    #[test]
    fn withheld_links_follow_missing_xref_rate() {
        let mut config = CorpusConfig::small(4);
        config.missing_xref_rate = 0.0;
        let complete = Corpus::generate(&config);
        // protein→taxon and most archive→protkb links are never explicit.
        let inherently_implicit = complete
            .truth
            .links
            .iter()
            .filter(|l| l.to_source == "taxdb" || l.from_source == "archive")
            .count();
        assert!(complete.truth.withheld_link_count() <= inherently_implicit);

        config.missing_xref_rate = 0.5;
        let sparse = Corpus::generate(&config);
        assert!(sparse.truth.withheld_link_count() > complete.truth.withheld_link_count());
        assert_eq!(sparse.truth.links.len(), complete.truth.links.len());
    }

    #[test]
    fn duplicates_match_archive_overlap() {
        let mut config = CorpusConfig::small(6);
        config.archive_overlap = 1.0;
        let corpus = Corpus::generate(&config);
        assert_eq!(corpus.truth.duplicates.len(), config.n_proteins);
        config.archive_overlap = 0.0;
        let corpus = Corpus::generate(&config);
        assert!(corpus.truth.duplicates.is_empty());
    }

    #[test]
    fn homologs_share_families_and_exclude_self() {
        let corpus = Corpus::generate(&CorpusConfig::small(7));
        for h in &corpus.truth.homologs {
            assert_ne!(h.accession_a, h.accession_b);
            assert_eq!(h.source_a, "archive");
            assert_eq!(h.source_b, "protkb");
        }
    }

    #[test]
    fn presets_scale() {
        assert!(CorpusConfig::medium(1).n_proteins > CorpusConfig::small(1).n_proteins);
        assert!(CorpusConfig::large(1).n_proteins > CorpusConfig::medium(1).n_proteins);
        assert_eq!(CorpusConfig::default().seed, 0);
    }
}
