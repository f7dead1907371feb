//! The COLUMBA-style case study (paper, Section 5): annotate protein
//! structures with protein, gene and functional information from several
//! sources, relying only on ALADIN's automatic discovery — no hand-written
//! schema mappings.
//!
//! Run with: `cargo run --release --example protein_structure_annotation`

use aladin::core::access::Warehouse;
use aladin::core::{Aladin, AladinConfig};
use aladin::datagen::{Corpus, CorpusConfig};

fn main() {
    // A corpus with a high structure coverage and some annotation backlog
    // (missing cross-references), as in the real PDB/Swiss-Prot landscape.
    let mut config = CorpusConfig::medium(7);
    config.structure_fraction = 0.5;
    config.missing_xref_rate = 0.25;
    let corpus = Corpus::generate(&config);

    let mut aladin = Aladin::new(AladinConfig::default());
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .expect("integration succeeds");
    }
    let warehouse = Warehouse::from_aladin(aladin);

    // The discovered structure of the protein knowledgebase mirrors the
    // BioSQL discussion of the paper: the entry table is primary, the
    // multi-valued annotation tables hang off it.
    let protkb = warehouse
        .metadata()
        .structure("protkb")
        .expect("protkb integrated");
    println!("protkb primary relation(s):");
    for p in &protkb.primary_relations {
        println!(
            "  {} (accession column '{}', in-degree {})",
            p.table, p.accession_column, p.in_degree
        );
    }
    println!("protkb secondary relations:");
    for s in &protkb.secondary_relations {
        println!("  {} via {:?}", s.table, s.path);
    }

    // Annotate every structure: follow the discovered links from structures
    // back to proteins, and from proteins onwards to genes and ontology terms.
    let mut annotated = 0usize;
    let mut with_gene = 0usize;
    for structure in warehouse
        .scan()
        .from_source("structdb")
        .limit(10)
        .fetch()
        .expect("structures exist")
    {
        let proteins = warehouse
            .accession("structdb", &structure.object.accession)
            .follow_links(None, 1)
            .from_source("protkb")
            .join_annotation("protkb_kw")
            .fetch()
            .expect("link traversal");
        let Some(protein) = proteins.first() else {
            continue;
        };
        annotated += 1;
        let gene = warehouse
            .accession("protkb", &protein.object.accession)
            .follow_links(None, 1)
            .from_source("genedb")
            .limit(1)
            .fetch()
            .expect("link traversal")
            .into_iter()
            .next();
        if gene.is_some() {
            with_gene += 1;
        }
        println!(
            "structure {:8} -> protein {:10} -> gene {:18} (annotation rows: {})",
            structure.object.accession,
            protein.object.accession,
            gene.map(|g| g.object.accession)
                .unwrap_or_else(|| "-".into()),
            protein.annotation.len()
        );
    }
    println!("\n{annotated} of the first 10 structures annotated with a protein, {with_gene} also with a gene");

    // A COLUMBA-style iterative filter query on the imported schema.
    let result = warehouse
        .sql(
            "structdb",
            "SELECT structure_id, resolution, method FROM structures WHERE resolution < 2.0 ORDER BY resolution LIMIT 5",
        )
        .expect("SQL over the imported structure schema");
    println!("\nhigh-resolution structures (resolution < 2.0 Å):");
    for row in result.rows() {
        println!("  {} {:>4} {}", row[0], row[1], row[2]);
    }
}
