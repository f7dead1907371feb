//! The cross-database query of Section 6: "consider a query for all genes of a
//! certain species on a certain chromosome that are connected to a disease via
//! a protein whose function is known" — a query spanning several object types
//! and several sources, answered by following discovered links and ranked by
//! the number of independent paths.
//!
//! Run with: `cargo run --release --example cross_database_query`

use aladin::core::access::Warehouse;
use aladin::core::{Aladin, AladinConfig};
use aladin::datagen::{Corpus, CorpusConfig};

fn main() {
    let mut config = CorpusConfig::medium(23);
    config.gene_fraction = 0.9;
    config.structure_fraction = 0.5;
    let corpus = Corpus::generate(&config);
    let mut aladin = Aladin::new(AladinConfig::default());
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .expect("integration succeeds");
    }
    let warehouse = Warehouse::from_aladin(aladin);

    // Step 1: select genes of a certain species on a certain chromosome with
    // plain SQL over the imported gene schema (LIMIT/OFFSET paginate).
    let genes = warehouse
        .sql(
            "genedb",
            "SELECT id, symbol, chromosome FROM genes_gene WHERE chromosome = '5' OR chromosome = '17' LIMIT 40",
        )
        .expect("gene selection");
    println!(
        "selected {} genes on chromosomes 5 and 17",
        genes.row_count()
    );

    // Step 2: follow the discovered links gene -> protein -> structure /
    // functional annotation, keeping only genes whose protein has a known
    // function (an ontology-term link) — the shape of the paper's example.
    // Each hop is one composed query over the cached link adjacency.
    let mut answers = Vec::new();
    for row in genes.rows() {
        let gene_acc = row[0].render();
        let proteins = warehouse
            .accession("genedb", &gene_acc)
            .follow_links(None, 1)
            .from_source("protkb")
            .fetch()
            .unwrap_or_default();
        for protein in proteins {
            let function_known = warehouse
                .accession("protkb", &protein.object.accession)
                .follow_links(None, 1)
                .from_source("ontodb")
                .count()
                .unwrap_or(0)
                > 0;
            if !function_known {
                continue;
            }
            let structure = warehouse
                .accession("protkb", &protein.object.accession)
                .follow_links(None, 1)
                .from_source("structdb")
                .limit(1)
                .fetch()
                .unwrap_or_default()
                .into_iter()
                .next();
            answers.push((
                gene_acc.clone(),
                row[1].render(),
                protein.object.accession.clone(),
                structure.map(|s| s.object.accession),
            ));
        }
    }
    println!(
        "{} genes are connected to a functionally annotated protein:",
        answers.len()
    );
    for (gene, symbol, protein, structure) in answers.iter().take(10) {
        println!(
            "  gene {gene} ({symbol}) -> protein {protein} -> structure {}",
            structure.clone().unwrap_or_else(|| "-".into())
        );
    }

    // Step 3: the path-count ranking the paper proposes: proteins linked to
    // structures, ordered by the number of independent link paths.
    let ranked = warehouse
        .cross_source_objects("protkb", "structdb")
        .expect("cross-source query");
    println!("\ntop protein-structure connections by number of independent paths:");
    for (protein, structure, paths) in ranked.iter().take(5) {
        println!("  {protein} -> {structure}: {paths} path(s)");
    }
}
