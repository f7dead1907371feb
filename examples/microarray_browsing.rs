//! The microarray scenario of Section 6.2: "typical microarray experiments
//! produce a set of 50-100 genes. Biologists then manually browse a large
//! number of web sites following hyper links for each gene." With ALADIN the
//! whole neighbourhood of every gene — proteins, structures, functional terms,
//! duplicates — is available from one integrated warehouse, plus ranked
//! full-text search.
//!
//! Run with: `cargo run --release --example microarray_browsing`

use aladin::core::access::Warehouse;
use aladin::core::{Aladin, AladinConfig};
use aladin::datagen::{Corpus, CorpusConfig};

fn main() {
    let mut config = CorpusConfig::medium(11);
    config.gene_fraction = 0.9;
    let corpus = Corpus::generate(&config);
    let mut aladin = Aladin::new(AladinConfig::default());
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .expect("integration succeeds");
    }
    let warehouse = Warehouse::from_aladin(aladin);

    // The "hit list" of a microarray experiment: 60 genes.
    let genes = warehouse
        .scan()
        .from_source("genedb")
        .limit(60)
        .fetch()
        .expect("genes integrated");
    println!(
        "browsing {} genes from the experiment hit list\n",
        genes.len()
    );

    // Every view is served from the warehouse's cached link adjacency — the
    // 60 views below scan the link set once in total, not once per gene.
    let mut total_links = 0usize;
    for (i, gene) in genes.iter().enumerate() {
        let view = warehouse.view(&gene.object).expect("gene view");
        total_links += view.linked.len();
        if i < 5 {
            let targets: Vec<String> = view
                .linked
                .iter()
                .take(4)
                .map(|(o, kind, _)| format!("{o} [{kind}]"))
                .collect();
            println!(
                "{}: {} links, e.g. {}",
                gene.object,
                view.linked.len(),
                targets.join(", ")
            );
        }
    }
    println!(
        "...\naltogether {} links reachable from the hit list without visiting a single web site",
        total_links
    );

    // Google-style retrieval across all integrated sources.
    println!("\nranked search for 'kinase cell cycle regulation':");
    for hit in warehouse
        .search_hits("kinase cell cycle regulation", 5)
        .expect("search index")
    {
        println!(
            "  {:30} score {:.3} (field {})",
            hit.object.to_string(),
            hit.score,
            hit.field
        );
    }
    println!("\nsearch restricted to the ontology source:");
    for hit in warehouse
        .search_hits_in_source("cell cycle regulation", "ontodb", 3)
        .expect("search index")
    {
        println!("  {:30} score {:.3}", hit.object.to_string(), hit.score);
    }
}
