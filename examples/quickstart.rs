//! Quickstart: generate a small synthetic life-science corpus, integrate it
//! almost hands-off, and access it through the unified `Warehouse` API.
//!
//! Run with: `cargo run --release --example quickstart`

use aladin::core::access::Warehouse;
use aladin::core::{Aladin, AladinConfig};
use aladin::datagen::{Corpus, CorpusConfig};

fn main() {
    // 1. A stand-in for downloading public databases: seven synthetic sources
    //    (protein knowledgebase, structures, genes, ontology, interactions,
    //    a second overlapping protein archive, taxonomy) in four formats.
    let corpus = Corpus::generate(&CorpusConfig::small(42));
    println!(
        "generated {} sources, {} bytes of raw files",
        corpus.sources.len(),
        corpus.byte_size()
    );

    // 2. Integrate every source. The only human input is the choice of parser
    //    (flat file / XML / tabular / FASTA); everything else is discovered.
    let mut aladin = Aladin::new(AladinConfig::default());
    for dump in &corpus.sources {
        let report = aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .expect("integration succeeds");
        println!(
            "integrated {:12} {:3} tables {:5} rows  primary: {}",
            report.source,
            report.tables,
            report.rows,
            report
                .primary_relations
                .iter()
                .map(|(t, c)| format!("{t}.{c}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // 3. The integrated sources become a read-only warehouse of objects and
    //    links. Its access structures (search index, link adjacency) are
    //    built once, on first use.
    let warehouse = Warehouse::from_aladin(aladin);
    println!(
        "\nwarehouse: {} sources, {} object links, {} duplicate links",
        warehouse.source_count(),
        warehouse.aladin().link_count(),
        warehouse.aladin().duplicate_count()
    );

    // 4. Browse one object and its neighbourhood.
    let object = warehouse
        .find_object("protkb", "P10000")
        .expect("the first protein exists");
    let view = warehouse.view(&object).expect("object view");
    println!("\nobject {object}");
    for (column, value) in view.attributes.iter().take(4) {
        println!("  {column}: {value}");
    }
    println!("  annotation rows: {}", view.annotation.len());
    println!("  duplicates flagged: {}", view.duplicates.len());
    for (other, kind, score) in view.linked.iter().take(5) {
        println!("  linked ({kind}, {score:.2}) -> {other}");
    }

    // 5. Compose the access modes: ranked search seeds, follow the discovered
    //    links into the structure source, stream the results in pages.
    let pages = warehouse
        .search("kinase")
        .follow_links(None, 1)
        .from_source("structdb")
        .cursor(5)
        .expect("composed query");
    println!("\nstructures linked to objects matching 'kinase':");
    for page in pages {
        for record in page.expect("page materializes") {
            let label = record
                .attr("title")
                .or_else(|| record.attr("structure_id"))
                .unwrap_or("-");
            println!("  {}  ({label})", record.object);
        }
    }
}
