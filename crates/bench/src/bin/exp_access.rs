//! E10 — Sections 4.6 and 6: the three access modes over the integrated
//! warehouse, including the microarray browsing scenario (a set of 50–100
//! genes browsed with all their links) and the cross-database object query
//! (gene → protein → structure / disease-style traversal).

use aladin_bench::{integrate_corpus, print_table};
use aladin_core::access::{SearchIndex, Warehouse};
use aladin_core::AladinConfig;
use aladin_datagen::{Corpus, CorpusConfig};
use std::time::Instant;

fn main() {
    let mut config = CorpusConfig::medium(50);
    config.gene_fraction = 0.9;
    let corpus = Corpus::generate(&config);
    let (aladin, _) = integrate_corpus(&corpus, AladinConfig::default());
    let warehouse = Warehouse::from_aladin(aladin);

    // Ranked search (index build timed separately; the warehouse caches it).
    let start = Instant::now();
    let search = SearchIndex::build(warehouse.aladin()).unwrap();
    let index_time = start.elapsed();
    warehouse.warm().unwrap();
    let start = Instant::now();
    let hits = warehouse
        .search_hits("kinase signal transduction", 10)
        .unwrap();
    let search_time = start.elapsed();

    // Microarray scenario: browse 75 genes and count the links reachable.
    let genes = warehouse.aladin().objects_of("genedb").unwrap();
    let sample: Vec<_> = genes.iter().take(75).collect();
    let start = Instant::now();
    let mut total_links = 0usize;
    let mut total_annotation = 0usize;
    for gene in &sample {
        let view = warehouse.view(gene).unwrap();
        total_links += view.linked.len() + view.duplicates.len();
        total_annotation += view.annotation.len();
    }
    let browse_time = start.elapsed();

    // Cross-database structured query: protein objects of protkb that are
    // linked to a structure, ranked by the number of independent paths.
    let start = Instant::now();
    let cross = warehouse
        .cross_source_objects("protkb", "structdb")
        .unwrap();
    let cross_time = start.elapsed();

    // SQL over the imported schema.
    let start = Instant::now();
    let sql = warehouse
        .sql(
            "protkb",
            "SELECT ac, de FROM protkb_entry WHERE de LIKE '%kinase%' ORDER BY ac LIMIT 25",
        )
        .unwrap();
    let sql_time = start.elapsed();

    print_table(
        "Access engine (Section 4.6) on the integrated warehouse",
        &["operation", "result size", "time ms"],
        &[
            vec![
                format!(
                    "build full-text index ({} documents)",
                    search.document_count()
                ),
                "-".into(),
                format!("{:.1}", index_time.as_secs_f64() * 1000.0),
            ],
            vec![
                "ranked search 'kinase signal transduction'".into(),
                hits.len().to_string(),
                format!("{:.2}", search_time.as_secs_f64() * 1000.0),
            ],
            vec![
                format!("browse {} genes (microarray scenario)", sample.len()),
                format!("{total_links} links, {total_annotation} annotation rows"),
                format!("{:.1}", browse_time.as_secs_f64() * 1000.0),
            ],
            vec![
                "cross-source query protkb → structdb".into(),
                cross.len().to_string(),
                format!("{:.2}", cross_time.as_secs_f64() * 1000.0),
            ],
            vec![
                "SQL filter on imported schema".into(),
                sql.row_count().to_string(),
                format!("{:.2}", sql_time.as_secs_f64() * 1000.0),
            ],
        ],
    );

    if let Some((protein, structure, paths)) = cross.first() {
        println!(
            "\nexample cross-database answer: {protein} is connected to {structure} via {paths} independent path(s)"
        );
    }
}
