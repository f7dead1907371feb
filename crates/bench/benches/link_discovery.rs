//! E5 — Section 4.4: link discovery with and without pruning.
//!
//! Measures the cost of explicit cross-reference discovery between the protein
//! knowledgebase and the structure database with the paper's pruning rules on
//! and off, and the two implicit probes of the medium world's costliest pair:
//! genedb's DNA against protkb's protein index (no link can reach the
//! threshold, so the composition bound skips nearly every alignment) and
//! genedb's descriptions against a TF-IDF model of protkb's.

use aladin_core::config::PruningConfig;
use aladin_core::links::explicit::discover_explicit_links;
use aladin_core::links::implicit::{discover_sequence_links, discover_text_links};
use aladin_core::pipeline::analyze_database;
use aladin_core::AladinConfig;
use aladin_datagen::{Corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_link_discovery(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig::small(2));
    let config = AladinConfig::default();
    let protkb = corpus.source("protkb").unwrap().import().unwrap();
    let structdb = corpus.source("structdb").unwrap().import().unwrap();
    let protkb_structure = analyze_database(&protkb, &config).unwrap();
    let structdb_structure = analyze_database(&structdb, &config).unwrap();

    let mut group = c.benchmark_group("link_discovery");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));

    group.bench_function("explicit_with_pruning", |b| {
        b.iter(|| {
            discover_explicit_links(
                &protkb,
                &protkb_structure,
                &structdb,
                &structdb_structure,
                &config,
            )
            .unwrap()
        })
    });

    let unpruned = AladinConfig {
        pruning: PruningConfig::none(),
        ..AladinConfig::default()
    };
    group.bench_function("explicit_without_pruning", |b| {
        b.iter(|| {
            discover_explicit_links(
                &protkb,
                &protkb_structure,
                &structdb,
                &structdb_structure,
                &unpruned,
            )
            .unwrap()
        })
    });

    let medium = Corpus::generate(&CorpusConfig::medium(3));
    let genedb = medium.source("genedb").unwrap().import().unwrap();
    let protkb = medium.source("protkb").unwrap().import().unwrap();
    let genedb_structure = analyze_database(&genedb, &config).unwrap();
    let protkb_structure = analyze_database(&protkb, &config).unwrap();
    let pair = (&genedb, &genedb_structure, &protkb, &protkb_structure);
    group.bench_function("sequence_genedb_vs_protkb", |b| {
        b.iter(|| discover_sequence_links(pair.0, pair.1, pair.2, pair.3, &config).unwrap())
    });
    group.bench_function("text_genedb_vs_protkb", |b| {
        b.iter(|| discover_text_links(pair.0, pair.1, pair.2, pair.3, &config).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_link_discovery);
criterion_main!(benches);
