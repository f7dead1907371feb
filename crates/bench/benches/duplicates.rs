//! E8 — Section 4.5: duplicate detection across differently modelled sources,
//! with the similarity-measure ablation, and the medium world's genedb–protkb
//! pair, whose DNA and protein sequences never align closely enough to count.

use aladin_core::config::{DuplicateCandidates, DuplicateMeasure};
use aladin_core::duplicates::detect_duplicates;
use aladin_core::pipeline::analyze_database;
use aladin_core::AladinConfig;
use aladin_datagen::{Corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_duplicates(c: &mut Criterion) {
    let mut corpus_config = CorpusConfig::small(4);
    corpus_config.archive_overlap = 0.7;
    let corpus = Corpus::generate(&corpus_config);
    let protkb = corpus.source("protkb").unwrap().import().unwrap();
    let archive = corpus.source("archive").unwrap().import().unwrap();
    let config = AladinConfig::default();
    let protkb_structure = analyze_database(&protkb, &config).unwrap();
    let archive_structure = analyze_database(&archive, &config).unwrap();

    let mut group = c.benchmark_group("duplicate_detection");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));

    for measure in [
        DuplicateMeasure::EditDistance,
        DuplicateMeasure::QGram,
        DuplicateMeasure::TfIdf,
    ] {
        let config = AladinConfig {
            duplicate_measure: measure,
            ..AladinConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("protkb_vs_archive", format!("{measure:?}")),
            &config,
            |b, config| {
                b.iter(|| {
                    detect_duplicates(
                        &protkb,
                        &protkb_structure,
                        &archive,
                        &archive_structure,
                        &[],
                        config,
                    )
                    .unwrap()
                })
            },
        );
    }

    // Candidate-generation ablation: blocking vs. the all-vs-all TF-IDF
    // nearest-neighbour scan, same scoring either way.
    for mode in [
        DuplicateCandidates::Exhaustive,
        DuplicateCandidates::Blocked,
    ] {
        let config = AladinConfig {
            duplicate_candidate_mode: mode,
            ..AladinConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("candidate_mode", format!("{mode:?}")),
            &config,
            |b, config| {
                b.iter(|| {
                    detect_duplicates(
                        &protkb,
                        &protkb_structure,
                        &archive,
                        &archive_structure,
                        &[],
                        config,
                    )
                    .unwrap()
                })
            },
        );
    }
    let medium = Corpus::generate(&CorpusConfig::medium(3));
    let genedb = medium.source("genedb").unwrap().import().unwrap();
    let protkb = medium.source("protkb").unwrap().import().unwrap();
    let config = AladinConfig::default();
    let genedb_structure = analyze_database(&genedb, &config).unwrap();
    let protkb_structure = analyze_database(&protkb, &config).unwrap();
    group.bench_function("genedb_vs_protkb", |b| {
        b.iter(|| {
            detect_duplicates(
                &genedb,
                &genedb_structure,
                &protkb,
                &protkb_structure,
                &[],
                &config,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_duplicates);
criterion_main!(benches);
