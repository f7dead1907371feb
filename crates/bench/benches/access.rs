//! E10 — Section 4.6: the access engine (browse, ranked search, SQL and
//! cross-source queries) over an integrated warehouse, served through the
//! unified `Warehouse` facade.

use aladin_bench::integrate_corpus;
use aladin_core::access::{SearchIndex, Warehouse};
use aladin_core::AladinConfig;
use aladin_datagen::{Corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_access(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig::small(5));
    let (aladin, _) = integrate_corpus(&corpus, AladinConfig::default());
    let warehouse = Warehouse::from_aladin(aladin);
    warehouse.warm().unwrap();
    let first_object = warehouse
        .aladin()
        .objects_of("protkb")
        .unwrap()
        .into_iter()
        .next()
        .unwrap();

    let mut group = c.benchmark_group("access_engine");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));

    group.bench_function("ranked_search", |b| {
        b.iter(|| {
            warehouse
                .search_hits("kinase signal transduction", 10)
                .unwrap()
        })
    });
    group.bench_function("browse_object_view", |b| {
        b.iter(|| warehouse.view(&first_object).unwrap())
    });
    group.bench_function("sql_filter_query", |b| {
        b.iter(|| {
            warehouse
                .sql(
                    "protkb",
                    "SELECT ac, de FROM protkb_entry WHERE ac LIKE 'P%' LIMIT 20",
                )
                .unwrap()
        })
    });
    group.bench_function("cross_source_object_query", |b| {
        b.iter(|| {
            warehouse
                .cross_source_objects("protkb", "structdb")
                .unwrap()
        })
    });
    group.bench_function("build_search_index", |b| {
        b.iter(|| SearchIndex::build(warehouse.aladin()).unwrap())
    });
    group.bench_function("reachable_depth2", |b| {
        b.iter(|| warehouse.reachable(&first_object, 2).unwrap())
    });
    group.bench_function("composed_search_follow_cursor", |b| {
        b.iter(|| {
            let cursor = warehouse
                .search("kinase")
                .follow_links(None, 1)
                .from_source("structdb")
                .cursor(10)
                .unwrap();
            let mut rows = 0usize;
            for page in cursor {
                rows += page.unwrap().len();
            }
            rows
        })
    });
    group.finish();
}

criterion_group!(benches, bench_access);
criterion_main!(benches);
