//! Naive (materialize-everything) versus optimized (rule-based plan rewrite +
//! streaming execution) relstore executors on the serving-path query shapes:
//! point lookup, filter + limit, and filter + join + sort + limit, at 1k/10k/
//! 100k rows. `optimized/*` should sit orders of magnitude below its
//! `naive/*` counterpart on the index-eligible and early-terminating shapes.
//! The workload lives in `aladin_bench::relstore_workload`, shared with the
//! `exp_relstore` runner that records the numbers in `BENCH_relstore.json`.

use aladin_bench::relstore_workload::{build_db, shapes};
use aladin_relstore::exec::{execute, execute_naive};
use aladin_relstore::optimize::optimize;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_relstore_exec(c: &mut Criterion) {
    for rows in [1_000usize, 10_000, 100_000] {
        let db = build_db(rows);
        let shaped = shapes(rows);
        // Warm the catalog's index/stats caches so the optimized numbers
        // reflect the steady serving state, not the one-off build.
        for (_, plan) in &shaped {
            execute(&db, &optimize(&db, plan)).unwrap();
        }

        let mut group = c.benchmark_group("naive");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2));
        for (name, plan) in &shaped {
            group.bench_with_input(BenchmarkId::new(*name, rows), plan, |b, plan| {
                b.iter(|| execute_naive(&db, plan).unwrap())
            });
        }
        group.finish();

        let mut group = c.benchmark_group("optimized");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2));
        for (name, plan) in &shaped {
            group.bench_with_input(BenchmarkId::new(*name, rows), plan, |b, plan| {
                b.iter(|| execute(&db, &optimize(&db, plan)).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_relstore_exec);
criterion_main!(benches);
