//! E12 — the concurrent serving layer (`core::serve`): N client threads run
//! a mixed browse/search/point-query/join workload against MVCC snapshots of
//! the integrated warehouse, with and without a concurrent `refresh_source`
//! writer republishing the world. Writes latency percentiles, throughput and
//! consistency counters to `BENCH_serve.json`.
//!
//! Scenarios:
//!
//! * `uncached_single` — one reader, caching disabled: the baseline every
//!   cached run is compared against.
//! * `cached_single` — one reader, default cache; the fixed query pool
//!   repeats, so after the first lap almost every read is a cache hit.
//! * `cached_multi` — eight readers sharing one cache.
//! * `cached_multi_writer` — eight readers while one writer re-integrates
//!   sources at full change fraction; readers must observe zero failed and
//!   zero inconsistent reads across generation flips.
//!
//! `--smoke` runs the small corpus with a reduced op budget (used by CI);
//! the default is the medium corpus. Each single-reader scenario runs
//! [`SINGLE_READER_RUNS`] times and reports its median-throughput run.

use aladin_bench::{fmt3, integrate_corpus, print_table};
use aladin_core::serve::{ServeConfig, Server};
use aladin_core::{AladinConfig, ObjectRef, QuerySpec};
use aladin_datagen::{Corpus, CorpusConfig};
use aladin_relstore::Database;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Runs of each single-reader scenario, each on a fresh server; the run with
/// the median throughput is reported. One reader finishes the smoke budget
/// in a few milliseconds, so a single run swings with the host.
const SINGLE_READER_RUNS: usize = 5;

/// One client's share of the mixed workload, cycling a fixed pool of
/// browse/search/point-query/join operations. The pool repeats on purpose:
/// the machine may have a single core, so cached scenarios must win through
/// cache hits, not parallelism.
struct Workload {
    source: String,
    specs: Vec<QuerySpec>,
    searches: Vec<&'static str>,
    refs: Vec<ObjectRef>,
    sql: Vec<String>,
    join_table: Option<String>,
}

impl Workload {
    fn plan(server: &Server, source: &str) -> Workload {
        let snapshot = server.snapshot();
        let refs: Vec<ObjectRef> = snapshot
            .warehouse()
            .aladin()
            .objects_of(source)
            .expect("seed source has objects")
            .into_iter()
            .take(8)
            .collect();
        assert!(!refs.is_empty(), "seed source must have primary objects");
        let mut specs = vec![
            QuerySpec::scan().from_source(source).limit(12),
            QuerySpec::scan().from_source(source).offset(4).limit(8),
            QuerySpec::search("kinase").limit(10),
            QuerySpec::search("transporter protein")
                .from_source(source)
                .limit(6),
        ];
        // Point queries on real accessions.
        for object in refs.iter().take(4) {
            specs.push(QuerySpec::accession(&object.source, &object.accession));
        }
        let structure = snapshot
            .warehouse()
            .metadata()
            .structure(source)
            .expect("integrated source has a structure");
        let primary = structure.primary_relations[0].table.clone();
        let accession_column = structure.primary_relations[0].accession_column.clone();
        let sql = vec![
            format!("SELECT {accession_column} FROM {primary} ORDER BY {accession_column} LIMIT 20"),
            format!("SELECT {accession_column} FROM {primary} ORDER BY {accession_column} LIMIT 10 OFFSET 5"),
        ];
        let join_table = structure
            .secondary_relations
            .first()
            .map(|relation| relation.table.clone());
        Workload {
            source: source.to_string(),
            specs,
            searches: vec!["kinase", "crystal structure", "assembly factor"],
            refs,
            sql,
            join_table,
        }
    }

    /// Execute the `i`-th operation of the cycle. Returns `false` when the
    /// read failed.
    fn run_op(&self, server: &Server, i: usize) -> bool {
        match i % 4 {
            0 => server.fetch(&self.specs[i / 4 % self.specs.len()]).is_ok(),
            1 => {
                let query = self.searches[i / 4 % self.searches.len()];
                server.search(query, 10).is_ok()
            }
            2 => server.view(&self.refs[i / 4 % self.refs.len()]).is_ok(),
            _ => {
                if (i / 4).is_multiple_of(2) {
                    server
                        .sql(&self.source, &self.sql[i / 8 % self.sql.len()])
                        .is_ok()
                } else if let Some(table) = &self.join_table {
                    server.join_path(&self.source, table).is_ok()
                } else {
                    server.fetch(&self.specs[0]).is_ok()
                }
            }
        }
    }
}

/// Measurements of one scenario.
struct ScenarioResult {
    ops: usize,
    failed: usize,
    inconsistent: usize,
    wall_s: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    snapshots_published: u64,
    generation_end: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    server: &Server,
    workload: &Workload,
    readers: usize,
    ops_per_reader: usize,
    writer_dbs: Option<&[Database]>,
    writer_refreshes: usize,
) -> ScenarioResult {
    let failed = AtomicUsize::new(0);
    let inconsistent = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(writer_dbs.is_none());

    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader in 0..readers {
            let failed = &failed;
            let inconsistent = &inconsistent;
            let done = &done;
            let writer_done = &writer_done;
            handles.push(scope.spawn(move || {
                let mut latencies = Vec::with_capacity(ops_per_reader);
                let mut i = reader; // desynchronise the cycle starts
                                    // Keep reading past the quota until the writer retires, so
                                    // every generation flip happens under read load.
                while latencies.len() < ops_per_reader || !writer_done.load(Ordering::Acquire) {
                    let snapshot = server.snapshot();
                    if snapshot.warehouse().metadata().generation() != snapshot.generation() {
                        inconsistent.fetch_add(1, Ordering::Relaxed);
                    }
                    // Spot-check cached-vs-uncached identity on the pinned
                    // snapshot (outside the timed region).
                    if i % 32 == 0 {
                        let spec = &workload.specs[i / 32 % workload.specs.len()];
                        match (
                            server.fetch(spec),
                            snapshot.warehouse().query(spec.clone()).fetch(),
                        ) {
                            (Ok(cached), Ok(direct)) => {
                                if snapshot.generation() == server.generation()
                                    && format!("{cached:?}") != format!("{direct:?}")
                                {
                                    inconsistent.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    let op_start = Instant::now();
                    if !workload.run_op(server, i) {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                    latencies.push(op_start.elapsed().as_secs_f64() * 1000.0);
                    done.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                latencies
            }));
        }
        if let Some(dbs) = writer_dbs {
            let writer_done = &writer_done;
            scope.spawn(move || {
                for round in 0..writer_refreshes {
                    server
                        .refresh_source(dbs[round % dbs.len()].clone(), 1.0)
                        .expect("refresh re-integrates")
                        .expect("full change publishes");
                }
                writer_done.store(true, Ordering::Release);
            });
        }
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("reader thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let metrics = server.metrics();
    ScenarioResult {
        ops: latencies_ms.len(),
        failed: failed.load(Ordering::Relaxed),
        inconsistent: inconsistent.load(Ordering::Relaxed),
        wall_s,
        throughput: latencies_ms.len() as f64 / wall_s.max(1e-9),
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        cache_hits: metrics.cache_hits,
        cache_misses: metrics.cache_misses,
        snapshots_published: metrics.snapshots_published,
        generation_end: metrics.generation,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let corpus_config = if smoke {
        CorpusConfig::small(7)
    } else {
        CorpusConfig::medium(7)
    };
    let ops_per_reader = if smoke { 120 } else { 400 };
    let readers = 8;
    let writer_refreshes = 2;

    let corpus = Corpus::generate(&corpus_config);
    let dbs = corpus.import_all().expect("corpus imports cleanly");
    let seed_source = corpus.sources[0].name.clone();
    let (aladin, _) = integrate_corpus(&corpus, AladinConfig::default());

    let scenarios: Vec<(&str, usize, bool, bool)> = vec![
        // (name, readers, cached, concurrent writer)
        ("uncached_single", 1, false, false),
        ("cached_single", 1, true, false),
        ("cached_multi", readers, true, false),
        ("cached_multi_writer", readers, true, true),
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"smoke\": {smoke}, \"world\": \"{}\", \"readers\": {readers}, \
         \"ops_per_reader\": {ops_per_reader}, \"writer_refreshes\": {writer_refreshes}, \
         \"single_reader_runs\": {SINGLE_READER_RUNS}}},",
        if smoke { "small" } else { "medium" }
    );
    let _ = writeln!(json, "  \"scenarios\": {{");

    let mut uncached_throughput = f64::NAN;
    let mut cached_throughput = f64::NAN;
    let mut writer_failed = 0usize;
    let mut writer_inconsistent = 0usize;

    for (index, (name, scenario_readers, cached, with_writer)) in scenarios.iter().enumerate() {
        let config = if *cached {
            ServeConfig::default()
        } else {
            ServeConfig::uncached()
        };
        let runs = if *scenario_readers == 1 {
            SINGLE_READER_RUNS
        } else {
            1
        };
        let mut results: Vec<ScenarioResult> = (0..runs)
            .map(|_| {
                // A fresh server per run: each starts from a cold cache and
                // the initial generation.
                let server = Server::start(aladin.clone(), config.clone())
                    .expect("initial snapshot publishes");
                let workload = Workload::plan(&server, &seed_source);
                run_scenario(
                    &server,
                    &workload,
                    *scenario_readers,
                    ops_per_reader,
                    with_writer.then_some(dbs.as_slice()),
                    writer_refreshes,
                )
            })
            .collect();
        results.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
        let result = results.swap_remove(runs / 2);

        match *name {
            "uncached_single" => uncached_throughput = result.throughput,
            "cached_single" => cached_throughput = result.throughput,
            "cached_multi_writer" => {
                writer_failed = result.failed;
                writer_inconsistent = result.inconsistent;
            }
            _ => {}
        }

        rows.push(vec![
            (*name).to_string(),
            scenario_readers.to_string(),
            result.ops.to_string(),
            fmt3(result.throughput),
            format!("{:.2}", result.p50_ms),
            format!("{:.2}", result.p99_ms),
            format!(
                "{}/{}",
                result.cache_hits,
                result.cache_hits + result.cache_misses
            ),
            result.failed.to_string(),
            result.inconsistent.to_string(),
            result.snapshots_published.to_string(),
        ]);
        let comma = if index + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"readers\": {}, \"writer\": {with_writer}, \"ops\": {}, \
             \"failed\": {}, \"inconsistent\": {}, \"wall_s\": {:.3}, \
             \"throughput_ops_s\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"snapshots_published\": {}, \
             \"generation_end\": {}}}{comma}",
            scenario_readers,
            result.ops,
            result.failed,
            result.inconsistent,
            result.wall_s,
            result.throughput,
            result.p50_ms,
            result.p99_ms,
            result.cache_hits,
            result.cache_misses,
            result.snapshots_published,
            result.generation_end,
        );
    }

    let speedup = cached_throughput / uncached_throughput.max(1e-9);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup_cached_vs_uncached\": {speedup:.2}");
    json.push_str("}\n");

    print_table(
        "Concurrent serving: mixed workload over MVCC snapshots",
        &[
            "scenario",
            "readers",
            "ops",
            "ops/s",
            "p50 ms",
            "p99 ms",
            "cache hit/total",
            "failed",
            "inconsistent",
            "snapshots",
        ],
        &rows,
    );
    println!(
        "\ncached single-reader throughput is {speedup:.2}x the uncached baseline; \
         8 readers + 1 writer: {writer_failed} failed, {writer_inconsistent} inconsistent reads"
    );

    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
