//! Recovery experiment and crash harness for the durable warehouse.
//!
//! A durable warehouse (`AladinConfig::with_data_dir`) keeps one
//! checksummed snapshot (`relstore::persist`) and one stored outcome (its
//! links, duplicates and pair failures) per committed source, beside an
//! event log of commits (`relstore::wal`). `Aladin::open` replays the log,
//! loads both files of every source, re-runs the source-local structure
//! discovery, and rediscovers links only for a source whose stored outcome
//! it cannot trust. Three modes:
//!
//! * **default / `--smoke`** — time a restart layer by layer:
//!   `wal::replay` of logs of N appended records, `rows_per_batch` rows each
//!   (`wal_replay`); `persist::read_snapshot` of one source snapshot holding
//!   the rows of the longest log (`snapshot`), with `crossover_records`, the
//!   log length whose replay costs one snapshot load; and `Aladin::open` of
//!   a store holding an integrated corpus, in CPU and wall milliseconds,
//!   once loading the stored outcomes and once with the `.links` files
//!   deleted, which rediscovers every source (`pipeline_restart`: the small
//!   corpus under `--smoke`, the medium one otherwise). Results go to
//!   `BENCH_recovery.json`; `--smoke` shrinks the sizes for CI.
//! * **`--writer <dir>`** — run a durable server that integrates and then
//!   endlessly refreshes a synthetic corpus rooted at `<dir>`, printing a
//!   line per committed generation. This is the kill -9 target of the CI
//!   crash drill: it is meant to die mid-commit.
//! * **`--check <dir>`** — reopen the store at `<dir>` after a crash and
//!   verify integrity, exiting non-zero on any violation:
//!   - no committed source is lost;
//!   - every source's outcome is loaded, none rediscovered: each `.links`
//!     file is fsync'd before its commit event, so a kill can never force
//!     a rediscovery;
//!   - no staged file or its temp file (`sources/*.next`) outlives the
//!     reopen;
//!   - the loaded links and duplicates equal those of an in-memory
//!     re-integration of the recovered snapshots in recovery order:
//!     endpoints, kind, score bits and evidence, in order;
//!   - every recovered source passes its constraint check;
//!   - a resumed server continues at (or after) the last published
//!     generation.

use aladin_bench::print_table;
use aladin_core::{
    Aladin, AladinConfig, Link, LinkKind, ObjectRef, PipelineRecovery, ServeConfig, Server,
};
use aladin_datagen::{Corpus, CorpusConfig};
use aladin_relstore::persist;
use aladin_relstore::wal::{self, Wal};
use aladin_relstore::{ColumnDef, Database, TableSchema, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("aladin-exp-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Median wall time of `f` in microseconds over `iters` runs.
fn median_us<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    median(
        (0..iters.max(1))
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock id for the CPU time of the calling process, every thread
/// (finished ones included) together.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU milliseconds this process has run, every thread together.
fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of 64-bit Linux,
    // and the clock id exists on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// One way of reopening a store, timed: median CPU and wall milliseconds
/// of `Aladin::open` over several runs, and what the last run recovered.
struct TimedOpen {
    cpu_ms: f64,
    wall_ms: f64,
    aladin: Aladin,
    recovery: PipelineRecovery,
}

fn time_open(config: &AladinConfig, iters: usize) -> TimedOpen {
    let (mut cpu, mut wall, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..iters.max(1) {
        let (cpu_before, start) = (process_cpu_ms(), Instant::now());
        let opened = Aladin::open(config.clone()).expect("reopen store");
        wall.push(start.elapsed().as_secs_f64() * 1e3);
        cpu.push(process_cpu_ms() - cpu_before);
        last = Some(opened);
    }
    let (aladin, recovery) = last.expect("at least one run");
    TimedOpen {
        cpu_ms: median(cpu),
        wall_ms: median(wall),
        aladin,
        recovery,
    }
}

/// The accession and description of fixture row `id`.
fn fixture_text(id: usize) -> (String, String) {
    (
        format!("P{id:06}"),
        format!("synthetic protein number {id}"),
    )
}

/// Write a log of `records` fsync'd appends of `rows_each` fixture rows
/// each, in the `persist` codec; returns the log's length in bytes.
fn write_log(path: &Path, records: usize, rows_each: usize) -> u64 {
    let mut log = Wal::create(path, 0).expect("create log");
    for r in 0..records {
        let mut payload = Vec::new();
        for id in r * rows_each..(r + 1) * rows_each {
            let (ac, description) = fixture_text(id);
            persist::put_u64(&mut payload, id as u64);
            persist::put_str(&mut payload, &ac);
            persist::put_str(&mut payload, &description);
        }
        log.append(&payload).expect("append record");
    }
    std::fs::metadata(path).expect("log length").len()
}

/// A source database holding `rows` fixture rows in one table.
fn source_with_rows(rows: usize) -> Database {
    let mut db = Database::new("bench");
    db.create_table(
        "entry",
        TableSchema::of(vec![
            ColumnDef::int("id"),
            ColumnDef::text("ac"),
            ColumnDef::text("description"),
        ]),
    )
    .expect("create table");
    db.insert_all(
        "entry",
        (0..rows).map(|id| {
            let (ac, description) = fixture_text(id);
            vec![
                Value::Int(id as i64),
                Value::text(ac),
                Value::text(description),
            ]
        }),
    )
    .expect("insert rows");
    db
}

/// Time `Aladin::open` of a store holding an integrated corpus, loading the
/// stored outcomes and then rediscovering every source (the store with its
/// `.links` files deleted, as a store written before outcomes were
/// stored). Returns the `pipeline_restart` JSON entry and its table row.
fn pipeline_restart(smoke: bool, iters: usize) -> (String, Vec<String>) {
    let (world, corpus) = if smoke {
        ("small", corpus())
    } else {
        ("medium", Corpus::generate(&CorpusConfig::medium(42)))
    };
    let dir = temp_dir("restart");
    let config = AladinConfig::default().with_data_dir(&dir);
    let mut aladin = Aladin::new(config.clone());
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .expect("integrate source");
    }
    drop(aladin);

    let loaded = time_open(&config, iters);
    assert_eq!(loaded.recovery.lost, Vec::<String>::new());
    assert_eq!(loaded.recovery.rediscovered, Vec::<String>::new());
    let sources = loaded.recovery.recovered.len();
    assert_eq!(sources, corpus.sources.len());
    for entry in std::fs::read_dir(dir.join("sources")).expect("list store") {
        let path = entry.expect("store entry").path();
        if path.extension().is_some_and(|ext| ext == "links") {
            std::fs::remove_file(path).expect("delete outcome");
        }
    }
    let rediscovered = time_open(&config, iters);
    assert_eq!(rediscovered.recovery.rediscovered.len(), sources);
    let (meta, again) = (loaded.aladin.metadata(), rediscovered.aladin.metadata());
    assert_eq!(meta.links(), again.links());
    assert_eq!(meta.duplicates(), again.duplicates());
    let (links, duplicates) = (meta.links().len(), meta.duplicates().len());
    let _ = std::fs::remove_dir_all(dir);

    let json = format!(
        "  \"pipeline_restart\": {{\"world\": \"{world}\", \"sources\": {sources}, \
         \"links\": {links}, \"duplicates\": {duplicates},\n    \
         \"loaded\": {{\"cpu_ms\": {:.1}, \"wall_ms\": {:.1}}},\n    \
         \"rediscovered\": {{\"cpu_ms\": {:.1}, \"wall_ms\": {:.1}}}}},\n",
        loaded.cpu_ms, loaded.wall_ms, rediscovered.cpu_ms, rediscovered.wall_ms
    );
    let row = vec![
        world.to_string(),
        sources.to_string(),
        links.to_string(),
        duplicates.to_string(),
        format!("{:.1}", loaded.cpu_ms),
        format!("{:.1}", loaded.wall_ms),
        format!("{:.1}", rediscovered.cpu_ms),
        format!("{:.1}", rediscovered.wall_ms),
    ];
    (json, row)
}

fn bench(smoke: bool) {
    let sizes: &[usize] = if smoke {
        &[20, 80, 200]
    } else {
        &[50, 200, 800, 2000]
    };
    let rows_each = 8;
    let iters = if smoke { 3 } else { 7 };
    let dir = temp_dir("bench");

    let mut json = String::from("{\n");
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(
        json,
        "  \"config\": {{\"smoke\": {smoke}, \"cpus\": {cpus}, \"rows_per_batch\": {rows_each}}},"
    );
    json.push_str("  \"wal_replay\": [\n");

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut points: Vec<(usize, f64)> = Vec::new();
    for (i, &records) in sizes.iter().enumerate() {
        let log = dir.join(format!("log-{records}.wal"));
        let wal_bytes = write_log(&log, records, rows_each);
        let us = median_us(iters, || {
            let replay = wal::replay(&log, 0).expect("replay");
            assert!(replay.truncated.is_none());
            assert_eq!(replay.records.len(), records);
        });
        points.push((records, us));
        table.push(vec![
            records.to_string(),
            wal_bytes.to_string(),
            format!("{us:.1}"),
        ]);
        let comma = if i + 1 < sizes.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"records\": {records}, \"wal_bytes\": {wal_bytes}, \"recover_us\": {us:.1}}}{comma}"
        );
    }
    json.push_str("  ],\n");

    // One source snapshot holding every row of the longest log.
    let records = *sizes.last().expect("at least one size");
    let rows = records * rows_each;
    let snapshot = dir.join("bench.snap");
    persist::write_snapshot_at(&snapshot, &source_with_rows(rows), records as u64)
        .expect("write snapshot");
    let snap_us = median_us(iters, || {
        let (db, seq) = persist::read_snapshot(&snapshot).expect("load snapshot");
        assert_eq!(seq, records as u64);
        assert_eq!(db.total_rows(), rows);
    });
    let _ = writeln!(
        json,
        "  \"snapshot\": {{\"records\": {records}, \"recover_us\": {snap_us:.1}}},"
    );

    // Crossover: replay time grows linearly with log length, one snapshot
    // load is fixed. Fit replay = base + n * per_record from the first and
    // last points; the crossover is the length whose replay costs one load.
    let (n0, t0) = points[0];
    let (n1, t1) = points[points.len() - 1];
    let per_record = ((t1 - t0) / (n1 - n0) as f64).max(1e-3);
    let base = (t0 - n0 as f64 * per_record).max(0.0);
    let crossover = ((snap_us - base) / per_record).max(0.0);
    let (restart_json, restart_row) = pipeline_restart(smoke, if smoke { 3 } else { 5 });
    json.push_str(&restart_json);
    let _ = writeln!(json, "  \"replay_per_record_us\": {per_record:.2},");
    let _ = writeln!(json, "  \"crossover_records\": {crossover:.0}");
    json.push_str("}\n");

    print_table(
        "Restart read 1: event-log replay (median µs)",
        &["wal_records", "wal_bytes", "recover_us"],
        &table,
    );
    print_table(
        "Restart read 2: one source snapshot load, and the crossover",
        &[
            "snapshot_recover_us",
            "replay_per_record_us",
            "crossover_records",
        ],
        &[vec![
            format!("{snap_us:.1}"),
            format!("{per_record:.2}"),
            format!("{crossover:.0}"),
        ]],
    );

    print_table(
        "Restart end to end: Aladin::open (median ms)",
        &[
            "world",
            "sources",
            "links",
            "duplicates",
            "loaded_cpu_ms",
            "loaded_wall_ms",
            "rediscovered_cpu_ms",
            "rediscovered_wall_ms",
        ],
        &[restart_row],
    );

    let _ = std::fs::remove_dir_all(dir);
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("\nwrote BENCH_recovery.json");
}

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig::small(42))
}

/// The kill -9 target: integrate the corpus into a durable server rooted at
/// `dir`, then refresh sources forever, one committed generation per line.
fn writer(dir: &Path) -> ! {
    let config = AladinConfig::default().with_data_dir(dir);
    let (server, recovery) = Server::resume(config, ServeConfig::default()).expect("resume writer");
    println!(
        "writer: resumed generation={:?} recovered={} lost={}",
        server.resumed_generation(),
        recovery.recovered.len(),
        recovery.lost.len()
    );
    let corpus = corpus();
    for dump in &corpus.sources {
        if recovery.recovered.iter().any(|s| s == &dump.name) {
            continue;
        }
        let db = aladin_import::import_files(&dump.name, dump.format, &dump.files)
            .expect("import source");
        server.add_database(db).expect("integrate source");
        println!(
            "writer: committed {} generation={}",
            dump.name,
            server.generation()
        );
        let _ = std::io::stdout().flush();
    }
    loop {
        for dump in &corpus.sources {
            let db = aladin_import::import_files(&dump.name, dump.format, &dump.files)
                .expect("import source");
            server.refresh_source(db, 1.0).expect("refresh source");
            println!(
                "writer: refreshed {} generation={}",
                dump.name,
                server.generation()
            );
            let _ = std::io::stdout().flush();
        }
    }
}

/// A link as the check compares it: endpoints, kind, score bits, evidence.
fn link_key(link: &Link) -> (&ObjectRef, &ObjectRef, LinkKind, u64, &str) {
    (
        &link.from,
        &link.to,
        link.kind,
        link.score.to_bits(),
        &link.evidence,
    )
}

/// The oracle of the check: re-integrate the recovered snapshots in memory,
/// in recovery order, and compare its links and duplicates with the ones
/// `Aladin::open` loaded, in order. The writer's source names need no
/// escaping, so each snapshot is `sources/<name>.snap`.
fn matches_reintegration(
    dir: &Path,
    opened: &Aladin,
    recovery: &PipelineRecovery,
) -> Result<(), String> {
    let mut dbs = Vec::new();
    for name in &recovery.recovered {
        let path = dir.join("sources").join(format!("{name}.snap"));
        let (db, _) = persist::read_snapshot(&path).map_err(|e| format!("{name}: {e}"))?;
        dbs.push(db);
    }
    let mut oracle = Aladin::new(AladinConfig::default());
    oracle
        .add_databases(dbs)
        .map_err(|e| format!("re-integration failed: {e}"))?;
    let (loaded, expected) = (opened.metadata(), oracle.metadata());
    for (what, got, want) in [
        ("links", loaded.links(), expected.links()),
        ("duplicates", loaded.duplicates(), expected.duplicates()),
    ] {
        if got.len() != want.len() {
            return Err(format!(
                "{} {what} loaded, {} expected",
                got.len(),
                want.len()
            ));
        }
        if let Some(i) = (0..got.len()).find(|&i| link_key(&got[i]) != link_key(&want[i])) {
            return Err(format!(
                "{what}[{i}]: loaded {:?}, expected {:?}",
                got[i], want[i]
            ));
        }
    }
    Ok(())
}

/// Post-crash integrity check; exits non-zero on the first violation.
fn check(dir: &Path) {
    let config = AladinConfig::default().with_data_dir(dir);
    let (aladin, recovery) = match Aladin::open(config.clone()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check: recovery failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "check: recovered={} rediscovered={} lost={} truncated={:?} in {:.1}ms",
        recovery.recovered.len(),
        recovery.rediscovered.len(),
        recovery.lost.len(),
        recovery.truncated_events,
        recovery.elapsed.as_secs_f64() * 1e3
    );
    if !recovery.lost.is_empty() {
        eprintln!("check: lost committed sources: {:?}", recovery.lost);
        std::process::exit(1);
    }
    if !recovery.rediscovered.is_empty() {
        eprintln!(
            "check: rediscovered instead of loaded: {:?}",
            recovery.rediscovered
        );
        std::process::exit(1);
    }
    // `open` renames every committed `.next` onto its snapshot and deletes
    // the rest, temp files of interrupted writes included.
    let staged: Vec<String> = std::fs::read_dir(dir.join("sources"))
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".next"))
        .collect();
    if !staged.is_empty() {
        eprintln!("check: staged files left after recovery: {staged:?}");
        std::process::exit(1);
    }
    if let Err(difference) = matches_reintegration(dir, &aladin, &recovery) {
        eprintln!("check: loaded state differs from re-integration: {difference}");
        std::process::exit(1);
    }
    for source in aladin.source_names() {
        match aladin.database(source).and_then(|db| {
            db.check_consistency()
                .map_err(aladin_core::AladinError::from)
        }) {
            Ok(violations) if violations.is_empty() => {}
            Ok(violations) => {
                eprintln!("check: {source} violates constraints: {violations:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("check: {source} failed integrity check: {e}");
                std::process::exit(1);
            }
        }
    }
    drop(aladin);
    let (server, _) = match Server::resume(config, ServeConfig::default()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check: server resume failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(marker) = server.resumed_generation() {
        if server.generation() < marker {
            eprintln!(
                "check: resumed generation {} below published marker {marker}",
                server.generation()
            );
            std::process::exit(1);
        }
    }
    println!(
        "check: ok — {} sources consistent, serving at generation {}",
        server.snapshot().warehouse().source_names().len(),
        server.generation()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--writer") => {
            let dir = args.get(2).expect("--writer needs a directory");
            writer(Path::new(dir));
        }
        Some("--check") => {
            let dir = args.get(2).expect("--check needs a directory");
            check(Path::new(dir));
        }
        Some("--smoke") => bench(true),
        _ => bench(false),
    }
}
