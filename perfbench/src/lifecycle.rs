//! The untraced workloads. Every run prints every end-to-end metric, so each
//! workload measures its own phases in full and takes the phases it does not
//! stress from a lifecycle tail on the small world: durable integration, a
//! reader beside refreshes, and restarts.
//!
//! A phase is timed by the process's CPU seconds (see `common::Took`), the
//! reads by their latency and the reading thread's CPU seconds, and every
//! timing the result reports is scaled to the reference machine's speed
//! (see `common::Speed`). A metric is the median or trimmed mean of several
//! samples; the raw figures and the wall-time medians go into the run
//! record.
//!
//! | workload | set-ups, then rounds                                                 |
//! |----------|----------------------------------------------------------------------|
//! | serve    | three medium set-ups; eight rounds of a read window and a tail round |
//! | refresh  | eight rounds of a small durable set-up, releases and a restart       |

use crate::common::{
    self, corpus, derive_seed, fingerprint, median_quality, quality, thread_cpu_ns, Histogram,
    Latencies, Metrics, Quality, ReadSummary, Rng, RunRecord, Size, Speed, Stopwatch, Tally, Took,
};
use crate::reads::{self, Mix};
use crate::{Args, Workload};
use aladin::core::access::QuerySpec;
use aladin::core::{Aladin, AladinConfig, AladinResult, ObjectRef, ServeConfig, Server, Snapshot};
use aladin::datagen::{Corpus, World};
use aladin::relstore::Database;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups of the serve workload, each integrating the medium world (~10 s).
const SERVE_SETUPS: usize = 3;
/// Rounds of either workload, dividing `--seconds` between them. A serve
/// round is a read window and a round of the tail; a refresh round is a
/// set-up, releases and a restart. Either way a run restarts the durable
/// store this many times, over as many states of its commit order.
const ROUNDS: usize = 8;
/// Untimed reads of the serve client before the first read window. A Zipf
/// stream has touched nearly every key by then, so the windows measure a
/// full cache and not its warm-up.
pub const WARMUP_READS: usize = 40_000;
/// Sampled answers compared between the cache and the pinned warehouse.
const SERVE_CHECKS: usize = 256;

/// End-to-end measurements of one run, as measured, plus what the traced run
/// reuses.
pub struct E2e {
    /// `Speed::factor` of the run.
    pub speed: f64,
    pub setup: Took,
    pub integrate: Took,
    pub quality: Quality,
    pub reads: ReadSummary,
    pub refresh: Took,
    pub restart: Took,
    /// The medium world integrated by the serve workload, its corpus and the
    /// fingerprint of its links and duplicates; kept for the traced run only.
    pub medium: Option<Integrated>,
}

pub struct Integrated {
    pub world: World,
    pub corpus: Corpus,
    pub aladin: Aladin,
    pub fingerprint: u64,
}

impl E2e {
    /// The end-to-end metrics, every timing scaled to the reference machine.
    pub fn metrics(&self, tally: &Tally) -> Metrics {
        let k = self.speed;
        vec![
            ("setup_s", self.setup.cpu_s * k, "s"),
            ("peak_rss_mib", common::peak_rss_mib(), "MiB"),
            ("success_rate", tally.success_rate(), "fraction"),
            ("integrate_cpu_s", self.integrate.cpu_s * k, "s"),
            ("xref_f1", self.quality.xref_f1, "f1"),
            ("withheld_recall", self.quality.withheld_recall, "fraction"),
            ("dup_f1", self.quality.dup_f1, "f1"),
            (
                "read_ops_per_cpu_s",
                self.reads.ops_per_cpu_s / k,
                "ops/cpu_s",
            ),
            ("read_p50_us", self.reads.p50_us * k, "us"),
            ("read_p99_us", self.reads.p99_us * k, "us"),
            ("refresh_cpu_s", self.refresh.cpu_s * k, "s"),
            ("restart_cpu_s", self.restart.cpu_s * k, "s"),
        ]
    }
}

pub fn run(args: &Args, tally: &mut Tally, record: &mut RunRecord) -> E2e {
    let mut speed = Speed::default();
    let mut e2e = match args.workload {
        Workload::Serve => serve_workload(args, &mut speed, tally, record),
        Workload::Refresh => refresh_workload(args, &mut speed, tally, record),
    };
    speed.sample();
    e2e.speed = speed.factor();
    record.num("reference_work_ms", speed.median_ns() / 1e6);
    record.num("speed_factor", e2e.speed);
    for (name, took) in [
        ("setup", e2e.setup),
        ("integrate", e2e.integrate),
        ("refresh", e2e.refresh),
        ("restart", e2e.restart),
    ] {
        record.num(&format!("{name}_raw_cpu_s"), took.cpu_s);
        record.num(&format!("{name}_wall_s"), took.wall_s);
    }
    record.num("read_raw_ops_per_cpu_s", e2e.reads.ops_per_cpu_s);
    record.num("read_ops_per_wall_s", e2e.reads.ops_per_wall_s);
    record.num("read_raw_p50_us", e2e.reads.p50_us);
    record.num("read_raw_p99_us", e2e.reads.p99_us);
    e2e
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// The medium world integrated during set-up — again and again, each
/// integration timed and committing the same links and duplicates — and
/// served by `Server` with the default cache. One closed-loop client warms
/// the cache untimed, then reads in windows, each followed by a round of the
/// tail, which supplies `refresh_cpu_s` and `restart_cpu_s`.
fn serve_workload(
    args: &Args,
    speed: &mut Speed,
    tally: &mut Tally,
    record: &mut RunRecord,
) -> E2e {
    let (size, setup_count, rounds, warmup) = if args.smoke {
        (Size::Small, 2, 2, 2_000)
    } else {
        (Size::Medium, SERVE_SETUPS, ROUNDS, WARMUP_READS)
    };
    let (mut setups, mut integrations, mut fingerprints) = (vec![], vec![], vec![]);
    let mut state = None;
    for i in 0..setup_count {
        drop(state.take());
        speed.sample();
        let watch = Stopwatch::start();
        let (world, corpus) = corpus(size, args.seed);
        let (aladin, integrated) = tally.must(
            "integration",
            common::integrate(&corpus, AladinConfig::default()),
        );
        let server = tally.must(
            "server start",
            Server::start(aladin, ServeConfig::default()),
        );
        setups.push(watch.took());
        integrations.push(integrated);
        let served = server.snapshot();
        fingerprints.push(fingerprint(
            served.warehouse().aladin(),
            args.corrupt && i > 0,
        ));
        drop(served);
        state = Some((world, corpus, server));
    }
    let (world, corpus, server) = state.expect("at least one set-up");
    let integrated_fp = fingerprints[0];
    for (i, fp) in fingerprints.iter().enumerate().skip(1) {
        tally.check(*fp == integrated_fp, || {
            format!(
                "integration {} fingerprint {fp:016x} != first {integrated_fp:016x}",
                i + 1
            )
        });
    }
    let snapshot = server.snapshot();
    let w = snapshot.warehouse();
    let rows: usize = w
        .source_names()
        .iter()
        .map(|s| w.database(s).map_or(0, Database::total_rows))
        .sum();
    record.world("world", &corpus, rows);
    let q = quality(w.aladin(), &corpus.truth);
    let mix = tally.must("read mix", Mix::build(w, &world, args.seed));
    record.num("distinct_reads", mix.reads.len() as f64);

    let mut tail = DurableRun::start(args, "tail", tally, record);
    let mut rng = Rng::new(args.seed, 0xC11E_0000);
    let failed = (0..warmup)
        .filter(|_| reads::on_server(&server, mix.pick(&mut rng)).is_err())
        .count();
    tally.ops(warmup as u64, failed as u64);
    let (mut reads, mut cache) = (Latencies::default(), Cache::default());
    for _ in 0..rounds {
        speed.sample();
        let seconds = args.seconds / rounds as f64;
        read_window(&server, &mix, &mut rng, seconds, &mut reads, &mut cache);
        tail.round(args, 0.0, tally);
    }
    let tail = tail.finish(tally, record);
    let reads = reads.summary();
    tally.ops(reads.ops, reads.failed);
    record.num(
        "cache_hit_rate",
        cache.hits as f64 / cache.lookups.max(1) as f64,
    );
    record.num("cache_evictions", cache.evictions as f64);

    // Output check: a seeded sample of cached answers against the same read
    // executed directly on the pinned snapshot (no writer runs, so the
    // server's current snapshot is this one).
    let mut rng = Rng::new(args.seed, 0xC4EC);
    for _ in 0..SERVE_CHECKS {
        let read = mix.pick(&mut rng);
        let cached = reads::answer_server(&server, read, true);
        let direct = reads::answer_direct(w, read, true);
        let ok = match (&cached, &direct) {
            (Ok(c), Ok(d)) => snapshot.generation() == server.generation() && *c == *d,
            _ => false,
        };
        tally.check(ok, || {
            format!("cached answer differs from the warehouse for {read:?}")
        });
    }
    // Only the traced run replays this world. An untraced run keeps no copy
    // of it, so `peak_rss_mib` holds the program's memory, not the
    // benchmark's.
    let medium = args.trace.then(|| Integrated {
        world,
        corpus,
        aladin: w.aladin().clone(),
        fingerprint: integrated_fp,
    });
    E2e {
        speed: 1.0,
        setup: Took::median(&setups),
        integrate: Took::median(&integrations),
        quality: q,
        reads,
        refresh: tail.refresh,
        restart: tail.restart,
        medium,
    }
}

/// Result-cache counters summed over the read windows.
#[derive(Default)]
struct Cache {
    hits: u64,
    lookups: u64,
    evictions: u64,
}

/// The client reading for `seconds`; picking the next read is not timed.
fn read_window(
    server: &Server,
    mix: &Mix,
    rng: &mut Rng,
    seconds: f64,
    reads: &mut Latencies,
    cache: &mut Cache,
) {
    let before = server.metrics();
    let cpu = thread_cpu_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut window = Latencies::default();
    loop {
        let read = mix.pick(rng);
        let t = Instant::now();
        if t >= deadline {
            break;
        }
        let ok = reads::on_server(server, read).is_ok();
        window.record(t.elapsed(), ok);
    }
    window.cpu_ns = thread_cpu_ns() - cpu;
    window.wall_s = start.elapsed().as_secs_f64();
    reads.merge(&window);
    let after = server.metrics();
    cache.hits += after.cache_hits - before.cache_hits;
    cache.lookups +=
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    cache.evictions += after.cache_evictions - before.cache_evictions;
}

// ---------------------------------------------------------------------------
// refresh (and the tail)
// ---------------------------------------------------------------------------

/// Rounds of releases on one durable small-world store; every round but the
/// first starts with a set-up of its own, on another rendering, in a store
/// that is removed again.
fn refresh_workload(
    args: &Args,
    speed: &mut Speed,
    tally: &mut Tally,
    record: &mut RunRecord,
) -> E2e {
    let rounds = if args.smoke { 2 } else { ROUNDS };
    let mut run = DurableRun::start(args, "refresh", tally, record);
    for round in 0..rounds {
        speed.sample();
        if round > 0 {
            run.extra_setup(args, round, tally);
        }
        run.round(args, args.seconds / rounds as f64, tally);
    }
    let r = run.finish(tally, record);
    E2e {
        speed: 1.0,
        setup: r.setup,
        integrate: r.integrate,
        quality: r.quality,
        reads: r.reads,
        refresh: r.refresh,
        restart: r.restart,
        medium: None,
    }
}

pub struct Lifecycle {
    pub setup: Took,
    pub integrate: Took,
    pub quality: Quality,
    pub reads: ReadSummary,
    pub refresh: Took,
    pub restart: Took,
}

/// Multiset of a database's rows, rendered, for diffing releases.
pub type RowSet = HashMap<String, usize>;

pub fn row_set(db: &Database) -> RowSet {
    let mut set = RowSet::new();
    for table in db.tables() {
        for row in table.rows() {
            let mut key = table.name().to_string();
            for v in row {
                key.push('\u{1f}');
                key.push_str(&v.render());
            }
            *set.entry(key).or_default() += 1;
        }
    }
    set
}

/// Share of `new`'s rows that the integrated version does not have.
pub fn changed_fraction(old: &RowSet, new: &RowSet) -> f64 {
    let total: usize = new.values().sum();
    let changed: usize = new
        .iter()
        .map(|(k, n)| n.saturating_sub(old.get(k).copied().unwrap_or(0)))
        .sum();
    changed as f64 / total.max(1) as f64
}

/// Release `cycle` of the durable small world under `--seed`: the same world
/// re-rendered.
pub fn release(seed: u64, cycle: usize) -> Corpus {
    corpus(Size::Small, derive_seed(seed, 0x04E1_EA5E, cycle as u64)).1
}

pub struct DurableSetup {
    pub dir: PathBuf,
    pub config: AladinConfig,
    pub corpus: Corpus,
    pub rows: HashMap<String, RowSet>,
    /// Import and integration.
    pub integrate: Took,
    /// Rendering, import and integration.
    pub setup: Took,
}

/// Render the small world, import it and integrate it into a durable store
/// in a fresh directory. Returns the pipeline (not yet served) and what a
/// refresh needs.
pub fn durable_setup(seed: u64, tag: &str, tally: &mut Tally) -> (Aladin, DurableSetup) {
    let dir = common::fresh_store_dir(tag);
    let config = AladinConfig::default().with_data_dir(&dir);
    let watch = Stopwatch::start();
    let (_, corpus) = corpus(Size::Small, seed);
    let rendered = watch.took();
    let watch = Stopwatch::start();
    let dbs = tally.must("import", common::import_all(&corpus, &config));
    let imported = watch.took();
    // Diffing rows is the benchmark's work, so it is not timed.
    let rows = dbs
        .iter()
        .map(|db| (db.name().to_string(), row_set(db)))
        .collect();
    let watch = Stopwatch::start();
    let mut aladin = Aladin::new(config.clone());
    tally.must("durable integration", aladin.add_databases(dbs));
    let integrate = imported + watch.took();
    (
        aladin,
        DurableSetup {
            dir,
            config,
            corpus,
            rows,
            integrate,
            setup: rendered + integrate,
        },
    )
}

/// Import a release and measure, per source, the changed fraction against
/// the integrated version (outside any timed region).
pub fn prepare_release(
    corpus: &Corpus,
    config: &AladinConfig,
    rows: &HashMap<String, RowSet>,
    tally: &mut Tally,
) -> Vec<(Database, f64, RowSet)> {
    tally
        .must("release import", common::import_all(corpus, config))
        .into_iter()
        .map(|db| {
            let set = row_set(&db);
            let fraction = rows
                .get(db.name())
                .map_or(1.0, |old| changed_fraction(old, &set));
            (db, fraction, set)
        })
        .collect()
}

/// Every primary object of a published snapshot.
pub fn snapshot_objects(snapshot: &Snapshot) -> Vec<ObjectRef> {
    let aladin = snapshot.warehouse().aladin();
    aladin
        .source_names()
        .iter()
        .flat_map(|source| aladin.objects_of(source).unwrap_or_default())
        .collect()
}

/// The primary objects of the generation a reader last saw.
struct Objects {
    generation: u64,
    list: Vec<ObjectRef>,
}

impl Objects {
    /// Takes the published generation's objects if the generation moved;
    /// returns whether it did.
    fn follow(&mut self, server: &Server) -> bool {
        let snapshot = server.snapshot();
        if snapshot.generation() == self.generation {
            return false;
        }
        self.generation = snapshot.generation();
        self.list = snapshot_objects(&snapshot);
        true
    }

    /// Accession fetch (`fetch`) or `view` of the object at `draw` in [0, 1).
    fn read(&self, server: &Server, draw: f64, fetch: bool) -> AladinResult<()> {
        let object = &self.list[(draw * self.list.len() as f64) as usize % self.list.len()];
        if fetch {
            let spec = QuerySpec::accession(&object.source, &object.accession);
            server.fetch(&spec).map(drop)
        } else {
            server.view(object).map(drop)
        }
    }
}

/// One reader beside the writer, alternating accession fetch and `view` of
/// uniformly drawn objects of the published generation until `stop`. Every
/// `CPU_EVERY` reads the reader stores its thread's CPU clock in `cpu_ns`,
/// so the writer can leave the reader's CPU time out of its own.
///
/// With `rate: None` it is a closed loop: the next read is sent when the
/// last one is answered, and each read is timed from its send. With
/// `Some(rate)` it is an open loop: read `k` is due at `k / rate` seconds,
/// is timed from when it was due, and how late each send was is returned
/// too.
///
/// The reader follows the published generation before a read, so that
/// bookkeeping is not timed. A refresh may still re-discover a source's
/// primary relation under a read and so retire the object it asks for; when
/// a read fails and the generation has moved, the reader takes the new
/// generation's objects and retries once, inside the same timed read.
pub fn reader(
    server: &Server,
    seed: u64,
    rate: Option<f64>,
    stop: &AtomicBool,
    cpu_ns: &AtomicU64,
) -> (Latencies, Histogram) {
    let mut rng = Rng::new(seed, 0x0BE7_100B);
    let mut lat = Latencies::default();
    let mut late = Histogram::default();
    let mut objects = Objects {
        generation: u64::MAX,
        list: Vec::new(),
    };
    let (cpu, start) = (thread_cpu_ns(), Instant::now());
    let mut k: u64 = 0;
    while !stop.load(Ordering::Acquire) {
        objects.follow(server);
        let (draw, fetch) = (rng.unit(), k.is_multiple_of(2));
        let due = match rate {
            Some(rate) => {
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late.record_ns(due.elapsed().as_nanos() as u64);
                due
            }
            None => Instant::now(),
        };
        let mut result = objects.read(server, draw, fetch);
        if result.is_err() && objects.follow(server) {
            result = objects.read(server, draw, fetch);
        }
        lat.record(due.elapsed(), result.is_ok());
        if k.is_multiple_of(CPU_EVERY) {
            cpu_ns.store(thread_cpu_ns(), Ordering::Release);
        }
        if let Err(e) = &result {
            if lat.failed == 1 {
                eprintln!("perfbench: read beside the writer failed: {e}");
            }
        }
        k += 1;
    }
    let end = thread_cpu_ns();
    cpu_ns.store(end, Ordering::Release);
    lat.cpu_ns = end - cpu;
    lat.wall_s = start.elapsed().as_secs_f64();
    (lat, late)
}

/// Reads between two stores of the reader's CPU clock: few enough that the
/// reads not yet stored cost well under a millisecond, many enough that the
/// clock's system call (~0.3 µs) stays out of the read rate.
const CPU_EVERY: u64 = 64;

/// A durable small-world store run in rounds: releases absorbed through
/// `Server::refresh_source` beside a closed-loop reader, then a restart
/// through `Server::resume`; each round continues from the last one.
struct DurableRun {
    tag: &'static str,
    /// `None` only while the store restarts.
    server: Option<Server>,
    setup: DurableSetup,
    setups: Vec<Took>,
    integrations: Vec<Took>,
    /// One per state the store published, against its truth.
    qualities: Vec<Quality>,
    cycles: Vec<Took>,
    restarts: Vec<Took>,
    reintegrated: usize,
    reads: Latencies,
}

/// Render, import and integrate the small world into a fresh durable store
/// and serve it; returns what all of it took.
fn durable_serve(seed: u64, tag: &str, tally: &mut Tally) -> (Server, DurableSetup, Took) {
    let (aladin, setup) = durable_setup(seed, tag, tally);
    let watch = Stopwatch::start();
    let server = tally.must(
        "server start",
        Server::start(aladin, ServeConfig::default()),
    );
    let took = setup.setup + watch.took();
    (server, setup, took)
}

impl DurableRun {
    /// The first set-up: the store every round continues.
    fn start(
        args: &Args,
        tag: &'static str,
        tally: &mut Tally,
        record: &mut RunRecord,
    ) -> DurableRun {
        let (server, setup, took) = durable_serve(derive_seed(args.seed, 0x5E7, 0), tag, tally);
        let rows: usize = setup.rows.values().flat_map(|s| s.values()).sum();
        record.world(&format!("{tag}_world"), &setup.corpus, rows);
        record.text(
            &format!("{tag}_filesystem"),
            &common::filesystem_of(&setup.dir),
        );
        let quality = quality(server.snapshot().warehouse().aladin(), &setup.corpus.truth);
        DurableRun {
            tag,
            server: Some(server),
            integrations: vec![setup.integrate],
            setup,
            setups: vec![took],
            qualities: vec![quality],
            cycles: Vec::new(),
            restarts: Vec::new(),
            reintegrated: 0,
            reads: Latencies::default(),
        }
    }

    /// Another timed set-up, on rendering `i`, so the set-up figures average
    /// over renderings rather than repeat one.
    fn extra_setup(&mut self, args: &Args, i: usize, tally: &mut Tally) {
        let seed = derive_seed(args.seed, 0x5E7, i as u64);
        let (server, setup, took) = durable_serve(seed, self.tag, tally);
        self.setups.push(took);
        self.integrations.push(setup.integrate);
        drop(server);
        let _ = std::fs::remove_dir_all(&setup.dir);
    }

    /// Releases beside the reader for `seconds` (one release at least), then
    /// a restart, after which what was last published must come back.
    fn round(&mut self, args: &Args, seconds: f64, tally: &mut Tally) {
        let stop = AtomicBool::new(false);
        let reader_cpu = AtomicU64::new(0);
        let server = self.server.as_ref().expect("a server between restarts");
        let (mut cycles, mut qualities, mut reintegrated) = (vec![], vec![], 0);
        let first_cycle = self.cycles.len() + 1;
        let setup = &mut self.setup;
        let (round, _) = std::thread::scope(|s| {
            let reader = {
                let (stop, reader_cpu) = (&stop, &reader_cpu);
                s.spawn(move || reader(server, args.seed, None, stop, reader_cpu))
            };
            let started = Instant::now();
            while cycles.is_empty() || started.elapsed().as_secs_f64() < seconds {
                let corpus = release(args.seed, first_cycle + cycles.len());
                let prepared = prepare_release(&corpus, &setup.config, &setup.rows, tally);
                let (watch, read_before) = (Stopwatch::start(), reader_cpu.load(Ordering::Acquire));
                let mut accepted = Vec::new();
                for (db, fraction, set) in prepared {
                    let name = db.name().to_string();
                    let refreshed = tally.must("refresh", server.refresh_source(db, fraction));
                    if refreshed.is_some() {
                        accepted.push((name, set));
                    }
                }
                let read_during = reader_cpu.load(Ordering::Acquire) - read_before;
                cycles.push(watch.took_less(read_during));
                reintegrated += accepted.len();
                setup.rows.extend(accepted);
                tally.ops(1, 0);
                qualities.push(quality(
                    server.snapshot().warehouse().aladin(),
                    &corpus.truth,
                ));
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("the reader panicked")
        });
        self.cycles.extend(cycles);
        self.qualities.extend(qualities);
        self.reintegrated += reintegrated;
        self.reads.merge(&round);

        let snapshot = server.snapshot();
        let published = fingerprint(snapshot.warehouse().aladin(), false);
        let probe = snapshot_objects(&snapshot)[0].clone();
        let generation = snapshot.generation();
        drop(snapshot);
        // The running server goes away before the next one resumes.
        drop(self.server.take());
        let watch = Stopwatch::start();
        let (next, _) = tally.must(
            "resume",
            Server::resume(self.setup.config.clone(), ServeConfig::default()),
        );
        let answered = next.view(&probe).is_ok();
        self.restarts.push(watch.took());
        let fp = fingerprint(next.snapshot().warehouse().aladin(), args.corrupt);
        tally.check(
            answered && fp == published && next.generation() >= generation,
            || {
                format!(
                    "resumed server: answered {answered}, fingerprint {fp:016x} vs published \
                     {published:016x}, generation {} vs {generation}",
                    next.generation()
                )
            },
        );
        self.server = Some(next);
    }

    fn finish(self, tally: &mut Tally, record: &mut RunRecord) -> Lifecycle {
        let tag = self.tag;
        drop(self.server);
        let _ = std::fs::remove_dir_all(&self.setup.dir);
        record.num(&format!("{tag}_cycles"), self.cycles.len() as f64);
        record.num(
            &format!("{tag}_reintegrated_per_cycle"),
            self.reintegrated as f64 / self.cycles.len() as f64,
        );
        let reads = self.reads.summary();
        tally.ops(reads.ops, reads.failed);
        Lifecycle {
            setup: Took::trimmed_mean(&self.setups),
            integrate: Took::trimmed_mean(&self.integrations),
            quality: median_quality(&self.qualities),
            reads,
            refresh: Took::trimmed_mean(&self.cycles),
            restart: Took::trimmed_mean(&self.restarts),
        }
    }
}
