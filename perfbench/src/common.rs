//! What every workload shares: seeded inputs, integration through the public
//! entry points, output fingerprints, quality scoring, statistics and the
//! run record.

use crate::{trace::Tracer, Args};
use aladin::core::eval::{evaluate_links, ExpectedTruth};
use aladin::core::{Aladin, AladinConfig, AladinResult};
use aladin::datagen::{Corpus, CorpusConfig, GroundTruth, World};
use aladin::import::import_files_with;
use aladin::relstore::Database;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every world is generated from this seed; `--seed` draws the rendering
/// (which cross-references are withheld, description noise, sequence
/// mutations), the releases and the read schedules. Integration cost swings
/// by about ±20% between worlds (genedb × protkb sequence probing dominates
/// and depends on the world's sequences), more than any bound that still
/// catches a regression; between renderings of one world it moves a few
/// percent.
pub const WORLD_SEED: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Medium,
}

impl Size {
    pub fn config(self, seed: u64) -> CorpusConfig {
        match self {
            Size::Small => CorpusConfig::small(seed),
            Size::Medium => CorpusConfig::medium(seed),
        }
    }
}

/// The fixed world of a size and its rendering under `render_seed`.
pub fn corpus(size: Size, render_seed: u64) -> (World, Corpus) {
    let world = World::generate(&size.config(WORLD_SEED));
    let corpus = Corpus::from_world(&size.config(render_seed), &world);
    (world, corpus)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock ids for the CPU time of the calling process (every thread,
/// finished ones included) and of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of 64-bit Linux,
    // and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds this process has run, every thread together.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU nanoseconds the calling thread has run.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// What a timed phase took: the CPU seconds of every thread of the process,
/// and the wall seconds.
///
/// Timings are gated on the CPU figure. Linux leaves out of a task's CPU
/// time the time its virtual CPU was stolen by the hypervisor and the time
/// the task waited to run, so on a shared host the CPU figure follows the
/// work the program does while the wall figure also follows the
/// neighbours' load. Waits for the disk are in the wall figure only; the
/// run record keeps the wall medians.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Took {
    /// Component-wise median.
    pub fn median(took: &[Took]) -> Took {
        Took {
            cpu_s: median(took.iter().map(|t| t.cpu_s).collect()),
            wall_s: median(took.iter().map(|t| t.wall_s).collect()),
        }
    }

    /// Component-wise trimmed mean.
    pub fn trimmed_mean(took: &[Took]) -> Took {
        Took {
            cpu_s: trimmed_mean(took.iter().map(|t| t.cpu_s).collect()),
            wall_s: trimmed_mean(took.iter().map(|t| t.wall_s).collect()),
        }
    }
}

impl std::ops::Add for Took {
    type Output = Took;
    fn add(self, o: Took) -> Took {
        Took {
            cpu_s: self.cpu_s + o.cpu_s,
            wall_s: self.wall_s + o.wall_s,
        }
    }
}

/// Process CPU time and wall clock, read together.
pub struct Stopwatch {
    cpu_ns: u64,
    wall: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_ns: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn took(&self) -> Took {
        self.took_less(0)
    }

    /// What the phase took, less `other_cpu_ns` of CPU time that a thread
    /// doing other work spent meanwhile.
    pub fn took_less(&self, other_cpu_ns: u64) -> Took {
        let cpu_ns = (process_cpu_ns() - self.cpu_ns).saturating_sub(other_cpu_ns);
        Took {
            cpu_s: cpu_ns as f64 / 1e9,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// CPU nanoseconds `reference_work` took on the reference machine, a 2-vCPU
/// KVM guest on an Intel Xeon host (AVX-512). At that speed the medium
/// world's integration takes about 7 CPU seconds.
const REFERENCE_WORK_NS: f64 = 7.2e6;

/// A fixed piece of the benchmark's own work, in the style of the
/// program's: formatting, hashing and looking up short strings, and sorting
/// integers. Nothing of the program runs in it, so a change to the program
/// cannot change its cost.
fn reference_work() -> u64 {
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, DefaultHasher};
    let mut rng = Rng::new(0, 0xCA11_B8A7E);
    let mut map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..20_000u64 {
        let key = format!("k{:x}", rng.next_u64() % 30_000);
        *map.entry(key).or_default() += i;
    }
    let mut found = 0u64;
    for _ in 0..20_000 {
        let key = format!("k{:x}", rng.next_u64() % 30_000);
        found += map.get(&key).copied().unwrap_or(0) & 1;
    }
    let mut v: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    found ^ v[v.len() / 2]
}

/// How fast the host runs this process's instructions during a run.
///
/// The host of a virtual machine lends its cores to other guests, and how
/// busy they keep it sets how fast the guest's instructions run: on a
/// 2-vCPU guest the same integration took 11.7 CPU seconds in one hour and
/// 6.9 in the next, and every other timing moved by 1.4–1.85× with it. CPU
/// time cannot see that, so every timing the result reports is scaled by
/// `factor`: the reference machine's CPU time for `reference_work` over
/// this run's, its median over samples taken across the run while no other
/// thread of the benchmark ran. The raw figures stay in the run record.
#[derive(Debug, Default)]
pub struct Speed {
    samples_ns: Vec<u64>,
}

impl Speed {
    /// Times `reference_work` three times on the calling thread.
    pub fn sample(&mut self) {
        for _ in 0..3 {
            let t = thread_cpu_ns();
            std::hint::black_box(reference_work());
            self.samples_ns.push(thread_cpu_ns() - t);
        }
    }

    pub fn median_ns(&self) -> f64 {
        median(self.samples_ns.iter().map(|&ns| ns as f64).collect())
    }

    /// Multiplies a measured time into the reference machine's.
    pub fn factor(&self) -> f64 {
        REFERENCE_WORK_NS / self.median_ns()
    }
}

/// Step 1 through `aladin_import`, with the pipeline's own import options.
pub fn import_all(corpus: &Corpus, config: &AladinConfig) -> AladinResult<Vec<Database>> {
    let options = config.import_options();
    let mut dbs = Vec::with_capacity(corpus.sources.len());
    for dump in &corpus.sources {
        dbs.push(import_files_with(&dump.name, dump.format, &dump.files, &options)?.0);
    }
    Ok(dbs)
}

/// From rendered dumps to a committed warehouse: import plus steps 2–5.
/// Returns the pipeline and what the integration took.
pub fn integrate(corpus: &Corpus, config: AladinConfig) -> AladinResult<(Aladin, Took)> {
    let watch = Stopwatch::start();
    let dbs = import_all(corpus, &config)?;
    let mut aladin = Aladin::new(config);
    aladin.add_databases(dbs)?;
    Ok((aladin, watch.took()))
}

/// One line per link or duplicate.
pub fn link_lines<'a>(links: impl Iterator<Item = &'a aladin::core::Link>) -> Vec<String> {
    links
        .map(|l| {
            format!(
                "{}|{}|{}|{}|{}|{}|{:?}|{:.6}",
                l.from.source,
                l.from.table,
                l.from.accession,
                l.to.source,
                l.to.table,
                l.to.accession,
                l.kind,
                l.score
            )
        })
        .collect()
}

/// FNV-1a over the sorted link and duplicate lines, so it compares what was
/// committed, not the order. With `corrupt`, one line is dropped first, as
/// the self-test's deliberately broken output.
pub fn fingerprint_lines(mut lines: Vec<String>, corrupt: bool) -> u64 {
    if corrupt && !lines.is_empty() {
        lines.remove(0);
    }
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of everything discovery committed into a pipeline.
pub fn fingerprint(aladin: &Aladin, corrupt: bool) -> u64 {
    let meta = aladin.metadata();
    let lines = link_lines(meta.links().iter().chain(meta.duplicates().iter()));
    fingerprint_lines(lines, corrupt)
}

pub fn expected_truth(truth: &GroundTruth) -> ExpectedTruth {
    ExpectedTruth {
        sources: Vec::new(),
        links: truth
            .links
            .iter()
            .map(|l| {
                (
                    l.from_source.clone(),
                    l.from_accession.clone(),
                    l.to_source.clone(),
                    l.to_accession.clone(),
                    l.explicit,
                )
            })
            .collect(),
        duplicates: truth
            .duplicates
            .iter()
            .map(|d| {
                (
                    d.source_a.clone(),
                    d.accession_a.clone(),
                    d.source_b.clone(),
                    d.accession_b.clone(),
                )
            })
            .collect(),
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub xref_f1: f64,
    pub withheld_recall: f64,
    pub dup_f1: f64,
}

/// Scores the committed links and duplicates with `core::eval`.
pub fn quality(aladin: &Aladin, truth: &GroundTruth) -> Quality {
    let eval = evaluate_links(aladin, &expected_truth(truth));
    Quality {
        xref_f1: eval.explicit_links.f1(),
        withheld_recall: eval.withheld_recall,
        dup_f1: eval.duplicates.f1(),
    }
}

/// Component-wise median of several quality scores.
pub fn median_quality(qs: &[Quality]) -> Quality {
    Quality {
        xref_f1: median(qs.iter().map(|q| q.xref_f1).collect()),
        withheld_recall: median(qs.iter().map(|q| q.withheld_recall).collect()),
        dup_f1: median(qs.iter().map(|q| q.dup_f1).collect()),
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seed derived from the run seed for one stream of inputs.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed, stream.wrapping_mul(1_000_003).wrapping_add(index));
    r.next_u64() >> 1
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half: the slowest and the fastest quarter dropped.
/// Timings taken over different renderings or states are bimodal (a
/// re-rendering can change which relation of a source is primary, and with
/// it the cost), so a median jumps between the modes from run to run; the
/// middle half's mean moves smoothly with their mix and still ignores
/// stragglers.
pub fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Sub-buckets per power of two of the latency histogram: the durations in
/// one bucket differ by less than 1/128 of their size.
const SUB_BITS: u32 = 7;
/// Durations are counted up to 2^40 ns (about 18 minutes); longer ones land
/// in the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) << SUB_BITS) as usize;

/// Log-bucket histogram of durations: fixed memory however many are
/// recorded, so the benchmark's own footprint does not grow with the
/// program's throughput. Each bucket keeps the sum of its durations, and a
/// percentile reads as the mean of the bucket holding its rank: within
/// 1/128 of the exact nearest-rank value, and still as measured.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: Vec<u64>,
    sum_ns: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: vec![0; BUCKETS],
            sum_ns: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        let ns = ns.min((1 << MAX_BITS) - 1);
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        let sub = (ns >> shift) as usize & ((1 << SUB_BITS) - 1);
        ((shift as usize + 1) << SUB_BITS) | sub
    }

    pub fn record_ns(&mut self, ns: u64) {
        let b = Histogram::bucket(ns);
        self.count[b] += 1;
        self.sum_ns[b] = self.sum_ns[b].saturating_add(ns);
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for b in 0..BUCKETS {
            self.count[b] += other.count[b];
            self.sum_ns[b] = self.sum_ns[b].saturating_add(other.sum_ns[b]);
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile `p` (0–100), in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0;
        for b in 0..BUCKETS {
            seen += self.count[b];
            if seen >= rank {
                return self.sum_ns[b] as f64 / self.count[b] as f64 / 1e3;
            }
        }
        f64::NAN
    }
}

/// Reads of one reader: the latency of each read, and the reading thread's
/// CPU time and the wall time over all of them.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    pub ops: u64,
    pub failed: u64,
    pub cpu_ns: u64,
    pub wall_s: f64,
    latency: Histogram,
}

impl Latencies {
    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
        self.latency
            .record_ns(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Reads that followed these ones.
    pub fn merge(&mut self, other: &Latencies) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.cpu_ns += other.cpu_ns;
        self.wall_s += other.wall_s;
        self.latency.merge(&other.latency);
    }

    pub fn summary(&self) -> ReadSummary {
        ReadSummary {
            ops: self.ops,
            failed: self.failed,
            ops_per_cpu_s: self.ops as f64 / (self.cpu_ns as f64 / 1e9).max(1e-9),
            ops_per_wall_s: self.ops as f64 / self.wall_s.max(1e-9),
            p50_us: self.latency.percentile_us(50.0),
            p99_us: self.latency.percentile_us(99.0),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ReadSummary {
    pub ops: u64,
    pub failed: u64,
    pub ops_per_cpu_s: f64,
    pub ops_per_wall_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Operations attempted and failed, plus the output checks that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Tally {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One checked output: counts as an attempted operation, and as a
    /// failed one when the check does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// A step that must succeed for the run to measure anything.
    pub fn must<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: {what} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Metric name, value and unit, in print order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.check_failures.is_empty(),
        tally.attempted.max(1),
        tally.failed
    )
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `perfbench/out`: scratch stores and trace files, inside the checkout.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// A fresh, empty directory for one durable store.
pub fn fresh_store_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir()
        .join("stores")
        .join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a store directory under perfbench/out");
    dir
}

/// Bytes under a directory, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The filesystem type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            if let Some(fs) = fields.get(dash + 1) {
                best = (mount.len(), (*fs).to_string());
            }
        }
    }
    best.1
}

/// The record printed with every result (ROADMAP aim 1): machine, inputs,
/// toolchain, commit and run size.
pub struct RunRecord {
    started: Instant,
    cpu_at_start: Option<(u64, u64)>,
    fields: Vec<(String, String)>,
}

/// Machine-wide (all jiffies, steal jiffies) from `/proc/stat`: how much
/// of the run the hypervisor gave the virtual CPUs to someone else.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

impl RunRecord {
    pub fn new(args: &Args) -> RunRecord {
        let mut r = RunRecord {
            started: Instant::now(),
            cpu_at_start: cpu_jiffies(),
            fields: Vec::new(),
        };
        let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
        r.num("available_parallelism", parallelism as f64);
        r.text("workload", args.workload.name());
        r.num("seed", args.seed as f64);
        r.num("world_seed", WORLD_SEED as f64);
        r.num("seconds", args.seconds);
        r.text("traced", if args.trace { "true" } else { "false" });
        r.text("run", if args.smoke { "smoke" } else { "full" });
        r.text("rustc", &command_line("rustc", &["--version"]));
        r.text("commit", &command_line("git", &["rev-parse", "HEAD"]));
        r
    }

    pub fn text(&mut self, key: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields.push((key.into(), format!("\"{escaped}\"")));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        let v = if value.is_finite() { value } else { -1.0 };
        self.fields.push((key.into(), format!("{v:?}")));
    }

    /// World size: sources, rows and dump bytes of a rendered corpus.
    pub fn world(&mut self, prefix: &str, corpus: &Corpus, rows: usize) {
        self.num(&format!("{prefix}_sources"), corpus.sources.len() as f64);
        self.num(&format!("{prefix}_rows"), rows as f64);
        self.num(&format!("{prefix}_dump_bytes"), corpus.byte_size() as f64);
    }

    pub fn finish(&mut self, tally: &Tally) {
        self.num("attempted", tally.attempted as f64);
        self.num("failed", tally.failed as f64);
        self.num("wall_s", self.started.elapsed().as_secs_f64());
        if let (Some((total0, steal0)), Some((total1, steal1))) = (self.cpu_at_start, cpu_jiffies())
        {
            let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
            self.num("steal_share", share);
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"run_record\": {{{}}}}}", body.join(", "))
    }

    /// Writes the spans and the run record to
    /// `perfbench/out/trace-<workload>-<seed>.jsonl`.
    pub fn write_trace_file(&mut self, args: &Args, tracer: &Tracer) {
        let dir = out_dir();
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let body = format!("{}\n{}", self.to_json(), tracer.to_json_lines());
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
            Ok(()) => self.text("trace_file", &path.display().to_string()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        self.num("trace_spans", tracer.len() as f64);
    }
}

/// First line of a command's output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
