//! The concurrent serving layer: MVCC snapshot reads over the warehouse,
//! plus a bounded, generation-invalidated query-result and plan cache.
//!
//! The paper's warehouse must "plan for change": sources are re-integrated
//! continuously, yet the whole point of materialized integration is fast,
//! always-on querying. [`Server`] reconciles the two with multi-version
//! concurrency control built on the [`crate::metadata::MetadataRepository`]
//! generation counter:
//!
//! * **Writers stage, then swap.** All mutation goes through one master
//!   pipeline behind a mutex. After the (transactional, PR-4) commit, the
//!   writer builds and pre-warms a complete new [`Warehouse`] version and
//!   publishes it atomically as an [`Arc`]-shared [`Snapshot`]. A failed
//!   build publishes nothing — readers keep the previous version.
//! * **Readers pin a version.** [`Server::snapshot`] hands out the current
//!   snapshot under a momentary read lock; from then on the reader holds
//!   plain shared data. A snapshot opened on generation *N* sees exactly
//!   generation *N*'s tables, links and access caches until it is dropped —
//!   no lock is held across query execution, and a concurrent writer can
//!   publish generation *N+1* without disturbing it.
//! * **Results are cached per generation.** The [`Server`] query APIs
//!   ([`Server::fetch`], [`Server::sql`], [`Server::search`],
//!   [`Server::view`], [`Server::join_path`]) consult a bounded LRU cache
//!   keyed on `(generation, normalized fingerprint)` — [`QuerySpec`]
//!   fingerprints for object queries, optimized-plan fingerprints for SQL —
//!   with a byte budget ([`ServeConfig`]). Publishing a new snapshot purges
//!   every entry of older generations, so a cached result can never be
//!   served across a version boundary. Hit/miss/eviction counters surface
//!   through [`ServeMetrics`] ([`Server::metrics`]), mirroring
//!   [`crate::metadata::PipelineMetrics`] for the integration side.
//! * **Invalid queries are refused before execution.** On a result-cache
//!   miss, [`Server::fetch`] and [`Server::sql`] run the static analyzer
//!   ([`aladin_relstore::analyze`]) over the compiled plan and reject
//!   queries with error diagnostics. Verdicts are cached per fingerprint in
//!   a side table, so a hammered invalid query costs one analysis per
//!   generation and never occupies result-cache space.
//!
//! [`Server`] is `Send + Sync` (compile-time asserted): share one instance
//! across N reader threads while a writer integrates.
//!
//! ```no_run
//! use aladin_core::access::QuerySpec;
//! use aladin_core::pipeline::Aladin;
//! use aladin_core::serve::{ServeConfig, Server};
//! # fn main() -> Result<(), aladin_core::AladinError> {
//! let server = Server::start(Aladin::with_defaults(), ServeConfig::default())?;
//! std::thread::scope(|s| {
//!     for _ in 0..8 {
//!         s.spawn(|| {
//!             let spec = QuerySpec::search("kinase").limit(10);
//!             let _hits = server.fetch(&spec); // cached per generation
//!         });
//!     }
//! });
//! # Ok(()) }
//! ```

use crate::access::{ObjectHit, ObjectRecord, ObjectView, QuerySpec, Warehouse};
use crate::config::AladinConfig;
use crate::error::{AladinError, AladinResult};
use crate::metadata::ObjectRef;
use crate::pipeline::{Aladin, IntegrationReport, PipelineRecovery};
use aladin_relstore::plan::fingerprint_bytes;
use aladin_relstore::sql::Statement;
use aladin_relstore::{persist, Database, LogicalPlan, RelError, Table};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning knobs of the serving layer's query-result + plan cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServeConfig {
    /// Byte budget of the cache (approximate, measured on the canonical
    /// rendering of each cached value). `0` disables caching entirely.
    pub cache_capacity_bytes: usize,
    /// Maximum number of cached entries, evicting least-recently-used
    /// beyond it. `0` disables caching entirely.
    pub cache_max_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity_bytes: 32 << 20, // 32 MiB
            cache_max_entries: 4096,
        }
    }
}

impl ServeConfig {
    /// A configuration with caching disabled: every query executes against
    /// the snapshot. The uncached baseline of `exp_serve`.
    pub fn uncached() -> ServeConfig {
        ServeConfig {
            cache_capacity_bytes: 0,
            cache_max_entries: 0,
        }
    }

    /// This configuration with the given byte budget.
    pub fn with_cache_capacity(mut self, bytes: usize) -> ServeConfig {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// This configuration with the given entry cap.
    pub fn with_max_entries(mut self, entries: usize) -> ServeConfig {
        self.cache_max_entries = entries;
        self
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// An immutable, shared view of the warehouse pinned to one metadata
/// generation. Cloning is an [`Arc`] bump; the underlying [`Warehouse`] is
/// pre-warmed at publish time, so no reader ever pays a cache build or takes
/// a lock beyond the momentary [`Server::snapshot`] read lock.
#[derive(Clone)]
pub struct Snapshot {
    warehouse: Arc<Warehouse>,
    generation: u64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("generation", &self.generation)
            .field("sources", &self.warehouse.source_names())
            .finish()
    }
}

impl Snapshot {
    /// The warehouse version this snapshot pins. All reads through it see
    /// exactly this generation's tables, links and caches.
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// The metadata generation the snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Write the published-generation marker: a tiny checksummed blob naming
/// the generation and the sources it covers, written atomically to
/// `<data_dir>/GENERATION` *before* the in-memory snapshot swap — a crash
/// between the two leaves a marker no higher than what the next publish
/// will (deterministically) reproduce.
fn write_generation_marker(dir: &Path, generation: u64, sources: &[&str]) -> Result<(), RelError> {
    let mut payload = Vec::new();
    persist::put_u64(&mut payload, generation);
    persist::put_u32(&mut payload, sources.len() as u32);
    for s in sources {
        persist::put_str(&mut payload, s);
    }
    persist::write_blob(&dir.join("GENERATION"), &payload)
}

/// Read the published-generation marker. A missing or corrupt marker is
/// `None` — resume proceeds from the recovered state without one.
fn read_generation_marker(dir: &Path) -> Option<u64> {
    let blob = persist::read_blob(&dir.join("GENERATION")).ok()?;
    persist::Cursor::new(&blob).u64().ok()
}

fn build_snapshot(master: &Aladin) -> AladinResult<Snapshot> {
    let warehouse = Warehouse::from_aladin(master.clone());
    // Warm eagerly: a failed or panicking build surfaces here, on the
    // writer, never on a reader holding the published snapshot.
    warehouse.warm()?;
    let generation = warehouse.metadata().generation();
    Ok(Snapshot {
        warehouse: Arc::new(warehouse),
        generation,
    })
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Cache key: the snapshot generation the value was computed on, plus the
/// kind-prefixed FNV-1a fingerprint of the normalized query.
type CacheKey = (u64, u64);

/// The cacheable result shapes of the serving APIs, all behind [`Arc`] so a
/// hit is a pointer bump.
#[derive(Clone)]
enum CachedValue {
    Records(Arc<Vec<ObjectRecord>>),
    Table(Arc<Table>),
    Hits(Arc<Vec<ObjectHit>>),
    View(Arc<ObjectView>),
    Plan(Arc<LogicalPlan>),
}

impl CachedValue {
    /// Approximate heap footprint, charged against the byte budget: the
    /// length of the canonical `Debug` rendering plus a fixed overhead. An
    /// approximation (renders once at insert time), but monotone in the real
    /// size and cheap enough for serving-cache insert rates.
    fn approx_bytes(&self) -> usize {
        let rendered = match self {
            CachedValue::Records(v) => format!("{v:?}").len(),
            CachedValue::Table(v) => format!("{v:?}").len(),
            CachedValue::Hits(v) => format!("{v:?}").len(),
            CachedValue::View(v) => format!("{v:?}").len(),
            CachedValue::Plan(v) => format!("{v:?}").len(),
        };
        rendered + 64
    }
}

struct CacheEntry {
    value: CachedValue,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<CacheKey, CacheEntry>,
    /// LRU recency index: monotone tick → key. The smallest tick is the
    /// least recently used entry.
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, generation-aware LRU cache. All state sits behind one mutex;
/// the critical sections are map operations only — query execution never
/// happens under the lock.
struct QueryCache {
    capacity_bytes: usize,
    max_entries: usize,
    state: Mutex<CacheState>,
}

impl QueryCache {
    fn new(config: &ServeConfig) -> QueryCache {
        QueryCache {
            capacity_bytes: config.cache_capacity_bytes,
            max_entries: config.cache_max_entries,
            state: Mutex::new(CacheState::default()),
        }
    }

    fn enabled(&self) -> bool {
        self.capacity_bytes > 0 && self.max_entries > 0
    }

    /// The cache holds only derived data behind `Arc`s and every structural
    /// update is completed before the guard drops, so a poisoned mutex is
    /// recoverable by simply taking the state as-is.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, key: CacheKey) -> Option<CachedValue> {
        if !self.enabled() {
            return None;
        }
        let mut guard = self.lock();
        let state = &mut *guard;
        state.tick += 1;
        let tick = state.tick;
        match state.entries.get_mut(&key) {
            Some(entry) => {
                let stale_tick = entry.tick;
                entry.tick = tick;
                let value = entry.value.clone();
                state.recency.remove(&stale_tick);
                state.recency.insert(tick, key);
                state.hits += 1;
                Some(value)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    fn store(&self, key: CacheKey, value: CachedValue) {
        if !self.enabled() {
            return;
        }
        let bytes = value.approx_bytes();
        if bytes > self.capacity_bytes {
            // Larger than the whole budget: caching it would evict
            // everything and still not fit.
            return;
        }
        let mut guard = self.lock();
        let state = &mut *guard;
        state.tick += 1;
        let tick = state.tick;
        if let Some(old) = state.entries.remove(&key) {
            state.recency.remove(&old.tick);
            state.bytes -= old.bytes;
        }
        state.entries.insert(key, CacheEntry { value, bytes, tick });
        state.recency.insert(tick, key);
        state.bytes += bytes;
        while state.bytes > self.capacity_bytes || state.entries.len() > self.max_entries {
            let Some((&lru_tick, &lru_key)) = state.recency.iter().next() else {
                break;
            };
            state.recency.remove(&lru_tick);
            if let Some(evicted) = state.entries.remove(&lru_key) {
                state.bytes -= evicted.bytes;
                state.evictions += 1;
            }
        }
    }

    /// Drop every entry not computed on `generation` — called at publish
    /// time, so a cached result is never served across a version boundary.
    fn retain_generation(&self, generation: u64) {
        let mut guard = self.lock();
        let state = &mut *guard;
        let stale: Vec<(CacheKey, u64, usize)> = state
            .entries
            .iter()
            .filter(|((g, _), _)| *g != generation)
            .map(|(key, entry)| (*key, entry.tick, entry.bytes))
            .collect();
        for (key, tick, bytes) in stale {
            state.entries.remove(&key);
            state.recency.remove(&tick);
            state.bytes -= bytes;
        }
    }
}

/// The message stored in the [`AnalysisCache`] for a refused query: the
/// inner text of [`RelError::Analysis`], re-wrapped on every refusal so the
/// cached form stays a plain string.
fn rejection_message(e: RelError) -> String {
    match e {
        RelError::Analysis(m) => m,
        other => other.to_string(),
    }
}

/// Static-analysis verdicts ([`aladin_relstore::analyze`]) keyed like the
/// result cache: `(generation, query fingerprint)`. `None` means the query
/// analyzed clean on that generation; `Some(message)` is the rendered
/// analysis error a repeated invalid query is refused with — without
/// re-running the analyzer, and before it can ever touch the result cache.
///
/// Kept separate from the byte-budgeted LRU on purpose: verdicts are tiny
/// (at most one rendered diagnostic), must not evict real results, and their
/// bookkeeping must not perturb the serving-cache hit/miss/eviction metrics.
/// Entries of older generations are purged at publish time, like the LRU.
struct AnalysisCache {
    verdicts: Mutex<HashMap<CacheKey, Option<String>>>,
}

impl AnalysisCache {
    fn new() -> AnalysisCache {
        AnalysisCache {
            verdicts: Mutex::new(HashMap::new()),
        }
    }

    /// Verdicts are plain strings and every insert completes under the
    /// guard, so a poisoned mutex is recoverable by taking the state as-is.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Option<String>>> {
        self.verdicts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `None` = never analyzed on this generation; `Some(None)` = analyzed
    /// clean; `Some(Some(m))` = refused with message `m`.
    fn lookup(&self, key: CacheKey) -> Option<Option<String>> {
        self.lock().get(&key).cloned()
    }

    fn store(&self, key: CacheKey, verdict: Option<String>) {
        self.lock().insert(key, verdict);
    }

    fn retain_generation(&self, generation: u64) {
        self.lock().retain(|(g, _), _| *g == generation);
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Counters of the serving layer, the query-side sibling of
/// [`crate::metadata::PipelineMetrics`]: snapshot publishing plus cache
/// effectiveness. Serializable for dashboards and the `exp_serve` bench
/// output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServeMetrics {
    /// Generation of the currently published snapshot.
    pub generation: u64,
    /// Snapshots published since the server started (the initial publish
    /// counts).
    pub snapshots_published: u64,
    /// Queries answered through the serving APIs (cached or not).
    pub queries_served: u64,
    /// Cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Cache lookups that missed (and executed against the snapshot).
    pub cache_misses: u64,
    /// Entries evicted by the LRU byte/entry budget (generation purges are
    /// not evictions).
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Approximate bytes currently cached.
    pub cache_bytes: usize,
    /// Configured byte budget (`0` = caching disabled).
    pub cache_capacity_bytes: usize,
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A thread-shareable serving handle over an integrated warehouse: MVCC
/// snapshot reads, one writer at a time, and a bounded per-generation query
/// cache. See the [module docs](self) for the concurrency model.
pub struct Server {
    /// The master pipeline. All mutation happens here, serialized by the
    /// mutex; readers never touch it.
    master: Mutex<Aladin>,
    /// The currently published snapshot. Writers replace it wholesale;
    /// readers clone the `Arc` under a momentary read lock.
    current: RwLock<Snapshot>,
    cache: QueryCache,
    /// Static-analysis verdicts, consulted on the result-miss path so an
    /// invalid query is refused before execution and before the result
    /// cache.
    analysis: AnalysisCache,
    config: ServeConfig,
    snapshots_published: AtomicU64,
    queries_served: AtomicU64,
    /// Generation marker found on disk by [`Server::resume`], `None` for a
    /// fresh [`Server::start`] or when no valid marker existed.
    resumed_from: Option<u64>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("snapshot", &self.snapshot())
            .field("config", &self.config)
            .finish()
    }
}

impl Server {
    /// Start serving an integrated pipeline: builds, warms and publishes the
    /// initial snapshot.
    pub fn start(aladin: Aladin, config: ServeConfig) -> AladinResult<Server> {
        let snapshot = build_snapshot(&aladin)?;
        Self::publish_marker(&aladin, snapshot.generation)?;
        Ok(Server {
            master: Mutex::new(aladin),
            current: RwLock::new(snapshot),
            cache: QueryCache::new(&config),
            analysis: AnalysisCache::new(),
            config,
            snapshots_published: AtomicU64::new(1),
            queries_served: AtomicU64::new(0),
            resumed_from: None,
        })
    }

    /// Restart serving from [`AladinConfig::data_dir`]: recover the
    /// warehouse via [`Aladin::open`], read the published-generation marker,
    /// and fast-forward the metadata generation so the first published
    /// snapshot resumes at (not below) the last generation the crashed
    /// server had published. Returns the server plus what recovery found.
    pub fn resume(
        config: AladinConfig,
        serve: ServeConfig,
    ) -> AladinResult<(Server, PipelineRecovery)> {
        let data_dir = config.data_dir.clone();
        let (mut aladin, recovery) = Aladin::open(config)?;
        let resumed_from = data_dir.as_deref().and_then(read_generation_marker);
        if let Some(generation) = resumed_from {
            aladin.metadata_mut().fast_forward_generation(generation);
        }
        let mut server = Server::start(aladin, serve)?;
        server.resumed_from = resumed_from;
        Ok((server, recovery))
    }

    /// The generation marker found on disk by [`Server::resume`] (`None`
    /// for a fresh start or when no valid marker existed). The first
    /// published generation is always `>=` this value.
    pub fn resumed_generation(&self) -> Option<u64> {
        self.resumed_from
    }

    /// Persist the generation marker when the pipeline is durable; a no-op
    /// for in-memory configurations.
    fn publish_marker(master: &Aladin, generation: u64) -> AladinResult<()> {
        if let Some(dir) = &master.config().data_dir {
            let names = master.source_names();
            write_generation_marker(dir, generation, &names).map_err(|cause| {
                AladinError::Durability {
                    context: "publishing generation marker".into(),
                    cause,
                }
            })?;
        }
        Ok(())
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The currently published snapshot. The returned value pins its
    /// generation for as long as it is held; subsequent publishes do not
    /// affect it.
    pub fn snapshot(&self) -> Snapshot {
        // Readers only clone under this lock and writers only assign a
        // fully built snapshot, so a poisoned lock still holds a consistent
        // value.
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Current serving metrics (see [`ServeMetrics`]).
    pub fn metrics(&self) -> ServeMetrics {
        let generation = self.generation();
        let state = self.cache.lock();
        ServeMetrics {
            generation,
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            cache_hits: state.hits,
            cache_misses: state.misses,
            cache_evictions: state.evictions,
            cache_entries: state.entries.len(),
            cache_bytes: state.bytes,
            cache_capacity_bytes: self.config.cache_capacity_bytes,
        }
    }

    // -- writer side --------------------------------------------------------

    /// Build, warm and atomically publish a new snapshot of the master, then
    /// purge cache entries of older generations. Old snapshots held by
    /// readers stay valid until dropped.
    fn publish(&self, master: &Aladin) -> AladinResult<()> {
        let snapshot = build_snapshot(master)?;
        let generation = snapshot.generation;
        // Marker before swap: a failure here publishes neither, so disk and
        // memory never disagree about what was served.
        Self::publish_marker(master, generation)?;
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
        self.cache.retain_generation(generation);
        self.analysis.retain_generation(generation);
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Lock the master pipeline. Mutations are transactional (stage +
    /// infallible commit, PR 4), so even a mutex poisoned by a panicking
    /// writer holds a consistent pipeline: recover instead of cascading.
    fn master(&self) -> std::sync::MutexGuard<'_, Aladin> {
        self.master.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Integrate a new source and publish the next warehouse version.
    /// Readers keep serving the previous snapshot throughout.
    pub fn add_database(&self, db: Database) -> AladinResult<IntegrationReport> {
        let mut master = self.master();
        let report = master.add_database(db)?;
        self.publish(&master)?;
        Ok(report)
    }

    /// Integrate a batch of sources, publishing once at the end.
    pub fn add_databases(&self, dbs: Vec<Database>) -> AladinResult<Vec<IntegrationReport>> {
        let mut master = self.master();
        let reports = master.add_databases(dbs)?;
        self.publish(&master)?;
        Ok(reports)
    }

    /// Handle a changed source (deferred below the configured change
    /// threshold, re-integrated above it). A new snapshot is published only
    /// when re-integration actually happened.
    pub fn refresh_source(
        &self,
        db: Database,
        changed_fraction: f64,
    ) -> AladinResult<Option<IntegrationReport>> {
        let mut master = self.master();
        let report = master.refresh_source(db, changed_fraction)?;
        if report.is_some() {
            self.publish(&master)?;
        }
        Ok(report)
    }

    // -- reader side --------------------------------------------------------

    /// Execute an object query against the current snapshot, serving a
    /// cached result when the same normalized spec already ran on this
    /// generation.
    ///
    /// On a result-cache miss, the spec is statically analyzed first
    /// ([`crate::access::ObjectQuery::analyze`]) and refused on error
    /// diagnostics — the verdict is cached per spec fingerprint, so a
    /// repeated invalid query is rejected without re-analysis and never
    /// occupies result-cache space. Specs outside the relational subset
    /// (search roots, link traversals) do not compile to a plan; they skip
    /// the gate and execute directly.
    pub fn fetch(&self, spec: &QuerySpec) -> AladinResult<Arc<Vec<ObjectRecord>>> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let key = (snapshot.generation, spec.fingerprint());
        if let Some(CachedValue::Records(cached)) = self.cache.lookup(key) {
            return Ok(cached);
        }
        let query = snapshot.warehouse.query(spec.clone());
        let verdict = match self.analysis.lookup(key) {
            Some(v) => v,
            None => {
                let v = match query.analyze() {
                    Ok(analysis) => analysis.to_error().map(rejection_message),
                    // Not relational (search root, link traversal): nothing
                    // to analyze statically.
                    Err(_) => None,
                };
                self.analysis.store(key, v.clone());
                v
            }
        };
        if let Some(message) = verdict {
            return Err(AladinError::Storage(RelError::Analysis(message)));
        }
        let records = Arc::new(query.fetch()?);
        self.cache
            .store(key, CachedValue::Records(Arc::clone(&records)));
        Ok(records)
    }

    /// Ranked keyword search over the current snapshot, cached per
    /// generation.
    pub fn search(&self, query: &str, top_k: usize) -> AladinResult<Arc<Vec<ObjectHit>>> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let key = (
            snapshot.generation,
            fingerprint_bytes(format!("search:{top_k}:{query}").as_bytes()),
        );
        if let Some(CachedValue::Hits(cached)) = self.cache.lookup(key) {
            return Ok(cached);
        }
        let hits = Arc::new(snapshot.warehouse.search_hits(query, top_k)?);
        self.cache.store(key, CachedValue::Hits(Arc::clone(&hits)));
        Ok(hits)
    }

    /// The browsable view of one object on the current snapshot, cached per
    /// generation.
    pub fn view(&self, object: &ObjectRef) -> AladinResult<Arc<ObjectView>> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let key = (
            snapshot.generation,
            fingerprint_bytes(
                format!(
                    "view:{}:{}:{}",
                    object.source, object.table, object.accession
                )
                .as_bytes(),
            ),
        );
        if let Some(CachedValue::View(cached)) = self.cache.lookup(key) {
            return Ok(cached);
        }
        let view = Arc::new(snapshot.warehouse.view(object)?);
        self.cache.store(key, CachedValue::View(Arc::clone(&view)));
        Ok(view)
    }

    /// Run a SQL query against one source on the current snapshot. `SELECT`
    /// statements are normalized through the parsed plan's structural
    /// fingerprint — texts differing only in keyword case or whitespace
    /// share one cache entry — and the optimized plan is cached too, so
    /// it survives eviction of the (larger) result entry. `EXPLAIN` is
    /// served uncached.
    ///
    /// On a result-cache miss, the plan is statically analyzed first
    /// ([`aladin_relstore::analyze`]) and refused on error diagnostics; the
    /// verdict is cached per normalized fingerprint, so a repeated invalid
    /// query is rejected before the optimizer, the executor, and the result
    /// cache.
    pub fn sql(&self, source: &str, query: &str) -> AladinResult<Arc<Table>> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let statement = aladin_relstore::sql::parse_statement(query)?;
        let plan = match statement {
            Statement::Select(plan) => plan,
            Statement::Explain(_) => {
                // Diagnostic output: cheap to derive, not worth cache space.
                return Ok(Arc::new(snapshot.warehouse.sql(source, query)?));
            }
        };
        let db = snapshot.warehouse.database(source)?;
        let normalized = plan.fingerprint();
        let result_key = (
            snapshot.generation,
            fingerprint_bytes(format!("sql:{source}:{normalized:016x}").as_bytes()),
        );
        if let Some(CachedValue::Table(cached)) = self.cache.lookup(result_key) {
            return Ok(cached);
        }
        let verdict = match self.analysis.lookup(result_key) {
            Some(v) => v,
            None => {
                let v = aladin_relstore::analyze::analyze(db, &plan)
                    .to_error()
                    .map(rejection_message);
                self.analysis.store(result_key, v.clone());
                v
            }
        };
        if let Some(message) = verdict {
            return Err(AladinError::Storage(RelError::Analysis(message)));
        }
        let plan_key = (
            snapshot.generation,
            fingerprint_bytes(format!("plan:{source}:{normalized:016x}").as_bytes()),
        );
        let optimized = match self.cache.lookup(plan_key) {
            Some(CachedValue::Plan(cached)) => cached,
            _ => {
                let optimized = Arc::new(aladin_relstore::optimize::optimize(db, &plan));
                self.cache
                    .store(plan_key, CachedValue::Plan(Arc::clone(&optimized)));
                optimized
            }
        };
        let table = Arc::new(aladin_relstore::exec::execute(db, &optimized)?);
        self.cache
            .store(result_key, CachedValue::Table(Arc::clone(&table)));
        Ok(table)
    }

    /// The path-guided join of a source's primary relation to a secondary
    /// table, on the current snapshot, cached per generation.
    pub fn join_path(&self, source: &str, secondary_table: &str) -> AladinResult<Arc<Table>> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let key = (
            snapshot.generation,
            fingerprint_bytes(format!("join:{source}:{secondary_table}").as_bytes()),
        );
        if let Some(CachedValue::Table(cached)) = self.cache.lookup(key) {
            return Ok(cached);
        }
        let table = Arc::new(snapshot.warehouse.join_path(source, secondary_table)?);
        self.cache
            .store(key, CachedValue::Table(Arc::clone(&table)));
        Ok(table)
    }
}

// The serving layer is only sound if everything it shares really is
// thread-shareable; pin that at compile time (this is also the regression
// guard for the `&self` read-path sweep — a `&mut` read path or a
// non-`Sync` cache cell would break these).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<Warehouse>();
    assert_send_sync::<QuerySpec>();
    assert_send_sync::<ServeMetrics>();
    assert_send_sync::<ServeConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AttrFilter;
    use crate::config::AladinConfig;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn protkb() -> Database {
        let mut db = Database::new("protkb");
        db.create_table(
            "protkb_entry",
            TableSchema::of(vec![
                ColumnDef::int("entry_id"),
                ColumnDef::text("ac"),
                ColumnDef::text("de"),
            ]),
        )
        .unwrap();
        for (i, desc) in [
            "serine kinase enzyme",
            "sugar transporter protein",
            "ribosome assembly factor",
        ]
        .iter()
        .enumerate()
        {
            db.insert(
                "protkb_entry",
                vec![
                    Value::Int(i as i64 + 1),
                    Value::text(format!("P1000{}", i + 1)),
                    Value::text(*desc),
                ],
            )
            .unwrap();
        }
        db
    }

    fn structdb() -> Database {
        let mut db = Database::new("structdb");
        db.create_table(
            "structures",
            TableSchema::of(vec![
                ColumnDef::text("structure_id"),
                ColumnDef::text("title"),
            ]),
        )
        .unwrap();
        for (acc, title) in [
            ("1ABC", "kinase structure"),
            ("2DEF", "transporter structure"),
        ] {
            db.insert("structures", vec![Value::text(acc), Value::text(title)])
                .unwrap();
        }
        db
    }

    fn server() -> Server {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
        aladin.add_database(protkb()).unwrap();
        Server::start(aladin, ServeConfig::default()).unwrap()
    }

    #[test]
    fn cached_results_are_identical_and_counted() {
        let server = server();
        let spec = QuerySpec::scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("de", "kinase"));

        let first = server.fetch(&spec).unwrap();
        let second = server.fetch(&spec).unwrap();
        // The second call is a cache hit serving the very same allocation,
        // and is byte-identical to the uncached result.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let m = server.metrics();
        assert_eq!(m.queries_served, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert!(m.cache_bytes > 0);
        assert_eq!(
            m.cache_capacity_bytes,
            ServeConfig::default().cache_capacity_bytes
        );
    }

    #[test]
    fn sql_results_cache_on_the_normalized_plan() {
        let server = server();
        let a = server
            .sql("protkb", "SELECT ac FROM protkb_entry ORDER BY ac LIMIT 2")
            .unwrap();
        // Keyword-case/whitespace variations parse to the same plan: one
        // cache key.
        let b = server
            .sql(
                "protkb",
                "select ac   from protkb_entry order by ac limit 2",
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.row_count(), 2);
        let m = server.metrics();
        // First call: result miss + plan miss; second: result hit.
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 2);

        // EXPLAIN is served uncached.
        let e = server
            .sql("protkb", "EXPLAIN SELECT ac FROM protkb_entry")
            .unwrap();
        assert!(e.column_values("plan").is_ok());
        assert_eq!(server.metrics().cache_hits, 1);
    }

    #[test]
    fn invalid_sql_is_refused_before_the_result_cache() {
        let server = server();
        let bad = "SELECT acc FROM protkb_entry";
        let err = server.sql("protkb", bad).unwrap_err().to_string();
        assert!(err.contains("error[E102]"), "{err}");
        assert!(err.contains("did you mean 'ac'?"), "{err}");
        // The refusal is cached: the repeat is rejected with the same
        // message, and neither attempt occupied result-cache space.
        let again = server.sql("protkb", bad).unwrap_err().to_string();
        assert_eq!(err, again);
        assert_eq!(server.metrics().cache_entries, 0);

        // A valid query on the same server still executes and caches.
        let ok = server.sql("protkb", "SELECT ac FROM protkb_entry").unwrap();
        assert_eq!(ok.row_count(), 3);

        // Verdicts are per generation: publishing re-analyzes (the column is
        // still unknown, so the query is refused again, on fresh state).
        server.add_database(structdb()).unwrap();
        let err = server.sql("protkb", bad).unwrap_err().to_string();
        assert!(err.contains("error[E102]"), "{err}");
    }

    #[test]
    fn invalid_fetch_specs_are_refused_and_search_roots_skip_the_gate() {
        let server = server();
        let bad = QuerySpec::scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("descr", "kinase"));
        let err = server.fetch(&bad).unwrap_err().to_string();
        assert!(err.contains("error[E102]"), "{err}");
        assert!(err.contains("'descr'"), "{err}");
        // Cached verdict: the repeat is refused identically, and no result
        // was ever cached for the invalid spec.
        let again = server.fetch(&bad).unwrap_err().to_string();
        assert_eq!(err, again);

        // Search roots are not relational plans — they bypass analysis and
        // keep working.
        let hits = server
            .fetch(&QuerySpec::search("kinase").limit(10))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn publishing_invalidates_exactly_the_old_generation() {
        let server = server();
        let spec = QuerySpec::scan();
        let before = server.fetch(&spec).unwrap();
        assert_eq!(before.len(), 3);
        let g1 = server.generation();
        let held = server.snapshot();

        server.add_database(structdb()).unwrap();
        let g2 = server.generation();
        assert!(g2 > g1);

        // The old-generation cache entry is purged: the re-fetch misses,
        // executes on the new snapshot, and sees the new source.
        let after = server.fetch(&spec).unwrap();
        assert_eq!(after.len(), 5);
        let m = server.metrics();
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.snapshots_published, 2);

        // A snapshot opened before the publish still serves generation g1.
        assert_eq!(held.generation(), g1);
        assert_eq!(held.warehouse().metadata().generation(), g1);
        assert_eq!(held.warehouse().scan().count().unwrap(), 3);
        assert_eq!(held.warehouse().source_names(), vec!["protkb"]);
    }

    #[test]
    fn lru_evicts_by_byte_budget_and_entry_cap() {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
        aladin.add_database(protkb()).unwrap();
        let server = Server::start(aladin, ServeConfig::default().with_max_entries(2)).unwrap();

        let specs: Vec<QuerySpec> = (1..=3)
            .map(|i| QuerySpec::accession("protkb", format!("P1000{i}")))
            .collect();
        for spec in &specs {
            server.fetch(spec).unwrap();
        }
        // Three inserts into a two-entry cache: the least recently used
        // (the first spec) was evicted.
        let m = server.metrics();
        assert_eq!(m.cache_entries, 2);
        assert_eq!(m.cache_evictions, 1);
        server.fetch(&specs[0]).unwrap(); // miss: re-executes
        server.fetch(&specs[2]).unwrap(); // hit: still resident
        let m = server.metrics();
        assert_eq!(m.cache_misses, 4);
        assert_eq!(m.cache_hits, 1);

        // A tiny byte budget rejects values outright and never serves hits.
        let mut aladin = Aladin::with_defaults();
        aladin.add_database(protkb()).unwrap();
        let tiny = Server::start(aladin, ServeConfig::default().with_cache_capacity(16)).unwrap();
        tiny.fetch(&specs[0]).unwrap();
        tiny.fetch(&specs[0]).unwrap();
        assert_eq!(tiny.metrics().cache_hits, 0);
        assert_eq!(tiny.metrics().cache_entries, 0);
    }

    #[test]
    fn uncached_server_executes_every_query() {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
        aladin.add_database(protkb()).unwrap();
        let server = Server::start(aladin, ServeConfig::uncached()).unwrap();
        let spec = QuerySpec::scan();
        let a = server.fetch(&spec).unwrap();
        let b = server.fetch(&spec).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let m = server.metrics();
        assert_eq!(m.queries_served, 2);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, 0);
        assert_eq!(m.cache_capacity_bytes, 0);
    }

    #[test]
    fn all_read_apis_serve_and_cache() {
        let server = server();
        let hits = server.search("kinase", 10).unwrap();
        assert!(!hits.is_empty());
        let hits_again = server.search("kinase", 10).unwrap();
        assert!(Arc::ptr_eq(&hits, &hits_again));
        // Different top_k is a different key.
        let fewer = server.search("kinase", 1).unwrap();
        assert!(!Arc::ptr_eq(&hits, &fewer));

        let object = ObjectRef::new("protkb", "protkb_entry", "P10001");
        let view = server.view(&object).unwrap();
        assert!(view.attributes.iter().any(|(c, _)| c == "de"));
        assert!(Arc::ptr_eq(&view, &server.view(&object).unwrap()));

        // An `offset + limit` that overflows usize pages like the same
        // LIMIT/OFFSET in SQL.
        let paged = server
            .fetch(&QuerySpec::scan().offset(1).limit(usize::MAX))
            .unwrap();
        let sql = server
            .sql(
                "protkb",
                "SELECT ac FROM protkb_entry LIMIT 18446744073709551615 OFFSET 1",
            )
            .unwrap();
        assert_eq!(paged.len(), sql.row_count());
        assert_eq!(paged.len(), 2);

        // Errors pass through and are not cached.
        assert!(server
            .fetch(&QuerySpec::accession("protkb", "NOPE"))
            .is_err());
        assert!(server
            .sql("protkb", "SELECT nonsense FROM nowhere")
            .is_err());
    }

    #[test]
    fn refresh_below_threshold_publishes_nothing() {
        let server = server();
        let g = server.generation();
        let published = server.snapshots_published.load(Ordering::Relaxed);
        // Below the 0.1 change threshold the refresh defers: no new version.
        let deferred = server.refresh_source(protkb(), 0.01).unwrap();
        assert!(deferred.is_none());
        assert_eq!(server.generation(), g);
        assert_eq!(
            server.snapshots_published.load(Ordering::Relaxed),
            published
        );
        // Above it, a new generation is published.
        let report = server.refresh_source(protkb(), 1.0).unwrap();
        assert!(report.is_some());
        assert!(server.generation() > g);
    }
}
