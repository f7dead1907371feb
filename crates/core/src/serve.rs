//! The concurrent serving layer: MVCC snapshot reads over the warehouse,
//! plus a bounded, generation-invalidated query-result cache.
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
//!   fingerprints for object queries, parsed-plan fingerprints for SQL —
//!   with a byte budget and an entry cap ([`ServeConfig`]). An entry is
//!   charged an estimate of its heap size, read off the result without
//!   rendering it. Every read does one lookup and stores at most one entry,
//!   its result. Publishing a new snapshot purges every entry of older
//!   generations, so a cached result can never be served across a version
//!   boundary. Hit/miss/eviction counters surface through [`ServeMetrics`]
//!   ([`Server::metrics`]), mirroring [`crate::metadata::PipelineMetrics`]
//!   for the integration side.
//! * **Invalid queries are refused before execution.** On a cache miss,
//!   [`Server::fetch`] and [`Server::sql`] run the static analyzer
//!   ([`aladin_relstore::analyze`]) over the compiled plan and reject
//!   queries with error diagnostics. A refusal is an error, and errors are
//!   never cached.
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

use crate::access::query::run_statement;
use crate::access::{
    AnnotationRow, ObjectHit, ObjectRecord, ObjectView, QuerySpec, RecordOrigin, Warehouse,
};
use crate::config::AladinConfig;
use crate::error::{AladinError, AladinResult};
use crate::metadata::ObjectRef;
use crate::pipeline::{Aladin, IntegrationReport, PipelineRecovery};
use aladin_relstore::plan::fingerprint_bytes;
use aladin_relstore::sql::Statement;
use aladin_relstore::{persist, Database, RelError, Table, Value};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning knobs of the serving layer's query-result cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Byte budget of the cache. Each cached value is charged an estimate
    /// of its heap size, the lengths of the strings it holds plus a fixed
    /// cost per element, so the budget is approximate. `0` disables caching
    /// entirely.
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
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A shared, immutable warehouse version: one published [`Warehouse`],
/// whose pipeline and access caches nothing mutates. Cloning is an [`Arc`]
/// bump; the warehouse was warmed at publish time, so no reader ever pays a
/// cache build or takes a lock beyond the momentary [`Server::snapshot`]
/// read lock.
#[derive(Clone)]
pub struct Snapshot {
    warehouse: Arc<Warehouse>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("generation", &self.generation())
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
        self.warehouse.metadata().generation()
    }
}

/// Write the published-generation marker: a tiny checksummed blob holding
/// the generation, written atomically to `<data_dir>/GENERATION` *before*
/// the in-memory snapshot swap — a crash between the two leaves a marker no
/// higher than what the next publish will (deterministically) reproduce.
fn write_generation_marker(dir: &Path, generation: u64) -> Result<(), RelError> {
    let mut payload = Vec::new();
    persist::put_u64(&mut payload, generation);
    persist::write_blob(&dir.join("GENERATION"), &payload)
}

/// Read the published-generation marker. A missing or corrupt marker is
/// `None` — resume proceeds from the recovered state without one. Only the
/// leading generation is read, so a marker that also lists the published
/// sources after it still decodes.
fn read_generation_marker(dir: &Path) -> Option<u64> {
    let blob = persist::read_blob(&dir.join("GENERATION")).ok()?;
    persist::Cursor::new(&blob).u64().ok()
}

fn build_snapshot(master: &Aladin) -> AladinResult<Snapshot> {
    let warehouse = Warehouse::from_aladin(master.clone());
    // Warm eagerly: a failed or panicking build surfaces here, on the
    // writer, never on a reader holding the published snapshot.
    warehouse.warm()?;
    Ok(Snapshot {
        warehouse: Arc::new(warehouse),
    })
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Cache key: the snapshot generation the value was computed on, plus the
/// kind-prefixed FNV-1a fingerprint of the normalized query.
type CacheKey = (u64, u64);

/// A cached result: whatever a serving API returns, behind an [`Arc`] so a
/// hit is a pointer bump. [`Server::read`] downcasts it back to its type.
type CachedValue = Arc<dyn Any + Send + Sync>;

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

    /// Cache `value`, charging the byte budget with its [`Charge`] plus a
    /// fixed overhead per entry: an estimate of its heap size, read off the
    /// value without rendering it.
    fn store<T: Charge + Send + Sync + 'static>(&self, key: CacheKey, value: Arc<T>) {
        if !self.enabled() {
            return;
        }
        let bytes = value.charge() + 64;
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

/// What a cached value charges against the byte budget: the lengths of the
/// strings it holds plus [`ELEMENT_BYTES`] for each element that holds them
/// (object reference, `(column, value)` pair, annotation row, table column,
/// table row, value). An estimate of its heap size, growing with the
/// result, computed without rendering it.
trait Charge {
    fn charge(&self) -> usize;
}

/// Bytes charged per element beside the strings it holds: the inline size
/// of one [`Value`]. Most elements are larger (a `(String, String)` pair
/// takes 48 bytes inline), so the estimate errs low rather than high.
const ELEMENT_BYTES: usize = std::mem::size_of::<Value>();

fn object_charge(object: &ObjectRef) -> usize {
    ELEMENT_BYTES + object.source.len() + object.table.len() + object.accession.len()
}

fn pairs_charge(pairs: &[(String, String)]) -> usize {
    pairs
        .iter()
        .map(|(column, value)| ELEMENT_BYTES + column.len() + value.len())
        .sum()
}

fn annotation_charge(rows: &[AnnotationRow]) -> usize {
    rows.iter()
        .map(|row| ELEMENT_BYTES + row.table.len() + pairs_charge(&row.values))
        .sum()
}

impl Charge for Vec<ObjectRecord> {
    fn charge(&self) -> usize {
        self.iter()
            .map(|record| {
                let via = match &record.origin {
                    RecordOrigin::Linked { via, .. } => object_charge(via),
                    _ => 0,
                };
                object_charge(&record.object)
                    + via
                    + pairs_charge(&record.attributes)
                    + annotation_charge(&record.annotation)
            })
            .sum()
    }
}

impl Charge for Vec<ObjectHit> {
    fn charge(&self) -> usize {
        self.iter()
            .map(|hit| object_charge(&hit.object) + hit.field.len())
            .sum()
    }
}

impl Charge for ObjectView {
    fn charge(&self) -> usize {
        let neighbours = self.same_relation.iter().map(object_charge);
        let duplicates = self
            .duplicates
            .iter()
            .map(|(object, _)| object_charge(object));
        let linked = self.linked.iter().map(|(object, ..)| object_charge(object));
        object_charge(&self.object)
            + pairs_charge(&self.attributes)
            + annotation_charge(&self.annotation)
            + neighbours.chain(duplicates).chain(linked).sum::<usize>()
    }
}

impl Charge for Table {
    fn charge(&self) -> usize {
        let columns: usize = self
            .schema()
            .columns()
            .iter()
            .map(|column| ELEMENT_BYTES + column.name.len())
            .sum();
        let values = |row: &[Value]| -> usize {
            row.iter()
                .map(|value| match value {
                    Value::Text(text) => ELEMENT_BYTES + text.len(),
                    _ => ELEMENT_BYTES,
                })
                .sum()
        };
        let rows: usize = self
            .rows()
            .iter()
            .map(|row| ELEMENT_BYTES + values(row))
            .sum();
        self.name().len() + columns + rows
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Counters of the serving layer, the query-side sibling of
/// [`crate::metadata::PipelineMetrics`]: snapshot publishing plus cache
/// effectiveness. The `exp_serve` bench reads them for its output.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        Self::publish_marker(&aladin, snapshot.generation())?;
        Ok(Server {
            master: Mutex::new(aladin),
            current: RwLock::new(snapshot),
            cache: QueryCache::new(&config),
            config,
            snapshots_published: AtomicU64::new(1),
            queries_served: AtomicU64::new(0),
            resumed_from: None,
        })
    }

    /// Restart serving from [`AladinConfig::data_dir`]: recover the
    /// warehouse via [`Aladin::open`] (which loads each source's stored
    /// links and duplicates, and rediscovers only the sources listed in
    /// [`PipelineRecovery::rediscovered`]), read the published-generation
    /// marker, and fast-forward the metadata generation so the first
    /// published snapshot resumes at (not below) the last generation the
    /// crashed server had published. Returns the server plus what recovery
    /// found.
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
            write_generation_marker(dir, generation).map_err(|cause| AladinError::Durability {
                context: "publishing generation marker".into(),
                cause,
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
        self.snapshot().generation()
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
        let generation = snapshot.generation();
        // Marker before swap: a failure here publishes neither, so disk and
        // memory never disagree about what was served.
        Self::publish_marker(master, generation)?;
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
        self.cache.retain_generation(generation);
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Lock the master pipeline. Mutations are transactional (stage +
    /// infallible commit, PR 4), so even a mutex poisoned by a panicking
    /// writer holds a consistent pipeline: recover instead of cascading.
    fn master(&self) -> std::sync::MutexGuard<'_, Aladin> {
        self.master.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one writer call on the master, then publish a new snapshot if the
    /// call committed anything (the metadata generation moved), even when it
    /// errs: under `ContinueOnError` a partial batch commits its healthy
    /// sources and still returns [`AladinError::PartialIntegration`].
    fn write<T>(&self, call: impl FnOnce(&mut Aladin) -> AladinResult<T>) -> AladinResult<T> {
        let mut master = self.master();
        let generation = master.metadata().generation();
        let result = call(&mut master);
        if master.metadata().generation() != generation {
            self.publish(&master)?;
        }
        result
    }

    /// Integrate a new source and publish the next warehouse version.
    /// Readers keep serving the previous snapshot throughout.
    pub fn add_database(&self, db: Database) -> AladinResult<IntegrationReport> {
        self.write(|master| master.add_database(db))
    }

    /// Integrate a batch of sources, publishing once at the end. Sources a
    /// partial batch committed are published with it.
    pub fn add_databases(&self, dbs: Vec<Database>) -> AladinResult<Vec<IntegrationReport>> {
        self.write(|master| master.add_databases(dbs))
    }

    /// Handle a changed source (deferred below the configured change
    /// threshold, re-integrated above it). A new snapshot is published only
    /// when re-integration actually happened.
    pub fn refresh_source(
        &self,
        db: Database,
        changed_fraction: f64,
    ) -> AladinResult<Option<IntegrationReport>> {
        self.write(|master| master.refresh_source(db, changed_fraction))
    }

    // -- reader side --------------------------------------------------------

    /// The one read path behind every query API: count the call, pin the
    /// current snapshot, and serve `(generation, key)` from the cache — or
    /// run `miss` on the snapshot's warehouse and cache its result. A `None`
    /// key is served uncached; errors are never cached.
    fn read<T: Charge + Send + Sync + 'static>(
        &self,
        key: Option<u64>,
        miss: impl FnOnce(&Warehouse) -> AladinResult<T>,
    ) -> AladinResult<Arc<T>> {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let key = key.map(|k| (snapshot.generation(), k));
        if let Some(hit) = key
            .and_then(|k| self.cache.lookup(k))
            .and_then(|v| v.downcast().ok())
        {
            return Ok(hit);
        }
        let value = Arc::new(miss(&snapshot.warehouse)?);
        if let Some(key) = key {
            self.cache.store(key, Arc::clone(&value));
        }
        Ok(value)
    }

    /// Execute an object query against the current snapshot, serving a
    /// cached result when the same normalized spec already ran on this
    /// generation.
    ///
    /// On a cache miss, the spec is statically analyzed first
    /// ([`crate::access::ObjectQuery::analyze`]) and refused on error
    /// diagnostics, so an invalid query never occupies cache space. Specs
    /// outside the relational subset (search roots, link traversals) do not
    /// compile to a plan; they skip the gate and execute directly.
    pub fn fetch(&self, spec: &QuerySpec) -> AladinResult<Arc<Vec<ObjectRecord>>> {
        self.read(Some(spec.fingerprint()), |w| {
            let query = w.query(spec.clone());
            // Not relational (search root, link traversal): nothing to
            // analyze statically.
            if let Some(refusal) = query.analyze().ok().and_then(|a| a.to_error()) {
                return Err(refusal.into());
            }
            query.fetch()
        })
    }

    /// Ranked keyword search over the current snapshot, cached per
    /// generation.
    pub fn search(&self, query: &str, top_k: usize) -> AladinResult<Arc<Vec<ObjectHit>>> {
        let key = fingerprint_bytes(format!("search:{top_k}:{query}").as_bytes());
        self.read(Some(key), |w| w.search_hits(query, top_k))
    }

    /// The browsable view of one object on the current snapshot, cached per
    /// generation.
    pub fn view(&self, object: &ObjectRef) -> AladinResult<Arc<ObjectView>> {
        // `Debug` quotes and escapes every part, so names containing `:`
        // (accessions such as `GO:0001`) cannot run into each other.
        let (source, table, accession) = (&object.source, &object.table, &object.accession);
        let key = fingerprint_bytes(format!("view:{source:?}:{table:?}:{accession:?}").as_bytes());
        self.read(Some(key), |w| w.view(object))
    }

    /// Run a SQL query against one source on the current snapshot. `SELECT`
    /// statements are keyed on the parsed plan's structural fingerprint —
    /// texts differing only in keyword case or whitespace share one cache
    /// entry — and on a miss run as [`Warehouse::sql`] runs them:
    /// statically analyzed and refused on error diagnostics, then optimized
    /// and executed. `EXPLAIN` is served uncached. A parse error is reported
    /// before an unknown source, since the cache key needs the parse.
    pub fn sql(&self, source: &str, query: &str) -> AladinResult<Arc<Table>> {
        let statement = aladin_relstore::sql::parse_statement(query);
        let key = match &statement {
            Ok(Statement::Select(plan)) => Some(fingerprint_bytes(
                format!("sql:{source}:{:016x}", plan.fingerprint()).as_bytes(),
            )),
            // EXPLAIN is diagnostic output, cheap to derive and not worth
            // cache space; a parse error is returned as is.
            _ => None,
        };
        self.read(key, |w| {
            let statement = statement?;
            run_statement(w.database(source)?, statement)
        })
    }

    /// The path-guided join of a source's primary relation to a secondary
    /// table, on the current snapshot, cached per generation.
    pub fn join_path(&self, source: &str, secondary_table: &str) -> AladinResult<Arc<Table>> {
        let key = fingerprint_bytes(format!("join:{source:?}:{secondary_table:?}").as_bytes());
        self.read(Some(key), |w| w.join_path(source, secondary_table))
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
    use crate::config::{AladinConfig, BatchErrorPolicy, FaultInjection};
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
        server_over(protkb())
    }

    fn server_over(db: Database) -> Server {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
        aladin.add_database(db).unwrap();
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
        // First call: one miss storing one entry, the result; second: a hit.
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_entries, 1);

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
        // The repeat is analyzed again and rejected with the same message,
        // and neither attempt occupied cache space.
        let again = server.sql("protkb", bad).unwrap_err().to_string();
        assert_eq!(err, again);
        assert_eq!(server.metrics().cache_entries, 0);

        // A valid query on the same server still executes and caches.
        let ok = server.sql("protkb", "SELECT ac FROM protkb_entry").unwrap();
        assert_eq!(ok.row_count(), 3);

        // On the next generation the column is still unknown, so the query
        // is refused again.
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
        // The repeat is refused identically, and no result was ever cached
        // for the invalid spec.
        let again = server.fetch(&bad).unwrap_err().to_string();
        assert_eq!(err, again);
        assert_eq!(server.metrics().cache_entries, 0);

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
        let two_entries = ServeConfig {
            cache_max_entries: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(aladin, two_entries).unwrap();

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
        let tiny_budget = ServeConfig {
            cache_capacity_bytes: 16,
            ..ServeConfig::default()
        };
        let tiny = Server::start(aladin, tiny_budget).unwrap();
        tiny.fetch(&specs[0]).unwrap();
        tiny.fetch(&specs[0]).unwrap();
        assert_eq!(tiny.metrics().cache_hits, 0);
        assert_eq!(tiny.metrics().cache_entries, 0);
    }

    /// The bytes one read leaves charged on a fresh server over `db`.
    fn charge_of(db: Database, read: impl FnOnce(&Server)) -> usize {
        let server = server_over(db);
        read(&server);
        let m = server.metrics();
        assert_eq!(m.cache_entries, 1);
        m.cache_bytes
    }

    #[test]
    fn every_read_api_charges_more_for_a_larger_result() {
        let fetch = |spec: QuerySpec, len: usize| {
            move |s: &Server| assert_eq!(s.fetch(&spec).unwrap().len(), len)
        };
        assert!(
            charge_of(protkb(), fetch(QuerySpec::accession("protkb", "P10001"), 1))
                < charge_of(protkb(), fetch(QuerySpec::scan(), 3))
        );

        let search = |top_k: usize, len: usize| {
            move |s: &Server| assert_eq!(s.search("kinase sugar", top_k).unwrap().len(), len)
        };
        assert!(charge_of(protkb(), search(1, 1)) < charge_of(protkb(), search(10, 2)));

        // GO:0001 has the longer name and two synonyms, GO:0003 one.
        let view = |accession: &'static str, synonyms: usize| {
            move |s: &Server| {
                let term = ObjectRef::new("goterms", "terms", accession);
                assert_eq!(s.view(&term).unwrap().annotation.len(), synonyms);
            }
        };
        assert!(
            charge_of(goterms(), view("GO:0003", 1)) < charge_of(goterms(), view("GO:0001", 2))
        );

        let sql = |query: &'static str, rows: usize| {
            move |s: &Server| assert_eq!(s.sql("protkb", query).unwrap().row_count(), rows)
        };
        assert!(
            charge_of(protkb(), sql("SELECT ac FROM protkb_entry LIMIT 1", 1))
                < charge_of(protkb(), sql("SELECT ac FROM protkb_entry", 3))
        );

        let join = |rows: usize| {
            move |s: &Server| {
                assert_eq!(
                    s.join_path("goterms", "term:syn").unwrap().row_count(),
                    rows
                )
            }
        };
        let mut more_synonyms = goterms();
        more_synonyms
            .insert(
                "term:syn",
                vec![Value::Int(14), Value::Int(2), Value::text("sugar uptake")],
            )
            .unwrap();
        assert!(charge_of(goterms(), join(4)) < charge_of(more_synonyms, join(5)));
    }

    #[test]
    fn a_result_charged_above_the_budget_is_not_cached() {
        let one = QuerySpec::accession("protkb", "P10001");
        let budget = charge_of(protkb(), |s| {
            s.fetch(&one).unwrap();
        });
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
        aladin.add_database(protkb()).unwrap();
        let exact = ServeConfig {
            cache_capacity_bytes: budget,
            ..ServeConfig::default()
        };
        let server = Server::start(aladin, exact).unwrap();

        // The one-record result fits the budget exactly; the full scan is
        // charged above it, so it is served but never cached, and evicts
        // nothing.
        server.fetch(&one).unwrap();
        let all = QuerySpec::scan();
        assert_eq!(server.fetch(&all).unwrap().len(), 3);
        assert_eq!(server.fetch(&all).unwrap().len(), 3);
        server.fetch(&one).unwrap();
        let m = server.metrics();
        assert_eq!(m.cache_entries, 1);
        assert_eq!(m.cache_bytes, budget);
        assert_eq!(m.cache_evictions, 0);
        assert_eq!((m.cache_hits, m.cache_misses), (1, 3));
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

    /// A source whose accessions carry colons (`GO:0001`), beside a
    /// secondary table whose name carries one too.
    fn goterms() -> Database {
        let mut db = Database::new("goterms");
        db.create_table(
            "terms",
            TableSchema::of(vec![
                ColumnDef::int("term_id"),
                ColumnDef::text("accession"),
                ColumnDef::text("name"),
            ]),
        )
        .unwrap();
        db.create_table(
            "term:syn",
            TableSchema::of(vec![
                ColumnDef::int("syn_id"),
                ColumnDef::int("term_id"),
                ColumnDef::text("synonym"),
            ]),
        )
        .unwrap();
        for (id, name) in [
            (1, "kinase activity"),
            (2, "sugar transport"),
            (3, "rRNA binding"),
        ] {
            db.insert(
                "terms",
                vec![
                    Value::Int(id),
                    Value::text(format!("GO:000{id}")),
                    Value::text(name),
                ],
            )
            .unwrap();
        }
        for (id, term, synonym) in [
            (10, 1, "protein kinase"),
            (11, 1, "phosphotransferase activity"),
            (12, 2, "sugar import"),
            (13, 3, "ribosomal RNA binding"),
        ] {
            db.insert(
                "term:syn",
                vec![Value::Int(id), Value::Int(term), Value::text(synonym)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn keys_keep_names_containing_colons_apart() {
        let server = server_over(goterms());
        let snapshot = server.snapshot();
        let warehouse = snapshot.warehouse();

        // Joined with `:`, the parts of each second read spell the same
        // text as those of the cached first read; it must still be answered
        // as the warehouse answers it.
        let term = ObjectRef::new("goterms", "terms", "GO:0001");
        assert_eq!(*server.view(&term).unwrap(), warehouse.view(&term).unwrap());
        let lookalike = ObjectRef::new("goterms", "terms:GO", "0001");
        assert_eq!(
            server.view(&lookalike).unwrap_err().to_string(),
            warehouse.view(&lookalike).unwrap_err().to_string()
        );

        let joined = server.join_path("goterms", "term:syn").unwrap();
        assert_eq!(joined.row_count(), 4);
        let (source, table) = ("goterms:term", "syn");
        assert_eq!(
            server.join_path(source, table).unwrap_err().to_string(),
            warehouse.join_path(source, table).unwrap_err().to_string()
        );
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

    /// A server over `protkb` whose pipeline runs under `faults`.
    fn faulty_server(faults: FaultInjection, policy: BatchErrorPolicy) -> Server {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            batch_policy: policy,
            faults,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);
        aladin.add_database(protkb()).unwrap();
        Server::start(aladin, ServeConfig::default()).unwrap()
    }

    #[test]
    fn a_partial_batch_publishes_the_sources_it_committed() {
        let faults = FaultInjection {
            fail_analysis: vec!["goterms".into()],
            ..Default::default()
        };
        let server = faulty_server(faults, BatchErrorPolicy::ContinueOnError);
        let g = server.generation();

        let err = server
            .add_databases(vec![structdb(), goterms()])
            .unwrap_err();
        assert!(
            matches!(err, AladinError::PartialIntegration { .. }),
            "{err}"
        );
        // The healthy source was committed, so readers see it at once.
        assert!(server.generation() > g);
        assert_eq!(server.metrics().snapshots_published, 2);
        assert_eq!(
            server.snapshot().warehouse().source_names(),
            vec!["protkb", "structdb"]
        );
        let structures = server.fetch(&QuerySpec::scan().from_source("structdb"));
        assert_eq!(structures.unwrap().len(), 2);
    }

    #[test]
    fn a_panicking_build_publishes_nothing() {
        let faults = FaultInjection {
            panic_cache_build: vec!["structdb".into()],
            ..Default::default()
        };
        let server = faulty_server(faults, BatchErrorPolicy::FailFast);
        let before = server.metrics();
        let scan = server.snapshot().warehouse().scan().fetch().unwrap();

        let add = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.add_database(structdb())
        }));
        assert!(add.is_err(), "the armed cache build must panic");

        // Readers keep the previous version.
        let after = server.metrics();
        assert_eq!(after.generation, before.generation);
        assert_eq!(after.snapshots_published, before.snapshots_published);
        let snapshot = server.snapshot();
        assert_eq!(snapshot.warehouse().source_names(), vec!["protkb"]);
        assert_eq!(snapshot.warehouse().scan().fetch().unwrap(), scan);
        // The next writer recovers the master lock the panic poisoned.
        assert!(server.refresh_source(protkb(), 0.01).unwrap().is_none());
    }
}
