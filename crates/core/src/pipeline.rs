//! The ALADIN integration pipeline.
//!
//! [`Aladin`] is the warehouse plus the orchestration of the five-step
//! integration process (Figure 2 of the paper). Sources are added
//! incrementally: analysing a new source "does not involve data or metadata
//! from other data sources" (steps 1–3), and only link discovery and duplicate
//! detection (steps 4–5) touch the already-integrated sources.
//!
//! # Figure 2 step map
//!
//! | Paper step | Code | Recorded as |
//! |---|---|---|
//! | 1. Import | `aladin_import::import_files_with` via [`Aladin::add_source_files`] | `"import"` |
//! | 2. Primary objects (unique attributes, accessions, relationships, primary relation) | [`analyze_database`] → [`crate::unique`], [`crate::accession`], [`crate::relationships`], [`crate::primary`] | `"structure discovery"` |
//! | 3. Secondary objects | [`analyze_database`] → [`crate::secondary`] | `"structure discovery"` |
//! | 4. Link discovery (explicit + implicit) | [`crate::links`] per source pair | `"link discovery"` (one [`StepTiming`] per pair) |
//! | 5. Duplicate detection | [`crate::duplicates`] per source pair | `"duplicate detection"` (one [`StepTiming`] per pair) |
//!
//! # Parallelism and determinism
//!
//! Steps 2–3 are source-local, so [`Aladin::add_databases`] analyses a batch
//! of new sources concurrently; steps 4–5 decompose into independent
//! pair jobs (the new source against each already-integrated source), which
//! [`Aladin::add_database`] fans out over [`crate::parallel::run_jobs`] with
//! [`AladinConfig::workers`] threads. Every pair job is a pure function of
//! its inputs and the results are merged in a fixed order — source name,
//! then pair, then row — so the metadata repository is identical for every
//! worker count (the wall-clock values inside [`StepTiming`]s are the only
//! thing that varies between runs).
//!
//! # Fault tolerance
//!
//! Integration is transactional: every mutation a source would make is
//! staged (`StagedSource`) and committed only once the source — and, under
//! [`BatchErrorPolicy::FailFast`], the whole batch — is known to succeed, so
//! a failing `add_database`/`add_databases`/`refresh_source` call leaves the
//! warehouse and the metadata repository exactly as before. A pair job that
//! panics is contained by the worker pool and recorded as a
//! [`PairFailure`] instead of taking the run down; a whole-source failure
//! under [`BatchErrorPolicy::ContinueOnError`] quarantines just that source
//! ([`SourceOutcome::Quarantined`]) while the rest of the batch integrates.
//!
//! # Durability
//!
//! With [`AladinConfig::data_dir`] set, a committed source is two files
//! under `sources/`: a snapshot of its imported `Database` (`.snap`) and
//! the outcome of its steps 4–5 (`.links`: its links, duplicates and pair
//! failures), both stamped with the sequence number of the commit event in
//! `pipeline.wal` that committed them. [`Aladin::open`] re-runs only the
//! source-local steps 2–3 and loads the stored outcome; it rediscovers a
//! source only when that outcome cannot be trusted.

use crate::accession::detect_accession_candidates;
use crate::config::{AladinConfig, BatchErrorPolicy, FaultInjection};
use crate::duplicates::detect_duplicates;
use crate::error::{AladinError, AladinResult, SourceFailure};
use crate::links::explicit::discover_explicit_links;
use crate::links::implicit::{
    discover_sequence_links, discover_shared_term_links, discover_text_links,
};
use crate::metadata::{
    Link, LinkKind, MetadataRepository, ObjectRef, PairFailure, PipelineMetrics, SourceStructure,
    StepTiming,
};
use crate::parallel::run_jobs;
use crate::primary::select_primary_relations;
use crate::relationships::discover_relationships;
use crate::secondary::discover_secondary_relations;
use crate::unique::detect_unique_columns;
use aladin_import::{import_files_with, QuarantinedRecord, SourceFormat};
use aladin_relstore::plan::fingerprint_bytes;
use aladin_relstore::stats::profile_table;
use aladin_relstore::wal::{self, Wal};
use aladin_relstore::{persist, Database, RelError};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Number of sample values stored per column in the metadata repository.
const SAMPLE_SIZE: usize = 10;

/// Fraction of changed rows in a source at or above which a full
/// re-analysis is triggered (Section 6.2's change threshold).
const REFRESH_CHANGE_THRESHOLD: f64 = 0.1;

/// Analyse the internal structure of a single source (steps 2 and 3 of the
/// integration process), without reference to any other source.
pub fn analyze_database(db: &Database, config: &AladinConfig) -> AladinResult<SourceStructure> {
    // Column statistics (the reusable statistical metadata).
    let mut column_stats = Vec::new();
    for table in db.tables() {
        column_stats.extend(profile_table(table, SAMPLE_SIZE)?);
    }
    // Step 2: unique attributes, accession candidates, relationships, primary.
    let unique_columns = detect_unique_columns(db)?;
    let accession_candidates =
        detect_accession_candidates(db, &unique_columns, &column_stats, config)?;
    let relationships = discover_relationships(db, &unique_columns, config)?;
    let primary_relations =
        match select_primary_relations(&accession_candidates, &relationships, config) {
            Ok(p) => p,
            Err(AladinError::Discovery(_)) => Vec::new(), // tolerated failure mode
            Err(e) => return Err(e),
        };
    // Step 3: secondary relations.
    let secondary_relations = discover_secondary_relations(db, &primary_relations, &relationships);

    Ok(SourceStructure {
        source: db.name().to_string(),
        unique_columns,
        accession_candidates,
        relationships,
        primary_relations,
        secondary_relations,
        column_stats,
    })
}

/// Timed source-local analysis with fault injection applied: a source listed
/// in [`FaultInjection::panic_analysis`] panics (to exercise panic
/// containment), one listed in [`FaultInjection::fail_analysis`] returns a
/// discovery error (to exercise rollback). Inert configurations go straight
/// to [`analyze_database`].
fn analyze_with_faults(
    db: &Database,
    config: &AladinConfig,
) -> AladinResult<(SourceStructure, Duration)> {
    let name = db.name();
    if config.faults.panic_analysis.iter().any(|s| s == name) {
        panic!("injected analysis panic: {name}");
    }
    if config.faults.fail_analysis.iter().any(|s| s == name) {
        return Err(AladinError::Discovery(format!(
            "injected analysis failure: {name}"
        )));
    }
    let start = Instant::now();
    analyze_database(db, config).map(|structure| (structure, start.elapsed()))
}

/// Summary of integrating one source.
#[derive(Debug, Clone)]
pub struct IntegrationReport {
    /// Source name.
    pub source: String,
    /// Number of tables imported.
    pub tables: usize,
    /// Number of rows imported.
    pub rows: usize,
    /// Detected primary relations (table, accession column).
    pub primary_relations: Vec<(String, String)>,
    /// Number of secondary relations.
    pub secondary_relations: usize,
    /// Number of guessed or declared relationships.
    pub relationships: usize,
    /// Explicit cross-reference links discovered against existing sources.
    pub explicit_links: usize,
    /// Implicit links (sequence, text, shared-term) discovered.
    pub implicit_links: usize,
    /// Duplicate links discovered.
    pub duplicates: usize,
    /// Attribute pairs compared during link discovery (pruning metric).
    pub pairs_compared: usize,
    /// Per-step aggregate timings for this source (pairwise steps summed over
    /// all pairs; the per-pair breakdown lives in the metadata repository and
    /// is surfaced via [`Aladin::metrics`]).
    pub step_timings: Vec<StepTiming>,
    /// Records quarantined during import (only populated by
    /// [`Aladin::add_source_files`]; empty for pre-imported databases or when
    /// nothing was malformed).
    pub quarantined: Vec<QuarantinedRecord>,
    /// Contained pairwise-job failures: pairs skipped by panic isolation
    /// instead of taking the whole integration down. Also recorded in the
    /// metadata repository and surfaced via [`PipelineMetrics::failures`].
    pub pair_failures: Vec<PairFailure>,
}

impl IntegrationReport {
    /// Total elapsed time across all steps.
    pub fn total_elapsed(&self) -> Duration {
        self.step_timings.iter().map(|t| t.elapsed).sum()
    }

    /// Elapsed time of one named step, if recorded.
    pub fn step_elapsed(&self, step: &str) -> Option<Duration> {
        self.step_timings
            .iter()
            .find(|t| t.step == step)
            .map(|t| t.elapsed)
    }
}

/// Everything one pair job (the new source against one already-integrated
/// source) discovered, plus its cost metrics. Jobs are independent, so the
/// pipeline fans them out over worker threads and merges the outcomes in a
/// fixed order.
#[derive(Debug, Clone)]
struct PairOutcome {
    /// The already-integrated source this job compared against.
    other: String,
    explicit: Vec<Link>,
    implicit: Vec<Link>,
    duplicates: Vec<Link>,
    /// Attribute pairs compared during explicit link discovery.
    pairs_compared: usize,
    /// Duplicate candidate pairs scored.
    candidates_scored: usize,
    link_elapsed: Duration,
    duplicate_elapsed: Duration,
}

/// Steps 4 + 5 between the (already analysed) new source and one
/// already-integrated source. Pure function of its inputs: no shared mutable
/// state, so pair jobs can run on any thread in any order.
fn discover_against(
    db: &Database,
    structure: &SourceStructure,
    other_db: &Database,
    other_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<PairOutcome> {
    let start = Instant::now();
    let forward = discover_explicit_links(db, structure, other_db, other_structure, config)?;
    let reverse = discover_explicit_links(other_db, other_structure, db, structure, config)?;
    let pairs_compared = forward.pairs_compared + reverse.pairs_compared;
    let mut explicit = forward.links;
    explicit.extend(reverse.links);
    let mut implicit = discover_sequence_links(db, structure, other_db, other_structure, config)?;
    implicit.extend(discover_text_links(
        db,
        structure,
        other_db,
        other_structure,
        config,
    )?);
    implicit.extend(discover_shared_term_links(
        db,
        structure,
        other_db,
        other_structure,
        config,
    )?);
    let link_elapsed = start.elapsed();

    let start = Instant::now();
    // The explicit links above all connect this very pair: they seed
    // duplicate detection.
    let duplicates =
        detect_duplicates(db, structure, other_db, other_structure, &explicit, config)?;

    Ok(PairOutcome {
        other: other_db.name().to_string(),
        explicit,
        implicit,
        duplicates: duplicates.links,
        pairs_compared,
        candidates_scored: duplicates.candidates_scored,
        link_elapsed,
        duplicate_elapsed: start.elapsed(),
    })
}

/// Per-source outcome of a batch integration run under an explicit error
/// policy ([`Aladin::add_databases_with`]).
#[derive(Debug, Clone)]
pub enum SourceOutcome {
    /// The source was integrated; its report.
    Integrated(IntegrationReport),
    /// The source failed and was quarantined: nothing of it was committed,
    /// the rest of the batch was integrated without it.
    Quarantined(SourceFailure),
}

impl SourceOutcome {
    /// The source this outcome describes.
    pub fn source(&self) -> &str {
        match self {
            SourceOutcome::Integrated(r) => &r.source,
            SourceOutcome::Quarantined(f) => &f.source,
        }
    }

    /// True when the source was integrated.
    fn is_integrated(&self) -> bool {
        matches!(self, SourceOutcome::Integrated(_))
    }

    /// The integration report, when the source was integrated.
    pub fn report(&self) -> Option<&IntegrationReport> {
        match self {
            SourceOutcome::Integrated(r) => Some(r),
            SourceOutcome::Quarantined(_) => None,
        }
    }

    /// The failure, when the source was quarantined.
    pub fn failure(&self) -> Option<&SourceFailure> {
        match self {
            SourceOutcome::Integrated(_) => None,
            SourceOutcome::Quarantined(f) => Some(f),
        }
    }
}

/// Outcome of one batch integration: one [`SourceOutcome`] per input source,
/// in input order.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-source outcomes, in input order.
    pub outcomes: Vec<SourceOutcome>,
}

impl BatchReport {
    /// The reports of the integrated sources, in input order.
    pub fn integrated(&self) -> impl Iterator<Item = &IntegrationReport> {
        self.outcomes.iter().filter_map(SourceOutcome::report)
    }

    /// The failures of the quarantined sources, in input order.
    pub fn quarantined(&self) -> impl Iterator<Item = &SourceFailure> {
        self.outcomes.iter().filter_map(SourceOutcome::failure)
    }

    /// True when every source of the batch was integrated.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(SourceOutcome::is_integrated)
    }

    /// Collapse into the classic result: the integration reports when the
    /// batch is complete, [`AladinError::PartialIntegration`] listing every
    /// quarantined source otherwise.
    pub fn into_result(self) -> AladinResult<Vec<IntegrationReport>> {
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for outcome in self.outcomes {
            match outcome {
                SourceOutcome::Integrated(r) => reports.push(r),
                SourceOutcome::Quarantined(f) => failures.push(f),
            }
        }
        if failures.is_empty() {
            Ok(reports)
        } else {
            Err(AladinError::PartialIntegration { failures })
        }
    }
}

/// Everything integrating one source would change, computed against the
/// committed warehouse plus the batch sources staged before it — but not yet
/// applied. Staging is the transactional heart of the pipeline: all mutations
/// of a batch are computed first and applied only when the whole batch (under
/// `FailFast`) or this source (under `ContinueOnError`) is known to succeed,
/// so a failure never leaves partial state behind.
#[derive(Debug)]
struct StagedSource {
    db: Database,
    structure: SourceStructure,
    structure_timing: StepTiming,
    discovered: Discovered,
    report: IntegrationReport,
}

impl StagedSource {
    /// Stage an analysed source with what steps 4–5 produced for it.
    fn assemble(
        db: Database,
        structure: SourceStructure,
        structure_elapsed: Duration,
        discovered: Discovered,
    ) -> StagedSource {
        let name = db.name().to_string();
        let structure_timing = StepTiming {
            output_count: structure.relationships.len(),
            ..StepTiming::local(name.clone(), "structure discovery", structure_elapsed)
        };
        let links = discovered.explicit_links.len() + discovered.implicit_links.len();
        let report = IntegrationReport {
            source: name.clone(),
            tables: db.table_count(),
            rows: db.total_rows(),
            primary_relations: structure
                .primary_relations
                .iter()
                .map(|p| (p.table.clone(), p.accession_column.clone()))
                .collect(),
            secondary_relations: structure.secondary_relations.len(),
            relationships: structure.relationships.len(),
            explicit_links: discovered.explicit_links.len(),
            implicit_links: discovered.implicit_links.len(),
            duplicates: discovered.duplicate_links.len(),
            pairs_compared: discovered.pairs_compared,
            step_timings: vec![
                structure_timing.clone(),
                StepTiming {
                    output_count: links,
                    pairs_compared: discovered.pairs_compared,
                    ..StepTiming::local(name.clone(), "link discovery", discovered.link_elapsed)
                },
                StepTiming {
                    output_count: discovered.duplicate_links.len(),
                    pairs_compared: discovered.candidates_scored,
                    ..StepTiming::local(name, "duplicate detection", discovered.duplicate_elapsed)
                },
            ],
            quarantined: Vec::new(),
            pair_failures: discovered.failures.clone(),
        };
        StagedSource {
            db,
            structure,
            structure_timing,
            discovered,
            report,
        }
    }
}

/// What steps 4–5 produced for one source, merged over its pairs in
/// source-name order, and what producing it cost. Its links, duplicates
/// and pair failures are what `sources/<escaped>.links` stores; a source
/// loaded from there carries no costs.
#[derive(Debug, Default)]
struct Discovered {
    explicit_links: Vec<Link>,
    implicit_links: Vec<Link>,
    duplicate_links: Vec<Link>,
    failures: Vec<PairFailure>,
    /// Per-pair link and duplicate timings.
    pair_timings: Vec<StepTiming>,
    pairs_compared: usize,
    candidates_scored: usize,
    link_elapsed: Duration,
    duplicate_elapsed: Duration,
}

/// What [`Aladin::open`] recovered from the data directory.
#[derive(Debug, Clone, Default)]
pub struct PipelineRecovery {
    /// Sources recovered, in last-commit order.
    pub recovered: Vec<String>,
    /// The sources of `recovered` whose links and duplicates were
    /// rediscovered rather than loaded, in last-commit order: their stored
    /// outcome was missing or damaged, stamped with another commit than
    /// their last one or their loaded snapshot's, written under another
    /// discovery configuration, or computed against a version of an
    /// earlier source other than the one loaded. A loaded source records no
    /// per-pair [`StepTiming`]s; a rediscovered one records them as any
    /// integration does.
    pub rediscovered: Vec<String>,
    /// Sources named by the event log whose snapshots were missing or
    /// corrupt, or whose structure discovery or rediscovery failed;
    /// recovery proceeds without them.
    pub lost: Vec<String>,
    /// Why (and that) the pipeline event log's tail was truncated, if it was.
    pub truncated_events: Option<String>,
    /// Wall-clock time of the whole recovery (file loads, steps 2–3, and
    /// rediscovery where needed), also recorded as the warehouse's
    /// "cold-start recovery" [`StepTiming`].
    pub elapsed: Duration,
}

/// Wrap a storage-layer durability failure in the pipeline error taxonomy.
fn durability(context: impl Into<String>, cause: RelError) -> AladinError {
    AladinError::Durability {
        context: context.into(),
        cause,
    }
}

/// File-system-safe name of one of a source's files: alphanumerics, `.`,
/// `_` and `-` of the source name pass through, every other byte is
/// `%XX`-escaped (injective, so distinct source names never collide on
/// disk), then `.` and the extension (`snap` or `links`).
fn source_file(source: &str, extension: &str) -> String {
    let mut out = String::with_capacity(source.len() + extension.len() + 1);
    for b in source.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out.push('.');
    out.push_str(extension);
    out
}

/// Where a source's staged file waits for its commit event: the committed
/// path plus `.next`.
fn pending_path(committed: &Path) -> PathBuf {
    let mut path = committed.as_os_str().to_owned();
    path.push(".next");
    PathBuf::from(path)
}

/// Read one committed file of a source whose last commit event has
/// sequence number `seq`, as `(value, stamp)`. Roll-forward rule: a `.next`
/// stamped `seq` was committed before a crash cut its rename short, so it
/// is renamed onto the committed path, recorded in `adopted`, and read;
/// otherwise the committed path is read. `None` when neither reads.
fn read_committed<T>(
    path: &Path,
    seq: u64,
    adopted: &mut BTreeSet<PathBuf>,
    read: impl Fn(&Path) -> Result<(T, u64), RelError>,
) -> Option<(T, u64)> {
    let next = pending_path(path);
    match read(&next) {
        Ok((value, stamp)) if stamp == seq => {
            let _ = std::fs::rename(&next, path);
            adopted.insert(next);
            Some((value, stamp))
        }
        _ => read(path).ok(),
    }
}

/// Fingerprint of the configuration discovery runs under: FNV-1a of its
/// `Debug` rendering with `data_dir`, `workers`, `faults`, `batch_policy`
/// and `import_error_budget` reset to their defaults. Those five never
/// change what a healthy run discovers from a committed snapshot (the
/// worker count only changes which thread runs a pair; the batch policy and
/// the error budget only decide what gets committed), so a store opened
/// from another directory, with another worker count, with faults armed or
/// under another error policy still loads its outcomes. Any other changed
/// field rediscovers.
fn discovery_fingerprint(config: &AladinConfig) -> u64 {
    let defaults = AladinConfig::default();
    let canonical = AladinConfig {
        data_dir: defaults.data_dir,
        workers: defaults.workers,
        faults: defaults.faults,
        batch_policy: defaults.batch_policy,
        import_error_budget: defaults.import_error_budget,
        ..config.clone()
    };
    fingerprint_bytes(format!("{canonical:?}").as_bytes())
}

/// Format tag of a stored outcome's payload.
const OUTCOME_TAG: u8 = 1;

fn put_object(buf: &mut Vec<u8>, object: &ObjectRef) {
    persist::put_str(buf, &object.source);
    persist::put_str(buf, &object.table);
    persist::put_str(buf, &object.accession);
}

fn object(cur: &mut persist::Cursor<'_>) -> Result<ObjectRef, RelError> {
    Ok(ObjectRef::new(cur.str()?, cur.str()?, cur.str()?))
}

const LINK_KINDS: [LinkKind; 5] = [
    LinkKind::ExplicitCrossRef,
    LinkKind::SequenceSimilarity,
    LinkKind::TextSimilarity,
    LinkKind::SharedTerm,
    LinkKind::Duplicate,
];

fn put_links(buf: &mut Vec<u8>, links: &[Link]) {
    persist::put_u32(buf, links.len() as u32);
    for link in links {
        put_object(buf, &link.from);
        put_object(buf, &link.to);
        let tag = LINK_KINDS.iter().position(|k| *k == link.kind);
        buf.push(tag.unwrap_or_else(|| unreachable!("every kind is listed")) as u8);
        persist::put_u64(buf, link.score.to_bits());
        persist::put_str(buf, &link.evidence);
    }
}

fn links(cur: &mut persist::Cursor<'_>) -> Result<Vec<Link>, RelError> {
    let n = cur.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let from = object(cur)?;
        let to = object(cur)?;
        let kind = *LINK_KINDS
            .get(usize::from(cur.u8()?))
            .ok_or_else(|| RelError::Durability("unknown link kind".into()))?;
        out.push(Link {
            from,
            to,
            kind,
            score: f64::from_bits(cur.u64()?),
            evidence: cur.str()?,
        });
    }
    Ok(out)
}

/// Encode a staged source's outcome, stamped with its commit event's
/// sequence number and the discovery-config fingerprint. Scores are stored
/// as their bits and evidence verbatim, so a loaded outcome is the
/// committed one exactly.
fn encode_outcome(discovered: &Discovered, stamp: u64, config: u64) -> Vec<u8> {
    let mut buf = vec![OUTCOME_TAG];
    persist::put_u64(&mut buf, stamp);
    persist::put_u64(&mut buf, config);
    put_links(&mut buf, &discovered.explicit_links);
    put_links(&mut buf, &discovered.implicit_links);
    put_links(&mut buf, &discovered.duplicate_links);
    persist::put_u32(&mut buf, discovered.failures.len() as u32);
    for f in &discovered.failures {
        for field in [&f.source, &f.pair, &f.step, &f.error] {
            persist::put_str(&mut buf, field);
        }
    }
    buf
}

/// A stored outcome read back from disk (its stamp travels beside it).
#[derive(Debug)]
struct StoredOutcome {
    /// [`discovery_fingerprint`] of the configuration that discovered it.
    config: u64,
    discovered: Discovered,
}

/// Read and decode a stored outcome (`.links` or `.links.next`) as
/// `(outcome, stamp)`. Any damage is a [`RelError::Durability`].
fn read_outcome(path: &Path) -> Result<(StoredOutcome, u64), RelError> {
    let bytes = persist::read_blob(path)?;
    let mut cur = persist::Cursor::new(&bytes);
    if cur.u8()? != OUTCOME_TAG {
        return Err(RelError::Durability("unknown outcome format".into()));
    }
    let stamp = cur.u64()?;
    let config = cur.u64()?;
    let explicit_links = links(&mut cur)?;
    let implicit_links = links(&mut cur)?;
    let duplicate_links = links(&mut cur)?;
    let n = cur.u32()? as usize;
    let mut failures = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        failures.push(PairFailure {
            source: cur.str()?,
            pair: cur.str()?,
            step: cur.str()?,
            error: cur.str()?,
        });
    }
    if cur.remaining() != 0 {
        return Err(RelError::Durability("trailing bytes after outcome".into()));
    }
    let discovered = Discovered {
        explicit_links,
        implicit_links,
        duplicate_links,
        failures,
        ..Discovered::default()
    };
    Ok((StoredOutcome { config, discovered }, stamp))
}

/// Encode one committed-sources event of the pipeline event log.
fn pipeline_event(names: &[String]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(1u8);
    persist::put_u32(&mut payload, names.len() as u32);
    for name in names {
        persist::put_str(&mut payload, name);
    }
    payload
}

/// Replay the pipeline event log into the list of active sources in
/// last-commit order, each with the sequence number of its last commit
/// event. Damage truncates the tail (reported, never fatal); an undecodable
/// record stops replay the same way.
#[allow(clippy::type_complexity)]
fn replay_pipeline_events(dir: &Path) -> Result<(Vec<(String, u64)>, Option<String>), RelError> {
    let replay = wal::replay(&dir.join("pipeline.wal"), 0)?;
    let mut active: Vec<(String, u64)> = Vec::new();
    let mut truncated = replay.truncated;
    'records: for record in &replay.records {
        let mut cur = persist::Cursor::new(&record.payload);
        let decoded = (|| -> Result<Vec<String>, RelError> {
            if cur.u8()? != 1 {
                return Err(RelError::Durability("unknown pipeline event tag".into()));
            }
            let n = cur.u32()? as usize;
            let mut names = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                names.push(cur.str()?);
            }
            Ok(names)
        })();
        match decoded {
            Ok(names) => {
                for name in names {
                    active.retain(|(a, _)| a != &name);
                    active.push((name, record.seq));
                }
            }
            Err(e) => {
                truncated = Some(format!(
                    "event record seq {} undecodable ({e}); tail ignored",
                    record.seq
                ));
                break 'records;
            }
        }
    }
    Ok((active, truncated))
}

/// The ALADIN warehouse and integration pipeline.
#[derive(Debug, Clone)]
pub struct Aladin {
    config: AladinConfig,
    warehouse: BTreeMap<String, Database>,
    metadata: MetadataRepository,
}

impl Aladin {
    /// Create an empty warehouse with the given configuration.
    pub fn new(config: AladinConfig) -> Aladin {
        Aladin {
            config,
            warehouse: BTreeMap::new(),
            metadata: MetadataRepository::new(),
        }
    }

    /// Create an empty warehouse with the default configuration.
    pub fn with_defaults() -> Aladin {
        Aladin::new(AladinConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &AladinConfig {
        &self.config
    }

    /// Replace the fault-injection configuration (the fault harness arms
    /// faults *after* an initial healthy integration this way; production
    /// configurations leave it inert).
    pub fn set_faults(&mut self, faults: FaultInjection) {
        self.config.faults = faults;
    }

    /// The metadata repository.
    pub fn metadata(&self) -> &MetadataRepository {
        &self.metadata
    }

    /// Mutable metadata access for the serving layer's resume path (fast-
    /// forwarding the generation counter past the recovery reset).
    pub(crate) fn metadata_mut(&mut self) -> &mut MetadataRepository {
        &mut self.metadata
    }

    /// Names of the integrated sources.
    pub fn source_names(&self) -> Vec<&str> {
        self.warehouse.keys().map(String::as_str).collect()
    }

    /// The imported database of a source.
    pub fn database(&self, source: &str) -> AladinResult<&Database> {
        self.warehouse
            .get(source)
            .ok_or_else(|| AladinError::UnknownSource(source.to_string()))
    }

    /// Number of integrated sources.
    pub fn source_count(&self) -> usize {
        self.warehouse.len()
    }

    /// Import and integrate a source given as raw files (step 1 + steps 2–5).
    /// Import honours the configured error budget and quarantines malformed
    /// records ([`AladinConfig::import_error_budget`]); the quarantine report
    /// lands in [`IntegrationReport::quarantined`].
    pub fn add_source_files(
        &mut self,
        source_name: &str,
        format: SourceFormat,
        files: &[(String, String)],
    ) -> AladinResult<IntegrationReport> {
        let start = Instant::now();
        let options = self.config.import_options();
        let (db, quarantine) = import_files_with(source_name, format, files, &options)?;
        let import_elapsed = start.elapsed();
        let rows = db.total_rows();
        let mut report = self.add_database(db)?;
        report.quarantined = quarantine.records().to_vec();
        report.step_timings.insert(
            0,
            StepTiming {
                output_count: rows,
                ..StepTiming::local(source_name, "import", import_elapsed)
            },
        );
        Ok(report)
    }

    /// Integrate an already-imported relational database (steps 2–5).
    /// Transactional: on failure the warehouse and the metadata repository
    /// are exactly as before the call.
    pub fn add_database(&mut self, db: Database) -> AladinResult<IntegrationReport> {
        let mut reports = self.add_databases(vec![db])?;
        reports
            .pop()
            .ok_or_else(|| AladinError::Discovery("batch produced no report".into()))
    }

    /// Integrate a batch of already-imported relational databases (steps 2–5
    /// for each), equivalent to calling [`Aladin::add_database`] for each in
    /// order. The source-local analysis (steps 2–3) of all new sources runs
    /// concurrently over [`AladinConfig::workers`] threads — the paper's
    /// observation that analysing a new source "does not involve data or
    /// metadata from other data sources" makes the batch embarrassingly
    /// parallel — while links and duplicates are still discovered and merged
    /// in input order, so the result is identical to sequential addition.
    ///
    /// Error handling follows [`AladinConfig::batch_policy`]. Under
    /// `FailFast` (the default) the batch is all-or-nothing: any failing
    /// source aborts the whole call with its error and the warehouse is left
    /// exactly as before. Under `ContinueOnError`, failing sources are
    /// quarantined and the call returns
    /// [`AladinError::PartialIntegration`] naming them — the healthy sources
    /// stay committed; use [`Aladin::add_databases_with`] to get the
    /// per-source outcomes instead of an error.
    pub fn add_databases(&mut self, dbs: Vec<Database>) -> AladinResult<Vec<IntegrationReport>> {
        self.add_databases_with(dbs, self.config.batch_policy)?
            .into_result()
    }

    /// Integrate a batch under an explicit error policy, reporting a
    /// [`SourceOutcome`] per input source.
    ///
    /// All mutations are staged per source and committed only once the fate
    /// of the batch is known: under [`BatchErrorPolicy::FailFast`] the first
    /// failing source aborts the call with its error and *nothing* is
    /// committed; under [`BatchErrorPolicy::ContinueOnError`] failing
    /// sources are quarantined ([`SourceOutcome::Quarantined`]) and every
    /// healthy source is integrated exactly as if the failing ones had not
    /// been in the batch.
    pub fn add_databases_with(
        &mut self,
        dbs: Vec<Database>,
        policy: BatchErrorPolicy,
    ) -> AladinResult<BatchReport> {
        // Reject name collisions (within the batch and against the
        // warehouse) before any work, regardless of policy: a collision is a
        // caller bug, not a source fault.
        let mut batch_names: BTreeSet<String> = BTreeSet::new();
        for db in &dbs {
            if self.warehouse.contains_key(db.name()) || !batch_names.insert(db.name().to_string())
            {
                return Err(AladinError::DuplicateSource(db.name().to_string()));
            }
        }

        let analyzed = self.analyze_all(&dbs);

        // Steps 4 + 5: stage each source in input order against the
        // committed warehouse plus the sources staged before it. Nothing is
        // committed yet.
        enum Slot {
            Staged,
            Failed(SourceFailure),
        }
        let mut staged: Vec<StagedSource> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(analyzed.len());
        for (db, analysis) in dbs.into_iter().zip(analyzed) {
            let name = db.name().to_string();
            let outcome = analysis.and_then(|(structure, elapsed)| {
                self.stage_source(db, structure, elapsed, &staged, None)
            });
            match outcome {
                Ok(s) => {
                    staged.push(s);
                    slots.push(Slot::Staged);
                }
                Err(error) => match policy {
                    BatchErrorPolicy::FailFast => return Err(error),
                    BatchErrorPolicy::ContinueOnError => {
                        slots.push(Slot::Failed(SourceFailure {
                            source: name,
                            error: Box::new(error),
                        }));
                    }
                },
            }
        }

        // Durability: before any in-memory commit, persist the staged
        // sources' snapshots and one event-log record naming them all, so a
        // crash after this point recovers the whole batch and a crash before
        // it recovers none of it (batch atomicity on disk mirrors the
        // in-memory staging contract).
        if !staged.is_empty() {
            if let Some(dir) = self.config.data_dir.clone() {
                self.persist_staged(&dir, &staged)?;
            }
        }

        // Commit phase: every staged source, in input order.
        let mut staged = staged.into_iter();
        let mut outcomes = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                Slot::Staged => {
                    let s = staged.next().ok_or_else(|| {
                        AladinError::Discovery("staged source missing at commit".into())
                    })?;
                    outcomes.push(SourceOutcome::Integrated(self.commit_staged(s)));
                }
                Slot::Failed(f) => outcomes.push(SourceOutcome::Quarantined(f)),
            }
        }
        Ok(BatchReport { outcomes })
    }

    /// Steps 2 + 3 for a batch: source-local analysis, one job per source
    /// over [`AladinConfig::workers`] threads, results in input order. A
    /// panicking analysis job is contained by the pool and becomes that
    /// source's error.
    fn analyze_all(&self, dbs: &[Database]) -> Vec<AladinResult<(SourceStructure, Duration)>> {
        let config = &self.config;
        run_jobs(config.workers, dbs.len(), |i| {
            analyze_with_faults(&dbs[i], config)
        })
        .into_iter()
        .zip(dbs)
        .map(|(result, db)| match result {
            Ok(inner) => inner,
            Err(p) => Err(AladinError::Discovery(format!(
                "analysis of source '{}' panicked: {}",
                db.name(),
                p.message
            ))),
        })
        .collect()
    }

    /// Steps 4–5 for one analysed source, computed against the committed
    /// warehouse plus the already-staged batch sources (minus `exclude`, used
    /// by [`Aladin::refresh_source`] to hide the stale version of the source
    /// being refreshed) — without mutating anything. Pair jobs run
    /// concurrently; outcomes are merged in source-name order, each
    /// outcome's links already being in a deterministic per-pair, per-row
    /// order, so staging a batch is indistinguishable from sequential
    /// addition. A pair job that panics (or is injected to panic) is
    /// contained: the pair is skipped and recorded as a [`PairFailure`]; a
    /// pair job that returns an error fails the whole source.
    fn stage_source(
        &self,
        db: Database,
        structure: SourceStructure,
        structure_elapsed: Duration,
        staged: &[StagedSource],
        exclude: Option<&str>,
    ) -> AladinResult<StagedSource> {
        let name = db.name().to_string();
        let config = &self.config;
        let empty = SourceStructure::default();
        let mut others: Vec<(&str, &Database, &SourceStructure)> = self
            .warehouse
            .iter()
            .filter(|(n, _)| Some(n.as_str()) != exclude)
            .map(|(n, d)| (n.as_str(), d, self.metadata.structure(n).unwrap_or(&empty)))
            .collect();
        for s in staged {
            others.push((s.report.source.as_str(), &s.db, &s.structure));
        }
        others.sort_by(|a, b| a.0.cmp(b.0));

        let results = run_jobs(config.workers, others.len(), |i| {
            let (other_name, other_db, other_structure) = others[i];
            if FaultInjection::pair_listed(&config.faults.panic_pairs, &name, other_name) {
                panic!("injected pair panic: {name} vs {other_name}");
            }
            if FaultInjection::pair_listed(&config.faults.fail_pairs, &name, other_name) {
                return Err(AladinError::Discovery(format!(
                    "injected pair failure: {name} vs {other_name}"
                )));
            }
            discover_against(&db, &structure, other_db, other_structure, config)
        });
        let mut outcomes: Vec<PairOutcome> = Vec::with_capacity(results.len());
        let mut failures: Vec<PairFailure> = Vec::new();
        for (result, (other_name, _, _)) in results.into_iter().zip(&others) {
            match result {
                Ok(Ok(outcome)) => outcomes.push(outcome),
                // A genuine discovery error fails the source (and, under
                // FailFast, the batch).
                Ok(Err(e)) => return Err(e),
                // A panic is contained: skip the pair, record the failure.
                Err(panic) => failures.push(PairFailure {
                    source: name.clone(),
                    pair: (*other_name).to_string(),
                    step: "link/duplicate discovery".to_string(),
                    error: panic.message,
                }),
            }
        }

        // Deterministic merge: outcomes arrive in warehouse (source-name)
        // order regardless of which worker finished first.
        let mut discovered = Discovered {
            failures,
            ..Discovered::default()
        };
        for outcome in outcomes {
            discovered.pairs_compared += outcome.pairs_compared;
            discovered.candidates_scored += outcome.candidates_scored;
            discovered.link_elapsed += outcome.link_elapsed;
            discovered.duplicate_elapsed += outcome.duplicate_elapsed;
            discovered.pair_timings.push(StepTiming {
                source: name.clone(),
                step: "link discovery".to_string(),
                pair: Some(outcome.other.clone()),
                elapsed: outcome.link_elapsed,
                output_count: outcome.explicit.len() + outcome.implicit.len(),
                pairs_compared: outcome.pairs_compared,
            });
            discovered.pair_timings.push(StepTiming {
                source: name.clone(),
                step: "duplicate detection".to_string(),
                pair: Some(outcome.other),
                elapsed: outcome.duplicate_elapsed,
                output_count: outcome.duplicates.len(),
                pairs_compared: outcome.candidates_scored,
            });
            discovered.explicit_links.extend(outcome.explicit);
            discovered.implicit_links.extend(outcome.implicit);
            discovered.duplicate_links.extend(outcome.duplicates);
        }
        Ok(StagedSource::assemble(
            db,
            structure,
            structure_elapsed,
            discovered,
        ))
    }

    /// Stage a recovered source from its stored outcome instead of running
    /// steps 4–5. Of the outcome it keeps the links, duplicates and pair
    /// failures whose other source is already committed: when sources are
    /// recovered in last-commit order, those are exactly the pairs that
    /// [`Aladin::stage_source`] would recompute. The rest were computed
    /// against a version of a source that was refreshed later, or that was
    /// lost.
    fn stage_stored(
        &self,
        db: Database,
        structure: SourceStructure,
        structure_elapsed: Duration,
        stored: Discovered,
    ) -> StagedSource {
        let name = db.name();
        let served = |source: &str| source == name || self.warehouse.contains_key(source);
        let keep = |links: Vec<Link>| -> Vec<Link> {
            links
                .into_iter()
                .filter(|l| served(&l.from.source) && served(&l.to.source))
                .collect()
        };
        let discovered = Discovered {
            explicit_links: keep(stored.explicit_links),
            implicit_links: keep(stored.implicit_links),
            duplicate_links: keep(stored.duplicate_links),
            failures: stored
                .failures
                .into_iter()
                .filter(|f| self.warehouse.contains_key(&f.pair))
                .collect(),
            ..Discovered::default()
        };
        StagedSource::assemble(db, structure, structure_elapsed, discovered)
    }

    /// Persist the staged sources of one batch. The pipeline event log is
    /// opened first, so the sequence number of the batch's commit event is
    /// known; it is tiny (one record per batch), and re-opening it on every
    /// commit keeps [`Aladin`] free of file handles and therefore `Clone`.
    /// Each source gets two checksummed files stamped with that sequence
    /// number, written beside the committed ones and fsync'd: its snapshot
    /// as `sources/<escaped>.snap.next`, and its outcome (explicit, implicit
    /// and duplicate links with their scores' bits and evidence, and its
    /// pair failures), tagged with the [`discovery_fingerprint`] of the
    /// configuration, as `sources/<escaped>.links.next`. Then one event
    /// naming them all is appended.
    ///
    /// The event is the commit point. Until it is durable every `.snap` and
    /// `.links` still holds the published version: on any failure the
    /// `.next` files are removed (best-effort) and the batch reports an
    /// [`AladinError::Durability`] without mutating the warehouse. Once it
    /// is durable the batch has committed, so nothing after it fails the
    /// call: each `.next` is renamed onto its committed path, and a `.next`
    /// left by a crash or a failed rename is rolled forward by
    /// [`Aladin::open`].
    fn persist_staged(&self, dir: &Path, staged: &[StagedSource]) -> AladinResult<()> {
        let sources_dir = dir.join("sources");
        std::fs::create_dir_all(&sources_dir).map_err(|e| {
            durability(
                "creating sources directory",
                RelError::Durability(e.to_string()),
            )
        })?;
        let (_, mut log) = Wal::recover(&dir.join("pipeline.wal"), 0)
            .map_err(|e| durability("opening pipeline event log", e))?;
        let seq = log.last_seq() + 1;
        let config = discovery_fingerprint(&self.config);
        let mut pending: Vec<(PathBuf, PathBuf)> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let outcome = (|| -> Result<(), AladinError> {
            for s in staged {
                let name = s.report.source.clone();
                let snapshot = sources_dir.join(source_file(&name, "snap"));
                let next = pending_path(&snapshot);
                pending.push((next.clone(), snapshot));
                persist::write_snapshot_at(&next, &s.db, seq)
                    .map_err(|e| durability(format!("writing snapshot for '{name}'"), e))?;
                let links = sources_dir.join(source_file(&name, "links"));
                let next = pending_path(&links);
                pending.push((next.clone(), links));
                persist::write_blob(&next, &encode_outcome(&s.discovered, seq, config))
                    .map_err(|e| durability(format!("writing outcome for '{name}'"), e))?;
                names.push(name);
            }
            log.append(&pipeline_event(&names))
                .map_err(|e| durability("appending pipeline commit event", e))?;
            Ok(())
        })();
        if outcome.is_err() {
            for (next, _) in &pending {
                let _ = std::fs::remove_file(next);
            }
            return outcome;
        }
        for (next, committed) in pending {
            let _ = std::fs::rename(next, committed);
        }
        Ok(())
    }

    /// Reopen a durable warehouse from [`AladinConfig::data_dir`]: replay the
    /// pipeline event log (truncating a torn tail), then recover every active
    /// source in last-commit order. Each source's committed snapshot is
    /// loaded and its steps 2–3, which are source-local, run again. Its
    /// links, duplicates and pair failures are loaded from its stored
    /// outcome, of which it keeps the pairs whose other source is already
    /// recovered, and it is committed through the same path as any
    /// integration. No pair job runs for a loaded source, so it records no
    /// per-pair [`StepTiming`]s; the whole recovery is recorded as one
    /// "cold-start recovery" timing.
    ///
    /// A source is rediscovered instead, against the sources recovered
    /// before it, and listed in [`PipelineRecovery::rediscovered`] when its
    /// stored outcome:
    /// - is missing or damaged (a store written before outcomes were stored
    ///   has none);
    /// - is stamped with a commit event other than the source's last one, or
    ///   other than its loaded snapshot's;
    /// - was written under a configuration that differs in any field but
    ///   `data_dir`, `workers` and `faults`;
    /// - holds pairs computed against an earlier source whose loaded
    ///   snapshot is not the version that source's last commit event wrote.
    ///
    /// A missing or corrupt snapshot loses that source — reported in
    /// [`PipelineRecovery::lost`] — never the whole warehouse.
    ///
    /// Roll-forward rule: a source's `.snap.next` or `.links.next` whose
    /// stamp equals the sequence number of the source's last replayed commit
    /// event was committed before a crash cut its rename short, so it is
    /// renamed onto `.snap` or `.links` and loaded. Every other `.next`
    /// never committed and is deleted.
    pub fn open(config: AladinConfig) -> AladinResult<(Aladin, PipelineRecovery)> {
        let start = Instant::now();
        let dir = config.data_dir.clone().ok_or_else(|| {
            durability(
                "opening durable warehouse",
                RelError::Durability("AladinConfig::data_dir is not set".into()),
            )
        })?;
        std::fs::create_dir_all(&dir).map_err(|e| {
            durability(
                "creating data directory",
                RelError::Durability(e.to_string()),
            )
        })?;
        let (active, truncated_events) = replay_pipeline_events(&dir)
            .map_err(|e| durability("replaying pipeline event log", e))?;
        let sources_dir = dir.join("sources");
        let mut recovery = PipelineRecovery {
            truncated_events,
            ..PipelineRecovery::default()
        };
        let fingerprint = discovery_fingerprint(&config);
        let mut dbs = Vec::new();
        // Per loaded source: whether its snapshot is the version its last
        // commit event wrote, and its stored outcome if that can be trusted.
        let mut stored: Vec<(bool, Option<Discovered>)> = Vec::new();
        let mut adopted: BTreeSet<PathBuf> = BTreeSet::new();
        for (name, seq) in active {
            let snapshot = sources_dir.join(source_file(&name, "snap"));
            let Some((db, snapshot_stamp)) =
                read_committed(&snapshot, seq, &mut adopted, persist::read_snapshot)
            else {
                recovery.lost.push(name);
                continue;
            };
            let links = sources_dir.join(source_file(&name, "links"));
            let outcome = read_committed(&links, seq, &mut adopted, read_outcome)
                .filter(|(outcome, stamp)| {
                    *stamp == seq && *stamp == snapshot_stamp && outcome.config == fingerprint
                })
                .map(|(outcome, _)| outcome.discovered);
            dbs.push(db);
            stored.push((snapshot_stamp == seq, outcome));
        }
        if let Ok(entries) = std::fs::read_dir(&sources_dir) {
            for path in entries.filter_map(|entry| entry.ok().map(|e| e.path())) {
                if path.extension().is_some_and(|ext| ext == "next") && !adopted.contains(&path) {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        // Recover with persistence off: the snapshots, outcomes and events
        // being replayed are already on disk, re-logging them would
        // duplicate the history. `data_dir` is restored afterwards so later
        // commits persist normally.
        let mut offline = config.clone();
        offline.data_dir = None;
        let mut aladin = Aladin::new(offline);
        let analyses = aladin.analyze_all(&dbs);
        // Whether every source recovered so far is the version its last
        // commit event wrote: the stored pairs of later sources were
        // computed against those versions.
        let mut current = true;
        for ((db, (snapshot_current, outcome)), analysis) in
            dbs.into_iter().zip(stored).zip(analyses)
        {
            let name = db.name().to_string();
            let outcome = outcome.filter(|_| current);
            let rediscover = outcome.is_none();
            let staged = analysis.and_then(|(structure, elapsed)| match outcome {
                Some(outcome) => Ok(aladin.stage_stored(db, structure, elapsed, outcome)),
                None => aladin.stage_source(db, structure, elapsed, &[], None),
            });
            match staged {
                Ok(staged) => {
                    aladin.commit_staged(staged);
                    if rediscover {
                        recovery.rediscovered.push(name.clone());
                    }
                    recovery.recovered.push(name);
                    current &= snapshot_current;
                }
                Err(_) => recovery.lost.push(name),
            }
        }
        aladin.config.data_dir = config.data_dir;
        recovery.elapsed = start.elapsed();
        aladin.metadata.add_timing(StepTiming::local(
            "warehouse",
            "cold-start recovery",
            recovery.elapsed,
        ));
        Ok((aladin, recovery))
    }

    /// Apply one staged source to the metadata repository and the warehouse.
    /// This is the only place integration mutates `self`, and it cannot fail:
    /// everything fallible happened during staging.
    fn commit_staged(&mut self, staged: StagedSource) -> IntegrationReport {
        let StagedSource {
            db,
            structure,
            structure_timing,
            discovered,
            report,
        } = staged;
        self.metadata.add_timing(structure_timing);
        for timing in discovered.pair_timings {
            self.metadata.add_timing(timing);
        }
        self.metadata.put_structure(structure);
        self.metadata.add_links(discovered.explicit_links);
        self.metadata.add_links(discovered.implicit_links);
        self.metadata.add_duplicates(discovered.duplicate_links);
        for failure in discovered.failures {
            self.metadata.add_failure(failure);
        }
        self.warehouse.insert(report.source.clone(), db);
        report
    }

    /// The per-step, per-pair metrics report over everything integrated so
    /// far (see [`PipelineMetrics`]).
    pub fn metrics(&self) -> PipelineMetrics {
        self.metadata.metrics()
    }

    /// Handle a changed source (Section 6.2's maintenance discussion): if the
    /// fraction of changed rows is below 0.1 the update is deferred (returns
    /// `None`); otherwise the source is fully re-integrated (returns the new
    /// report).
    ///
    /// Transactional: the new version is analysed and staged against the
    /// warehouse *minus* the stale version first, and the stale version is
    /// swapped out only once staging has succeeded. A failed refresh
    /// therefore leaves the warehouse and the metadata repository — including
    /// the previous version of the source — exactly as before the call.
    pub fn refresh_source(
        &mut self,
        db: Database,
        changed_fraction: f64,
    ) -> AladinResult<Option<IntegrationReport>> {
        let name = db.name().to_string();
        if !self.warehouse.contains_key(&name) {
            return Err(AladinError::UnknownSource(name));
        }
        if changed_fraction < REFRESH_CHANGE_THRESHOLD {
            return Ok(None);
        }
        let (structure, elapsed) = self
            .analyze_all(std::slice::from_ref(&db))
            .pop()
            .unwrap_or_else(|| unreachable!("one source yields one analysis"))?;
        let staged = self.stage_source(db, structure, elapsed, &[], Some(&name))?;
        // Durability: commit the new version on disk before swapping in
        // memory, so a crash during the swap recovers the refreshed version.
        if let Some(dir) = self.config.data_dir.clone() {
            self.persist_staged(&dir, std::slice::from_ref(&staged))?;
        }
        // Staging succeeded — only now retire the stale version.
        self.warehouse.remove(&name);
        self.metadata.remove_source(&name);
        Ok(Some(self.commit_staged(staged)))
    }

    /// All primary objects of a source as object references.
    pub fn objects_of(&self, source: &str) -> AladinResult<Vec<ObjectRef>> {
        let db = self.database(source)?;
        let structure = self
            .metadata
            .structure(source)
            .ok_or_else(|| AladinError::UnknownSource(source.to_string()))?;
        let mut out = Vec::new();
        for primary in &structure.primary_relations {
            let table = db.table(&primary.table)?;
            let idx = table.column_index(&primary.accession_column)?;
            for row in table.rows() {
                let v = &row[idx];
                if !v.is_null() {
                    out.push(ObjectRef::new(source, primary.table.clone(), v.render()));
                }
            }
        }
        Ok(out)
    }

    /// Total number of discovered links (excluding duplicates).
    pub fn link_count(&self) -> usize {
        self.metadata.links().len()
    }

    /// Total number of discovered duplicate links.
    pub fn duplicate_count(&self) -> usize {
        self.metadata.duplicates().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        db.create_table(
            "protkb_dr",
            TableSchema::of(vec![
                ColumnDef::int("dr_id"),
                ColumnDef::int("entry_id"),
                ColumnDef::text("value"),
            ]),
        )
        .unwrap();
        for (i, desc) in [
            "serine kinase involved in signalling",
            "membrane transporter for glucose",
            "ribosomal assembly factor",
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
        for (id, entry, v) in [
            (1, 1, "STRUCTDB; 1ABC"),
            (2, 2, "STRUCTDB; 2DEF"),
            (3, 3, "STRUCTDB; 3GHI"),
        ] {
            db.insert(
                "protkb_dr",
                vec![Value::Int(id), Value::Int(entry), Value::text(v)],
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
        db.create_table(
            "chains",
            TableSchema::of(vec![
                ColumnDef::int("chain_id"),
                ColumnDef::text("structure_id"),
            ]),
        )
        .unwrap();
        for (acc, title) in [
            ("1ABC", "structure of a serine kinase"),
            ("2DEF", "structure of a glucose transporter"),
            ("3GHI", "structure of a ribosomal factor"),
        ] {
            db.insert("structures", vec![Value::text(acc), Value::text(title)])
                .unwrap();
        }
        for (id, acc) in [(1, "1ABC"), (2, "2DEF"), (3, "3GHI")] {
            db.insert("chains", vec![Value::Int(id), Value::text(acc)])
                .unwrap();
        }
        db
    }

    fn config() -> AladinConfig {
        AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        }
    }

    #[test]
    fn analyze_database_detects_structure() {
        let structure = analyze_database(&protkb(), &config()).unwrap();
        assert_eq!(structure.primary_relations.len(), 1);
        assert_eq!(structure.primary_relations[0].table, "protkb_entry");
        assert_eq!(structure.primary_relations[0].accession_column, "ac");
        assert_eq!(structure.secondary_relations.len(), 1);
        assert!(!structure.relationships.is_empty());
        assert!(!structure.column_stats.is_empty());
    }

    #[test]
    fn adding_two_sources_discovers_cross_references() {
        let mut aladin = Aladin::new(config());
        let r1 = aladin.add_database(protkb()).unwrap();
        assert_eq!(r1.explicit_links, 0); // nothing to link against yet
        assert_eq!(r1.primary_relations.len(), 1);

        let r2 = aladin.add_database(structdb()).unwrap();
        assert!(r2.explicit_links >= 3, "found {}", r2.explicit_links);
        assert!(aladin.link_count() >= 3);
        assert_eq!(aladin.source_count(), 2);
        assert!(r2.total_elapsed() > Duration::ZERO);
        assert!(!aladin.metadata().timings().is_empty());
    }

    #[test]
    fn duplicate_source_names_are_rejected() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        let err = aladin.add_database(protkb()).unwrap_err();
        assert!(matches!(err, AladinError::DuplicateSource(_)));
    }

    #[test]
    fn objects_of_lists_primary_objects() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        let objects = aladin.objects_of("protkb").unwrap();
        assert_eq!(objects.len(), 3);
        assert!(objects.iter().any(|o| o.accession == "P10001"));
        assert!(aladin.objects_of("missing").is_err());
    }

    #[test]
    fn refresh_defers_small_changes_and_reintegrates_large_ones() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        aladin.add_database(structdb()).unwrap();
        let links_before = aladin.link_count();

        // Small change: deferred.
        let outcome = aladin.refresh_source(protkb(), 0.01).unwrap();
        assert!(outcome.is_none());
        assert_eq!(aladin.link_count(), links_before);

        // Large change: re-integrated, links recomputed.
        let outcome = aladin.refresh_source(protkb(), 0.5).unwrap();
        assert!(outcome.is_some());
        assert!(aladin.link_count() >= 3);
        assert_eq!(aladin.source_count(), 2);

        // The threshold is 0.1: just below defers, 0.1 itself re-integrates.
        assert!(aladin.refresh_source(protkb(), 0.0999).unwrap().is_none());
        assert!(aladin.refresh_source(protkb(), 0.1).unwrap().is_some());

        // Refreshing an unknown source is an error.
        assert!(aladin.refresh_source(Database::new("nope"), 1.0).is_err());
    }

    #[test]
    fn a_mid_batch_failure_commits_nothing_under_fail_fast() {
        let mut cfg = config();
        cfg.faults.fail_analysis.push("structdb".into());
        let mut aladin = Aladin::new(cfg);
        let generation = aladin.metadata().generation();
        let err = aladin
            .add_databases(vec![protkb(), structdb()])
            .unwrap_err();
        assert!(err.to_string().contains("injected analysis failure"));
        // All-or-nothing: the healthy first source was not stranded in the
        // warehouse by the failure of the second.
        assert_eq!(aladin.source_count(), 0);
        assert!(aladin.metadata().structure("protkb").is_none());
        assert_eq!(aladin.metadata().generation(), generation);
    }

    #[test]
    fn continue_on_error_quarantines_only_the_failing_source() {
        let mut cfg = config();
        cfg.faults.fail_analysis.push("protkb".into());
        let mut aladin = Aladin::new(cfg);
        let report = aladin
            .add_databases_with(
                vec![protkb(), structdb()],
                BatchErrorPolicy::ContinueOnError,
            )
            .unwrap();
        assert!(!report.is_complete());
        let failure = report.quarantined().next().unwrap();
        assert_eq!(failure.source, "protkb");
        assert!(failure.error.to_string().contains("injected"));
        assert_eq!(report.integrated().count(), 1);
        assert_eq!(aladin.source_count(), 1);
        assert!(aladin.database("structdb").is_ok());
        assert!(aladin.database("protkb").is_err());

        // The classic API surfaces the same outcome as PartialIntegration.
        let mut cfg = config().with_batch_policy(BatchErrorPolicy::ContinueOnError);
        cfg.faults.fail_analysis.push("protkb".into());
        let mut aladin = Aladin::new(cfg);
        let err = aladin
            .add_databases(vec![protkb(), structdb()])
            .unwrap_err();
        assert!(matches!(err, AladinError::PartialIntegration { .. }));
        assert_eq!(aladin.source_count(), 1);
    }

    #[test]
    fn source_without_accession_candidate_is_tolerated() {
        let mut db = Database::new("weird");
        db.create_table(
            "numbers",
            TableSchema::of(vec![ColumnDef::int("a"), ColumnDef::int("b")]),
        )
        .unwrap();
        db.insert("numbers", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let mut aladin = Aladin::new(config());
        let report = aladin.add_database(db).unwrap();
        assert!(report.primary_relations.is_empty());
        assert_eq!(aladin.source_count(), 1);
    }
}
