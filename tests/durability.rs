//! Durability suite: end-to-end crash-recovery behaviour of the integration
//! pipeline and serving layer. A durable `Aladin` (configured with a data
//! directory) persists every committed source with its discovered links;
//! `Aladin::open` must rebuild the published warehouse from disk, loading
//! those links rather than rediscovering them, `Server::resume` must pick
//! up the last published generation, and injected damage must cost at most
//! the tail of the pipeline event log, the damaged source's snapshot, or a
//! rediscovery of the source whose stored links were damaged — never a
//! panic, never a refusal to start.

use aladin::core::{
    Aladin, AladinConfig, BatchErrorPolicy, Link, PipelineRecovery, ServeConfig, Server,
    SourceStructure, Warehouse,
};
use aladin::datagen::{
    duplicate_last_wal_record, flip_wal_byte, swap_last_two_wal_records, truncate_wal_mid_record,
    Corpus, CorpusConfig,
};
use aladin::relstore::{persist, wal, ColumnDef, Database, TableSchema, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "aladin-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig::small(42))
}

/// Integrate every corpus source into a durable pipeline rooted at `dir`.
fn integrate_durable(corpus: &Corpus, dir: &PathBuf) -> Aladin {
    let mut aladin = Aladin::new(AladinConfig::default().with_data_dir(dir));
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .unwrap_or_else(|e| panic!("failed to integrate {}: {e}", dump.name));
    }
    aladin
}

/// Everything observable about the integrated state, minus wall-clock
/// timings (see `pipeline_faults.rs`).
type Fingerprint = (Vec<String>, Vec<Link>, Vec<Link>, Vec<SourceStructure>);

fn fingerprint(aladin: &Aladin) -> Fingerprint {
    let sources: Vec<String> = aladin
        .source_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let structures: Vec<SourceStructure> = sources
        .iter()
        .filter_map(|s| aladin.metadata().structure(s).cloned())
        .collect();
    (
        sources,
        aladin.metadata().links().to_vec(),
        aladin.metadata().duplicates().to_vec(),
        structures,
    )
}

#[test]
fn reopened_pipeline_answers_identically_to_the_original() {
    let corpus = corpus();
    let dir = temp_dir("reopen");
    let live = integrate_durable(&corpus, &dir);
    let expected = fingerprint(&live);
    drop(live);

    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert!(recovery.truncated_events.is_none());
    assert_eq!(
        recovery.recovered.len(),
        corpus.sources.len(),
        "every committed source must be recovered"
    );
    assert_eq!(recovery.rediscovered, Vec::<String>::new());
    assert_eq!(fingerprint(&reopened), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_server_continues_at_the_published_generation() {
    let corpus = corpus();
    let dir = temp_dir("resume");
    let live = integrate_durable(&corpus, &dir);
    let server = Server::start(live, ServeConfig::default()).unwrap();
    let generation = server.snapshot().generation();
    drop(server);

    // Markers of older versions list the published sources after the
    // generation; the reader stops after the generation, so they still
    // resume at it.
    let legacy_generation = generation + 100;
    let mut legacy = Vec::new();
    persist::put_u64(&mut legacy, legacy_generation);
    persist::put_u32(&mut legacy, corpus.sources.len() as u32);
    for dump in &corpus.sources {
        persist::put_str(&mut legacy, &dump.name);
    }
    for (marker, expected) in [(None, generation), (Some(legacy), legacy_generation)] {
        if let Some(blob) = marker {
            persist::write_blob(&dir.join("GENERATION"), &blob).unwrap();
        }
        let (resumed, recovery) = Server::resume(
            AladinConfig::default().with_data_dir(&dir),
            ServeConfig::default(),
        )
        .unwrap();
        assert_eq!(recovery.lost, Vec::<String>::new());
        assert_eq!(resumed.resumed_generation(), Some(expected));
        assert!(
            resumed.snapshot().generation() >= expected,
            "a resumed server must never publish a generation below the marker"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicated_commit_event_is_skipped_on_recovery() {
    let corpus = corpus();
    let dir = temp_dir("dup-event");
    drop(integrate_durable(&corpus, &dir));

    duplicate_last_wal_record(&dir.join("pipeline.wal")).unwrap();
    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.recovered.len(), corpus.sources.len());
    assert_eq!(reopened.source_names().len(), corpus.sources.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// A named way of damaging one file of a store.
type Damage = (&'static str, fn(&Path));

#[test]
fn torn_pipeline_event_log_loses_at_most_the_tail_commit() {
    let corpus = corpus();
    let dir = temp_dir("torn-event");
    drop(integrate_durable(&corpus, &dir));

    let damages: [Damage; 2] = [
        ("torn", |log| {
            truncate_wal_mid_record(log).unwrap();
        }),
        // Media rot inside the final commit event: its checksum fails.
        ("flipped", |log| {
            let spans = wal::frame_spans(log).unwrap();
            let (offset, len) = spans[spans.len() - 1];
            flip_wal_byte(log, offset + len / 2).unwrap();
        }),
    ];
    for (what, damage) in damages {
        let store = temp_dir(what);
        copy_store(&dir, &store);
        damage(&store.join("pipeline.wal"));
        let (reopened, recovery) = reopen(&store);
        assert!(
            recovery.truncated_events.is_some(),
            "a {what} event log must be reported"
        );
        // Exactly the final commit event is damaged; everything before it
        // survives. Each source was committed by its own event, so only
        // the last one is gone, and no stored outcome is distrusted.
        assert_eq!(recovery.recovered.len(), corpus.sources.len() - 1);
        assert_eq!(reopened.source_names().len(), corpus.sources.len() - 1);
        let mut names = source_names(&corpus);
        let last = names.pop().unwrap();
        assert_eq!(recovery.recovered, names, "{what} event log");
        assert!(reopened.database(&last).is_err(), "{what} event log");
        assert_eq!(recovery.lost, Vec::<String>::new(), "{what} event log");
        assert_eq!(
            recovery.rediscovered,
            Vec::<String>::new(),
            "{what} event log"
        );
        assert!(
            fingerprint(&reopened) == fingerprint(&reintegrated(&store, &recovery)),
            "{what} event log"
        );
        std::fs::remove_dir_all(&store).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reordered_pipeline_event_log_never_panics_and_keeps_the_intact_prefix() {
    let corpus = corpus();
    let dir = temp_dir("swap-event");
    drop(integrate_durable(&corpus, &dir));

    swap_last_two_wal_records(&dir.join("pipeline.wal")).unwrap();
    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert!(
        recovery.truncated_events.is_some(),
        "an out-of-order event log must be reported"
    );
    // Replay stops at the first out-of-order record: the two swapped tail
    // commits are dropped, the prefix survives.
    assert_eq!(recovery.recovered.len(), corpus.sources.len() - 2);
    assert_eq!(reopened.source_names().len(), corpus.sources.len() - 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Order-insensitive form of a fingerprint: a refresh (and the
/// last-commit-order replay of recovery) may re-discover the same links and
/// structures in a different order, so compare them as sorted debug strings.
fn canonical(fp: &Fingerprint) -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
    fn sorted<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
        let mut out: Vec<String> = items.iter().map(|i| format!("{i:?}")).collect();
        out.sort();
        out
    }
    (sorted(&fp.0), sorted(&fp.1), sorted(&fp.2), sorted(&fp.3))
}

#[test]
fn refresh_persists_the_new_version_of_a_source() {
    let corpus = corpus();
    let dir = temp_dir("refresh");
    let mut live = integrate_durable(&corpus, &dir);

    // Re-import the first source's dump and refresh it in place, then
    // recover from disk: the reopened warehouse must describe exactly the
    // refreshed state (order-insensitively — recovery replays sources in
    // last-commit order, which moves the refreshed source to the end).
    let dump = &corpus.sources[0];
    let db = aladin::import::import_files(&dump.name, dump.format, &dump.files).unwrap();
    live.refresh_source(db, 1.0).unwrap();
    let after = canonical(&fingerprint(&live));
    drop(live);

    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(canonical(&fingerprint(&reopened)), after);
    std::fs::remove_dir_all(&dir).ok();
}

/// The corpus source at `index`, re-imported with one table emptied: a
/// release whose published and refreshed versions differ.
fn release_with_an_emptied_table(corpus: &Corpus, index: usize) -> Database {
    let dump = &corpus.sources[index];
    let mut db = aladin::import::import_files(&dump.name, dump.format, &dump.files).unwrap();
    let table = db.table_names()[0].to_string();
    db.table_mut(&table).unwrap().retain(|_| false);
    db
}

/// Every `.next` file left in the store's `sources/` directory.
fn pending_snapshots(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir.join("sources"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "next"))
        .collect()
}

/// The snapshot file of a source (corpus source names need no escaping).
fn snapshot_of(dir: &Path, source: &str) -> PathBuf {
    dir.join("sources").join(format!("{source}.snap"))
}

/// The stored-outcome file of a source: its links, duplicates and pair
/// failures.
fn outcome_of(dir: &Path, source: &str) -> PathBuf {
    dir.join("sources").join(format!("{source}.links"))
}

#[test]
fn a_refresh_whose_commit_event_fails_is_not_what_recovery_serves() {
    let corpus = corpus();
    let dir = temp_dir("failed-append");
    let mut live = integrate_durable(&corpus, &dir);
    let published = canonical(&fingerprint(&live));

    // The event log cannot be appended to: a directory stands in its place.
    let log = dir.join("pipeline.wal");
    let aside = dir.join("pipeline.wal.aside");
    std::fs::rename(&log, &aside).unwrap();
    std::fs::create_dir(&log).unwrap();
    let release = release_with_an_emptied_table(&corpus, 0);
    assert!(live.refresh_source(release, 1.0).is_err());
    assert!(canonical(&fingerprint(&live)) == published);
    drop(live);

    std::fs::remove_dir(&log).unwrap();
    std::fs::rename(&aside, &log).unwrap();
    assert_eq!(pending_snapshots(&dir), Vec::<PathBuf>::new());
    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.rediscovered, Vec::<String>::new());
    assert!(
        canonical(&fingerprint(&reopened)) == published,
        "recovery must serve the published version, not the uncommitted refresh"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_durable_commit_event_rolls_its_snapshot_forward() {
    let corpus = corpus();
    let dir = temp_dir("roll-forward");
    let mut live = integrate_durable(&corpus, &dir);
    let first = &corpus.sources[0].name;
    let published = std::fs::read(snapshot_of(&dir, first)).unwrap();
    let published_links = std::fs::read(outcome_of(&dir, first)).unwrap();
    let release = release_with_an_emptied_table(&corpus, 0);
    let refreshed_rows = release.total_rows();
    live.refresh_source(release, 1.0).unwrap();
    let refreshed = canonical(&fingerprint(&live));
    drop(live);

    // Build the state of a crash after the commit event but before the
    // rename: the refreshed version waits in `.next`, the published one
    // still sits in `.snap`. Another source carries a stale `.next` whose
    // stamp matches no commit event.
    // The same holds for the refresh's stored outcome: it waits in
    // `.links.next`, the published one sits in `.links`.
    let snap = snapshot_of(&dir, first);
    let next = snap.with_extension("snap.next");
    std::fs::rename(&snap, &next).unwrap();
    std::fs::write(&snap, &published).unwrap();
    let links = outcome_of(&dir, first);
    std::fs::rename(&links, links.with_extension("links.next")).unwrap();
    std::fs::write(&links, &published_links).unwrap();
    let second = &corpus.sources[1].name;
    let stale = snapshot_of(&dir, second).with_extension("snap.next");
    let release = release_with_an_emptied_table(&corpus, 1);
    persist::write_snapshot_at(&stale, &release, u64::MAX).unwrap();
    // An intact outcome stamped with another commit than the second
    // source's last one: the first source's published outcome.
    let stale_links = outcome_of(&dir, second).with_extension("links.next");
    std::fs::write(&stale_links, &published_links).unwrap();
    // A kill inside the atomic write of a third source's `.next` files
    // leaves their half-written temp files behind.
    let third = &corpus.sources[2].name;
    let interrupted = dir.join("sources").join(format!(".tmp-{third}.snap.next"));
    std::fs::write(&interrupted, &published[..published.len() / 2]).unwrap();
    let interrupted_links = dir.join("sources").join(format!(".tmp-{third}.links.next"));
    std::fs::write(
        &interrupted_links,
        &published_links[..published_links.len() / 2],
    )
    .unwrap();

    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.rediscovered, Vec::<String>::new());
    assert!(
        canonical(&fingerprint(&reopened)) == refreshed,
        "recovery must serve the committed refresh"
    );
    assert_eq!(pending_snapshots(&dir), Vec::<PathBuf>::new());
    assert!(
        !interrupted.exists() && !interrupted_links.exists(),
        "an interrupted write's temp file survived"
    );
    let (at_rest, _) = persist::read_snapshot(&snap).unwrap();
    assert_eq!(at_rest.total_rows(), refreshed_rows);
    assert_ne!(std::fs::read(&links).unwrap(), published_links);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_source_snapshot_loses_only_that_source() {
    let corpus = corpus();
    let dir = temp_dir("corrupt-snapshot");
    drop(integrate_durable(&corpus, &dir));

    // Media rot in the middle of one source's snapshot, a torn write of
    // another's.
    let flipped = corpus.sources[0].name.clone();
    let torn = corpus.sources[1].name.clone();
    let path = snapshot_of(&dir, &flipped);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let path = snapshot_of(&dir, &torn);
    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    let damaged: BTreeSet<String> = [flipped, torn].into_iter().collect();
    let lost: BTreeSet<String> = recovery.lost.iter().cloned().collect();
    assert_eq!(lost, damaged);
    assert_eq!(recovery.lost.len(), damaged.len());
    let intact: BTreeSet<String> = corpus
        .sources
        .iter()
        .map(|dump| dump.name.clone())
        .filter(|name| !damaged.contains(name))
        .collect();
    let recovered: BTreeSet<String> = recovery.recovered.iter().cloned().collect();
    assert_eq!(recovered, intact);
    let served: BTreeSet<String> = reopened
        .source_names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    assert_eq!(served, intact);

    // No row of a damaged source is served, as an object or a link endpoint.
    for name in &damaged {
        assert!(reopened.database(name).is_err(), "{name} is still served");
    }
    let warehouse = Warehouse::from_aladin(reopened);
    let objects = warehouse.scan().fetch().unwrap();
    assert!(!objects.is_empty());
    for record in &objects {
        assert!(!damaged.contains(&record.object.source));
    }
    let metadata = warehouse.metadata();
    for link in metadata.links().iter().chain(metadata.duplicates()) {
        assert!(!damaged.contains(&link.from.source) && !damaged.contains(&link.to.source));
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn reopen(dir: &Path) -> (Aladin, PipelineRecovery) {
    Aladin::open(AladinConfig::default().with_data_dir(dir)).unwrap()
}

fn source_names(corpus: &Corpus) -> Vec<String> {
    corpus
        .sources
        .iter()
        .map(|dump| dump.name.clone())
        .collect()
}

/// The oracle of a reopen: the recovered sources' snapshots re-integrated
/// in memory, in recovery order.
fn reintegrated(dir: &Path, recovery: &PipelineRecovery) -> Aladin {
    let dbs = recovery
        .recovered
        .iter()
        .map(|name| persist::read_snapshot(&snapshot_of(dir, name)).unwrap().0)
        .collect();
    let mut aladin = Aladin::new(AladinConfig::default());
    aladin.add_databases(dbs).unwrap();
    aladin
}

/// Copy a store (its files and its `sources/` directory) to `to`.
fn copy_store(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        if path.is_dir() {
            std::fs::create_dir_all(&target).unwrap();
            copy_store(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

fn flip_middle_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn reopening_with_every_pair_armed_to_panic_runs_no_discovery() {
    let corpus = corpus();
    let dir = temp_dir("no-discovery");
    let expected = fingerprint(&integrate_durable(&corpus, &dir));

    // Every pair job panics if it runs, so any discovery shows as a pair
    // failure and a missing pair of links.
    let names = source_names(&corpus);
    let mut config = AladinConfig::default().with_data_dir(&dir);
    for a in &names {
        for b in names.iter().filter(|b| *b != a) {
            config.faults.panic_pairs.push((a.clone(), b.clone()));
        }
    }
    let (reopened, recovery) = Aladin::open(config).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.rediscovered, Vec::<String>::new());
    assert_eq!(recovery.recovered, names);
    assert_eq!(reopened.metadata().failures(), &[]);
    assert_eq!(fingerprint(&reopened), expected);
    // Loaded sources record no per-pair timings.
    let metrics = reopened.metrics();
    assert_eq!(metrics.pair_timings("link discovery").count(), 0);
    assert_eq!(metrics.pair_timings("duplicate detection").count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_outcome_file_rediscovers_only_its_source() {
    let corpus = corpus();
    let dir = temp_dir("damaged-outcome");
    let expected = fingerprint(&integrate_durable(&corpus, &dir));

    let damages: [Damage; 3] = [
        ("deleted", |path| std::fs::remove_file(path).unwrap()),
        ("bit-flipped", flip_middle_byte),
        ("truncated", |path| {
            let len = std::fs::metadata(path).unwrap().len();
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            file.set_len(len / 2).unwrap();
        }),
    ];
    for (i, (what, damage)) in damages.into_iter().enumerate() {
        let store = temp_dir(what);
        copy_store(&dir, &store);
        // Sources after the first have pairs to rediscover.
        let source = corpus.sources[i + 1].name.clone();
        damage(&outcome_of(&store, &source));
        let (reopened, recovery) = reopen(&store);
        assert_eq!(recovery.lost, Vec::<String>::new(), "{what} outcome");
        assert_eq!(recovery.rediscovered, vec![source], "{what} outcome");
        assert!(fingerprint(&reopened) == expected, "{what} outcome");
        std::fs::remove_dir_all(&store).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_error_policy_change_still_loads_the_stored_outcomes() {
    let corpus = corpus();
    let dir = temp_dir("error-policy");
    // Written under the default policy: fail fast, no error budget.
    let published = fingerprint(&integrate_durable(&corpus, &dir));

    let tolerant = AladinConfig::default()
        .with_batch_policy(BatchErrorPolicy::ContinueOnError)
        .with_import_error_budget(100)
        .with_data_dir(&dir);
    let (reopened, recovery) = Aladin::open(tolerant).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.rediscovered, Vec::<String>::new());
    assert_eq!(recovery.recovered, source_names(&corpus));
    assert!(fingerprint(&reopened) == published);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_changed_discovery_config_rediscovers_every_source() {
    let corpus = corpus();
    let dir = temp_dir("changed-config");
    let published = fingerprint(&integrate_durable(&corpus, &dir));

    let changed = AladinConfig {
        text_link_threshold: 0.5,
        ..AladinConfig::default()
    };
    let (reopened, recovery) = Aladin::open(changed.clone().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.rediscovered, source_names(&corpus));
    let mut fresh = Aladin::new(changed);
    for dump in &corpus.sources {
        fresh
            .add_source_files(&dump.name, dump.format, &dump.files)
            .unwrap();
    }
    assert!(fingerprint(&reopened) == fingerprint(&fresh));
    assert!(
        fingerprint(&reopened) != published,
        "the changed field must change what is discovered"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_staged_snapshot_is_never_paired_with_its_newer_outcome() {
    let corpus = corpus();
    let dir = temp_dir("damaged-next");
    let mut live = integrate_durable(&corpus, &dir);
    let (first, second) = (&corpus.sources[0].name, &corpus.sources[1].name);
    let published = std::fs::read(snapshot_of(&dir, first)).unwrap();
    let published_rows = live.database(first).unwrap().total_rows();
    live.refresh_source(release_with_an_emptied_table(&corpus, 0), 1.0)
        .unwrap();
    // A later commit of a second source: its stored pairs with the first
    // were computed against the refreshed version.
    live.refresh_source(release_with_an_emptied_table(&corpus, 1), 1.0)
        .unwrap();
    drop(live);

    // The first refresh's renames never happened, and its staged snapshot
    // rotted after its commit event was durable: `.snap` holds the
    // published version, `.snap.next` is damaged, and `.links` holds the
    // refresh's outcome.
    let snap = snapshot_of(&dir, first);
    let next = snap.with_extension("snap.next");
    std::fs::rename(&snap, &next).unwrap();
    std::fs::write(&snap, &published).unwrap();
    flip_middle_byte(&next);

    let (reopened, recovery) = reopen(&dir);
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(
        reopened.database(first).unwrap().total_rows(),
        published_rows
    );
    assert_eq!(recovery.rediscovered, vec![first.clone(), second.clone()]);
    assert!(fingerprint(&reopened) == fingerprint(&reintegrated(&dir, &recovery)));
    assert_eq!(pending_snapshots(&dir), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_without_outcome_files_opens_to_the_same_state() {
    let corpus = corpus();
    let dir = temp_dir("no-outcomes");
    let expected = fingerprint(&integrate_durable(&corpus, &dir));

    // A store written before outcomes were stored holds snapshots only.
    let names = source_names(&corpus);
    for name in &names {
        std::fs::remove_file(outcome_of(&dir, name)).unwrap();
    }
    let (reopened, recovery) = reopen(&dir);
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert_eq!(recovery.rediscovered, names);
    assert!(fingerprint(&reopened) == expected);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Model-based: random operation sequences against the live pipeline
// ---------------------------------------------------------------------------

/// Descriptions the hand-built sources share, so text links connect them.
const DESCRIPTIONS: [&str; 4] = [
    "serine kinase involved in signalling",
    "membrane transporter for glucose",
    "ribosomal assembly factor",
    "dna repair helicase",
];

/// `(name, accession prefix)` of the hand-built sources; each one's
/// cross-references name the objects of the next.
const TINY: [(&str, &str); 4] = [
    ("alpha", "AL"),
    ("beta", "BE"),
    ("gamma", "GA"),
    ("delta", "DE"),
];

/// Hand-built source `i`, small enough for many debug-mode integrations:
/// an entry table of four objects and a cross-reference table naming the
/// objects of source `i + 1`.
fn tiny_source(i: usize) -> Database {
    let (name, prefix) = TINY[i];
    let (target, target_prefix) = TINY[(i + 1) % TINY.len()];
    let mut db = Database::new(name);
    let entry = format!("{name}_entry");
    let xref = format!("{name}_xref");
    db.create_table(
        &entry,
        TableSchema::of(vec![
            ColumnDef::int("entry_id"),
            ColumnDef::text("ac"),
            ColumnDef::text("de"),
        ]),
    )
    .unwrap();
    db.create_table(
        &xref,
        TableSchema::of(vec![
            ColumnDef::int("xref_id"),
            ColumnDef::int("entry_id"),
            ColumnDef::text("value"),
        ]),
    )
    .unwrap();
    for row in 0..DESCRIPTIONS.len() {
        let id = row as i64 + 1;
        let description = DESCRIPTIONS[(row + i) % DESCRIPTIONS.len()];
        let values = vec![
            Value::Int(id),
            Value::text(format!("{prefix}{:04}", row + 1)),
            Value::text(format!("{description} of {name}")),
        ];
        db.insert(&entry, values).unwrap();
        let reference = format!("{}; {target_prefix}{:04}", target.to_uppercase(), row + 1);
        db.insert(
            &xref,
            vec![Value::Int(id), Value::Int(id), Value::text(reference)],
        )
        .unwrap();
    }
    db
}

fn tiny_config() -> AladinConfig {
    AladinConfig {
        link_min_matches: 1,
        min_distinct_values: 2,
        ..AladinConfig::default()
    }
}

/// Sources, links and duplicates (with their scores' bits) and structures,
/// each sorted.
fn bit_exact(aladin: &Aladin) -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
    fn with_bits(links: &[Link]) -> Vec<String> {
        let mut out: Vec<String> = links
            .iter()
            .map(|l| format!("{l:?} {:016x}", l.score.to_bits()))
            .collect();
        out.sort();
        out
    }
    let fp = fingerprint(aladin);
    let (sources, _, _, structures) = canonical(&fp);
    (sources, with_bits(&fp.1), with_bits(&fp.2), structures)
}

/// One operation of the model-based test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(usize),
    /// Refresh with a full re-import.
    Refresh(usize),
    /// Refresh with one table (by index) emptied.
    RefreshEmptied(usize, usize),
    /// Refresh whose commit event cannot be appended.
    RefreshFailing(usize),
    Reopen,
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..5, 0..TINY.len(), 0usize..2).prop_map(|(kind, source, table)| match kind {
        0 => Op::Add(source),
        1 => Op::Refresh(source),
        2 => Op::RefreshEmptied(source, table),
        3 => Op::RefreshFailing(source),
        _ => Op::Reopen,
    })
}

/// Reopen the store and check it serves exactly what `live` published.
fn reopen_and_compare(live: Aladin, config: &AladinConfig, ops: &[Op]) -> Aladin {
    let published = bit_exact(&live);
    drop(live);
    let (reopened, recovery) = Aladin::open(config.clone()).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new(), "after {ops:?}");
    assert_eq!(recovery.rediscovered, Vec::<String>::new(), "after {ops:?}");
    assert!(bit_exact(&reopened) == published, "after {ops:?}");
    reopened
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reopen_serves_what_the_live_pipeline_published(ops in prop::collection::vec(op(), 1..14)) {
        let dir = temp_dir("model");
        let config = tiny_config().with_data_dir(&dir);
        let mut live = Aladin::new(config.clone());
        for (step, &op) in ops.iter().enumerate() {
            let done = &ops[..=step];
            let present = |i: usize| live.database(TINY[i].0).is_ok();
            match op {
                Op::Add(i) if !present(i) => {
                    live.add_database(tiny_source(i)).unwrap();
                }
                Op::Refresh(i) if present(i) => {
                    live.refresh_source(tiny_source(i), 1.0).unwrap();
                }
                Op::RefreshEmptied(i, table) if present(i) => {
                    let mut db = tiny_source(i);
                    let name = db.table_names()[table].to_string();
                    db.table_mut(&name).unwrap().retain(|_| false);
                    live.refresh_source(db, 1.0).unwrap();
                }
                Op::RefreshFailing(i) if present(i) => {
                    let before = bit_exact(&live);
                    let log = dir.join("pipeline.wal");
                    let aside = dir.join("pipeline.wal.aside");
                    std::fs::rename(&log, &aside).unwrap();
                    std::fs::create_dir(&log).unwrap();
                    prop_assert!(live.refresh_source(tiny_source(i), 1.0).is_err());
                    std::fs::remove_dir(&log).unwrap();
                    std::fs::rename(&aside, &log).unwrap();
                    prop_assert!(bit_exact(&live) == before, "after {done:?}");
                    prop_assert_eq!(pending_snapshots(&dir), Vec::<PathBuf>::new());
                }
                Op::Reopen => live = reopen_and_compare(live, &config, done),
                _ => {}
            }
        }
        drop(reopen_and_compare(live, &config, &ops));
        std::fs::remove_dir_all(&dir).ok();
    }
}
