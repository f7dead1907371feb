//! Durability suite: end-to-end crash-recovery behaviour of the integration
//! pipeline and serving layer. A durable `Aladin` (configured with a data
//! directory) persists every committed source; `Aladin::open` must rebuild
//! an equivalent warehouse from disk, `Server::resume` must pick up the last
//! published generation, and injected damage must cost at most the tail of
//! the pipeline event log, or the damaged source's snapshot — never a
//! panic, never a refusal to start.

use aladin::core::{Aladin, AladinConfig, Link, ServeConfig, Server, SourceStructure, Warehouse};
use aladin::datagen::{
    duplicate_last_wal_record, swap_last_two_wal_records, truncate_wal_mid_record, Corpus,
    CorpusConfig,
};
use aladin::relstore::{persist, Database};
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

#[test]
fn torn_pipeline_event_log_loses_at_most_the_tail_commit() {
    let corpus = corpus();
    let dir = temp_dir("torn-event");
    drop(integrate_durable(&corpus, &dir));

    truncate_wal_mid_record(&dir.join("pipeline.wal")).unwrap();
    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert!(
        recovery.truncated_events.is_some(),
        "a torn event log must be reported"
    );
    // Exactly the final commit event is torn; everything before it survives.
    assert_eq!(recovery.recovered.len(), corpus.sources.len() - 1);
    assert_eq!(reopened.source_names().len(), corpus.sources.len() - 1);
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
    let release = release_with_an_emptied_table(&corpus, 0);
    let refreshed_rows = release.total_rows();
    live.refresh_source(release, 1.0).unwrap();
    let refreshed = canonical(&fingerprint(&live));
    drop(live);

    // Build the state of a crash after the commit event but before the
    // rename: the refreshed version waits in `.next`, the published one
    // still sits in `.snap`. Another source carries a stale `.next` whose
    // stamp matches no commit event.
    let snap = snapshot_of(&dir, first);
    let next = snap.with_extension("snap.next");
    std::fs::rename(&snap, &next).unwrap();
    std::fs::write(&snap, &published).unwrap();
    let second = &corpus.sources[1].name;
    let stale = snapshot_of(&dir, second).with_extension("snap.next");
    let release = release_with_an_emptied_table(&corpus, 1);
    persist::write_snapshot_at(&stale, &release, u64::MAX).unwrap();
    // A kill inside the atomic write of a third source's `.next` leaves its
    // half-written temp file behind.
    let third = &corpus.sources[2].name;
    let interrupted = dir.join("sources").join(format!(".tmp-{third}.snap.next"));
    std::fs::write(&interrupted, &published[..published.len() / 2]).unwrap();

    let (reopened, recovery) = Aladin::open(AladinConfig::default().with_data_dir(&dir)).unwrap();
    assert_eq!(recovery.lost, Vec::<String>::new());
    assert!(
        canonical(&fingerprint(&reopened)) == refreshed,
        "recovery must serve the committed refresh"
    );
    assert_eq!(pending_snapshots(&dir), Vec::<PathBuf>::new());
    assert!(
        !interrupted.exists(),
        "an interrupted write's temp file survived"
    );
    let (at_rest, _) = persist::read_snapshot(&snap).unwrap();
    assert_eq!(at_rest.total_rows(), refreshed_rows);
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
