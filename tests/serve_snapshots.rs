//! Stress tests for the concurrent serving layer (`core::serve`): N reader
//! threads against one writer on a generated corpus, asserting MVCC snapshot
//! isolation — every snapshot is internally consistent with its pinned
//! generation, generations observed by a reader never go backwards, and
//! cached results are byte-identical to uncached execution on the same
//! snapshot.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use aladin::core::serve::{ServeConfig, Server};
use aladin::core::{Aladin, QuerySpec};
use aladin::datagen::{Corpus, CorpusConfig};
use aladin::import::import_files;
use aladin::relstore::Database;

const READERS: usize = 8;
const WRITER_REFRESHES: usize = 3;

/// Integrate a small generated corpus and wrap it in a `Server`, returning
/// the corpus alongside so the writer thread can re-import dumps.
fn corpus_server(seed: u64, config: ServeConfig) -> (Server, Corpus) {
    let corpus = Corpus::generate(&CorpusConfig::small(seed));
    let mut aladin = Aladin::with_defaults();
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .unwrap_or_else(|e| panic!("failed to integrate {}: {e}", dump.name));
    }
    let server = Server::start(aladin, config).expect("initial snapshot");
    (server, corpus)
}

/// Re-import one corpus dump into a fresh relational database, as a source
/// refresh would receive it.
fn reimport(corpus: &Corpus, index: usize) -> Database {
    let dump = &corpus.sources[index % corpus.sources.len()];
    import_files(&dump.name, dump.format, &dump.files).expect("corpus dumps re-import cleanly")
}

/// The fixed query pool every reader cycles through: one of each access
/// mode, so browse, search and query paths all run against every snapshot.
fn query_pool(seed_source: &str) -> Vec<QuerySpec> {
    vec![
        QuerySpec::scan().from_source(seed_source).limit(10),
        QuerySpec::search("kinase"),
        QuerySpec::search("kinase")
            .from_source(seed_source)
            .limit(5),
        QuerySpec::scan()
            .from_source(seed_source)
            .offset(2)
            .limit(4),
    ]
}

#[test]
fn eight_readers_one_writer_see_consistent_snapshots() {
    let (server, corpus) = corpus_server(11, ServeConfig::default());
    let source = corpus.sources[0].name.clone();
    let pool = query_pool(&source);

    let writer_done = AtomicBool::new(false);
    let failed_reads = AtomicUsize::new(0);
    let inconsistent = AtomicUsize::new(0);
    let reads = AtomicUsize::new(0);

    thread::scope(|scope| {
        for reader in 0..READERS {
            let server = &server;
            let pool = &pool;
            let writer_done = &writer_done;
            let failed_reads = &failed_reads;
            let inconsistent = &inconsistent;
            let reads = &reads;
            scope.spawn(move || {
                let mut last_generation = 0u64;
                let mut iteration = reader; // desynchronise the start points
                loop {
                    let finishing = writer_done.load(Ordering::Acquire);
                    let snapshot = server.snapshot();

                    // Snapshot isolation: the pinned generation must be
                    // exactly the generation of the warehouse it wraps, and
                    // generations never move backwards for any one reader.
                    if snapshot.warehouse().metadata().generation() != snapshot.generation()
                        || snapshot.generation() < last_generation
                    {
                        inconsistent.fetch_add(1, Ordering::Relaxed);
                    }
                    last_generation = snapshot.generation();

                    // Serve a query from the shared pool through the cache
                    // and re-execute it uncached on the same pinned
                    // snapshot: the rendering must be byte-identical.
                    let spec = &pool[iteration % pool.len()];
                    match server.fetch(spec) {
                        Ok(cached) => {
                            let uncached = snapshot
                                .warehouse()
                                .query(spec.clone())
                                .fetch()
                                .expect("pinned snapshot stays queryable");
                            if format!("{cached:?}") != format!("{uncached:?}") {
                                inconsistent.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            failed_reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A ranked search on every other pass exercises the
                    // index of the snapshot too.
                    if iteration % 2 == 0 && server.search("kinase", 10).is_err() {
                        failed_reads.fetch_add(1, Ordering::Relaxed);
                    }

                    reads.fetch_add(1, Ordering::Relaxed);
                    iteration += 1;
                    if finishing {
                        break;
                    }
                }
            });
        }

        // One writer republishing the world while the readers run.
        let server = &server;
        let corpus = &corpus;
        let writer_done = &writer_done;
        scope.spawn(move || {
            for round in 0..WRITER_REFRESHES {
                let report = server
                    .refresh_source(reimport(corpus, round), 1.0)
                    .expect("refresh re-integrates");
                assert!(report.is_some(), "full change must re-integrate");
            }
            writer_done.store(true, Ordering::Release);
        });
    });

    assert_eq!(failed_reads.load(Ordering::Relaxed), 0, "no failed reads");
    assert_eq!(
        inconsistent.load(Ordering::Relaxed),
        0,
        "no torn or stale snapshot observations"
    );
    assert!(
        reads.load(Ordering::Relaxed) >= READERS,
        "readers made progress"
    );

    // Every refresh published exactly one new snapshot on top of the
    // initial one.
    let metrics = server.metrics();
    assert_eq!(metrics.snapshots_published, 1 + WRITER_REFRESHES as u64);
    assert!(metrics.queries_served > 0);
}

#[test]
fn pinned_snapshot_survives_publishes_unchanged() {
    let (server, corpus) = corpus_server(13, ServeConfig::default());
    let source = corpus.sources[0].name.clone();
    let spec = QuerySpec::scan().from_source(&source).limit(8);

    let pinned = server.snapshot();
    let before = format!(
        "{:?}",
        pinned.warehouse().query(spec.clone()).fetch().unwrap()
    );

    // Publish two newer generations while the old snapshot is held.
    for round in 0..2 {
        server
            .refresh_source(reimport(&corpus, round), 1.0)
            .unwrap();
    }
    assert!(server.generation() > pinned.generation());

    // The held snapshot still answers with exactly the bytes it answered
    // with before any publish, and still matches its own generation.
    let after = format!(
        "{:?}",
        pinned.warehouse().query(spec.clone()).fetch().unwrap()
    );
    assert_eq!(before, after);
    assert_eq!(
        pinned.warehouse().metadata().generation(),
        pinned.generation()
    );

    // The server itself serves the new generation.
    let fresh = server.snapshot();
    assert_eq!(
        fresh.warehouse().metadata().generation(),
        fresh.generation()
    );
    assert!(fresh.generation() > pinned.generation());
}

#[test]
fn cached_results_are_byte_identical_to_uncached_across_modes() {
    let (server, corpus) = corpus_server(17, ServeConfig::default());
    let source = corpus.sources[0].name.clone();
    let snapshot = server.snapshot();

    for spec in query_pool(&source) {
        // First call populates the cache, second is served from it; both
        // must render identically to direct execution on the snapshot.
        let first = server.fetch(&spec).unwrap();
        let second = server.fetch(&spec).unwrap();
        let direct = snapshot.warehouse().query(spec.clone()).fetch().unwrap();
        assert_eq!(format!("{first:?}"), format!("{direct:?}"));
        assert_eq!(format!("{second:?}"), format!("{direct:?}"));
    }

    let hits_cached = server.search("kinase", 10).unwrap();
    let hits_direct = snapshot.warehouse().search_hits("kinase", 10).unwrap();
    assert_eq!(format!("{hits_cached:?}"), format!("{hits_direct:?}"));

    // The other read APIs, each asked twice: once on a miss, then from the
    // cache. A SELECT's keyword-case/whitespace variant is its cache hit.
    let warehouse = snapshot.warehouse();
    let structure = warehouse.metadata().structure(&source).unwrap();
    let primary = &structure.primary_relations[0];
    let (table, column) = (&primary.table, &primary.accession_column);
    let select = format!("SELECT * FROM {table} ORDER BY {column} LIMIT 5");
    let variant = format!("select *  from {table}\n  order by {column} limit 5");
    assert_served_as_direct(
        server.sql(&source, &select).unwrap(),
        server.sql(&source, &variant).unwrap(),
        warehouse.sql(&source, &select).unwrap(),
    );

    let object = &warehouse.aladin().objects_of(&source).unwrap()[0];
    assert_served_as_direct(
        server.view(object).unwrap(),
        server.view(object).unwrap(),
        warehouse.view(object).unwrap(),
    );

    let secondary = structure
        .secondary_relations
        .iter()
        .find(|s| !s.path.is_empty())
        .expect("a secondary table on a path");
    assert_served_as_direct(
        server.join_path(&source, &secondary.table).unwrap(),
        server.join_path(&source, &secondary.table).unwrap(),
        warehouse.join_path(&source, &secondary.table).unwrap(),
    );

    let metrics = server.metrics();
    assert!(metrics.cache_hits >= query_pool(&source).len() as u64 + 3);
}

/// The first (cache miss) and second (cache hit) answers of the server must
/// both render byte-identically to direct execution on the pinned snapshot.
fn assert_served_as_direct(first: impl Debug, second: impl Debug, direct: impl Debug) {
    let direct = format!("{direct:?}");
    assert_eq!(format!("{first:?}"), direct);
    assert_eq!(format!("{second:?}"), direct);
}
