//! The traced run: after the untraced work of `--trace 0`, each layer is
//! driven from outside, one public function at a time, with a span around
//! every call. Four phases, whatever the workload:
//!
//! 1. integrate replay on the medium world, in `Aladin::add_databases`
//!    staging order, which must reproduce the untraced fingerprint;
//! 2. kernel split: `BlastIndex` build against probe, `TfIdfModel` fit
//!    against probe, on the field values each pair compares;
//! 3. serve with one client, so `Server::metrics` deltas attribute each hit
//!    or miss; misses are re-timed on the pinned snapshot's `Warehouse`;
//! 4. refresh on a durable small world beside the open-loop reader; then,
//!    with the reader stopped, publish and snapshot writes timed again and
//!    restart split into its parts.

use crate::common::{
    self, fingerprint_lines, link_lines, median, Latencies, Metrics, Rng, RunRecord, Size,
    Stopwatch, Tally,
};
use crate::lifecycle::{self, E2e, Integrated};
use crate::reads::{self, Kind, Mix, Read};
use crate::trace::Tracer;
use crate::Args;
use aladin::core::duplicates::detect_duplicates;
use aladin::core::links::{
    discover_explicit_links, discover_sequence_links, discover_shared_term_links,
    discover_text_links,
};
use aladin::core::pipeline::analyze_database;
use aladin::core::secondary::owner_accessions;
use aladin::core::{Aladin, AladinConfig, Link, ServeConfig, Server, SourceStructure, Warehouse};
use aladin::import::import_files_with;
use aladin::relstore::sql::{parse_statement, Statement};
use aladin::relstore::stats::ColumnStats;
use aladin::relstore::{analyze, exec, optimize, persist, Database};
use aladin::seq::alphabet::Alphabet;
use aladin::seq::blast::BlastIndex;
use aladin::textmine::tfidf::TfIdfModel;
use std::collections::HashMap;
use std::hint::black_box;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Reads the traced serve client times after its warm-up.
const TRACED_READS: usize = 40_000;
/// Releases absorbed by the traced refresh.
const TRACED_CYCLES: usize = 3;
/// Rate of the traced refresh's open-loop reader, reads per second.
const OPEN_LOOP_RATE: f64 = 1000.0;

pub struct Layers {
    pub tracer: Tracer,
    pub metrics: Metrics,
}

pub fn run(args: &Args, e2e: &E2e, tally: &mut Tally, record: &mut RunRecord) -> Layers {
    let tracer = Tracer::new();
    let mut m: Metrics = Vec::new();
    let size = if args.smoke {
        Size::Small
    } else {
        Size::Medium
    };

    // The refresh workload integrated only the small world; the traced
    // phases need the medium one, integrated untraced first.
    let fresh;
    let (medium, untraced_integrate) = match &e2e.medium {
        Some(m) => (m, e2e.integrate),
        None => {
            let (world, corpus) = common::corpus(size, args.seed);
            let (aladin, took) = tally.must(
                "integration",
                common::integrate(&corpus, AladinConfig::default()),
            );
            let fingerprint = common::fingerprint(&aladin, false);
            fresh = Integrated {
                world,
                corpus,
                aladin,
                fingerprint,
            };
            (&fresh, took)
        }
    };

    let replay_cpu_s = integrate_replay(&tracer, medium, args, tally, &mut m);
    record.num(
        "overhead_integrate_cpu_s",
        replay_cpu_s - untraced_integrate.cpu_s,
    );
    kernel_split(&tracer, medium, tally, &mut m);
    let (p50, p99) = traced_serve(&tracer, medium, args, tally, &mut m);
    if args.workload == crate::Workload::Serve {
        record.num("overhead_read_p50_us", p50 - e2e.reads.p50_us);
        record.num("overhead_read_p99_us", p99 - e2e.reads.p99_us);
    }
    let (refresh_cpu_s, restart_cpu_s) = traced_refresh(&tracer, args, tally, &mut m);
    record.num("overhead_refresh_cpu_s", refresh_cpu_s - e2e.refresh.cpu_s);
    record.num("overhead_restart_cpu_s", restart_cpu_s - e2e.restart.cpu_s);
    Layers { tracer, metrics: m }
}

fn us(v: f64) -> f64 {
    v * 1e6
}

// ---------------------------------------------------------------------------
// 1. integrate replay
// ---------------------------------------------------------------------------

/// What one pair job discovered, in the order the pipeline commits it.
#[derive(Default)]
struct Pair {
    explicit: Vec<Link>,
    implicit: Vec<Link>,
    duplicates: Vec<Link>,
    counts: Counts,
}

/// Work and outcome counts of the replay, summed over pairs.
#[derive(Default, Clone, Copy)]
struct Counts {
    attr_pairs: usize,
    candidates: usize,
    sequence: usize,
    text: usize,
    shared_term: usize,
    duplicates: usize,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.attr_pairs += o.attr_pairs;
        self.candidates += o.candidates;
        self.sequence += o.sequence;
        self.text += o.text;
        self.shared_term += o.shared_term;
        self.duplicates += o.duplicates;
    }
}

/// Returns the replay's CPU seconds (the traced counterpart of
/// `integrate_cpu_s`).
fn integrate_replay(
    tr: &Tracer,
    medium: &Integrated,
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
) -> f64 {
    let config = AladinConfig::default();
    let options = config.import_options();
    let watch = Stopwatch::start();
    let ((links, n), _) = tr.span("integrate", || {
        let mut dbs = Vec::new();
        for dump in &medium.corpus.sources {
            let (r, _) = tr.span("import", || {
                import_files_with(&dump.name, dump.format, &dump.files, &options)
            });
            dbs.push(tally.must("import", r).0);
        }
        let mut structures = Vec::new();
        for db in &dbs {
            let (r, _) = tr.span("structure", || analyze_database(db, &config));
            structures.push(tally.must("structure discovery", r));
        }
        // Each source against every earlier one of the batch, sorted by
        // name; a source's explicit then implicit links are committed
        // together, duplicates after every link.
        let (mut links, mut duplicates) = (Vec::new(), Vec::new());
        let mut n = Counts::default();
        for i in 0..dbs.len() {
            let mut earlier: Vec<usize> = (0..i).collect();
            earlier.sort_by(|a, b| dbs[*a].name().cmp(dbs[*b].name()));
            let mut implicit = Vec::new();
            for j in earlier {
                tr.next_request();
                let (pair, _) = tr.span("pair", || {
                    replay_pair(
                        tr,
                        (&dbs[i], &structures[i]),
                        (&dbs[j], &structures[j]),
                        &config,
                    )
                });
                let pair = tally.must("pair job", pair);
                n += pair.counts;
                links.extend(pair.explicit);
                implicit.extend(pair.implicit);
                duplicates.extend(pair.duplicates);
            }
            links.extend(implicit);
        }
        links.extend(duplicates);
        (links, n)
    });
    let replay = watch.took();
    let fp = fingerprint_lines(link_lines(links.iter()), args.corrupt);
    tally.check(fp == medium.fingerprint, || {
        format!(
            "integrate replay fingerprint {fp:016x} != untraced {:016x}",
            medium.fingerprint
        )
    });
    let count = |v: usize| v as f64;
    m.push(("import.s", tr.total("import"), "s"));
    m.push(("structure.s", tr.total("structure"), "s"));
    m.push(("links.explicit.s", tr.total("links.explicit"), "s"));
    m.push(("links.explicit.attr_pairs", count(n.attr_pairs), "count"));
    m.push(("links.sequence.s", tr.total("links.sequence"), "s"));
    m.push(("links.sequence.links", count(n.sequence), "count"));
    m.push(("links.text.s", tr.total("links.text"), "s"));
    m.push(("links.text.links", count(n.text), "count"));
    m.push(("links.shared_term.s", tr.total("links.shared_term"), "s"));
    m.push(("links.shared_term.links", count(n.shared_term), "count"));
    m.push(("duplicates.s", tr.total("duplicates"), "s"));
    m.push(("duplicates.candidates", count(n.candidates), "count"));
    let yield_ = count(n.duplicates) / count(n.candidates.max(1));
    m.push(("duplicates.yield", yield_, "fraction"));
    m.push(("pairs.s", tr.total("pair"), "s"));
    m.push(("pairs.critical.s", tr.longest("pair"), "s"));
    replay.cpu_s
}

/// Steps 4–5 of one pair, each discovery function in its own span.
fn replay_pair(
    tr: &Tracer,
    (db, st): (&Database, &SourceStructure),
    (other, ost): (&Database, &SourceStructure),
    config: &AladinConfig,
) -> aladin::core::AladinResult<Pair> {
    let mut pair = Pair::default();
    let (r, _) = tr.span("links.explicit", || {
        let a = discover_explicit_links(db, st, other, ost, config)?;
        let b = discover_explicit_links(other, ost, db, st, config)?;
        Ok::<_, aladin::core::AladinError>((a, b))
    });
    let (a, b) = r?;
    pair.counts.attr_pairs = a.pairs_compared + b.pairs_compared;
    pair.explicit.extend(a.links);
    pair.explicit.extend(b.links);
    let (seq, _) = tr.span("links.sequence", || {
        discover_sequence_links(db, st, other, ost, config)
    });
    let (text, _) = tr.span("links.text", || {
        discover_text_links(db, st, other, ost, config)
    });
    let (shared, _) = tr.span("links.shared_term", || {
        discover_shared_term_links(db, st, other, ost, config)
    });
    let (seq, text, shared) = (seq?, text?, shared?);
    pair.counts.sequence = seq.len();
    pair.counts.text = text.len();
    pair.counts.shared_term = shared.len();
    pair.implicit.extend(seq);
    pair.implicit.extend(text);
    pair.implicit.extend(shared);
    let (dups, _) = tr.span("duplicates", || {
        detect_duplicates(db, st, other, ost, &pair.explicit, config)
    });
    let dups = dups?;
    pair.counts.candidates = dups.candidates_scored;
    pair.counts.duplicates = dups.links.len();
    pair.duplicates = dups.links;
    Ok(pair)
}

// ---------------------------------------------------------------------------
// 2. kernel split
// ---------------------------------------------------------------------------

/// The values of every column whose statistics pass `keep` and whose row has
/// an owning object: the field values implicit link discovery compares.
fn field_values(
    db: &Database,
    st: &SourceStructure,
    keep: impl Fn(&ColumnStats) -> bool,
) -> Vec<String> {
    let mut out = Vec::new();
    for cs in st.column_stats.iter().filter(|cs| keep(cs)) {
        let (Ok(table), Ok(owners)) = (
            db.table(&cs.table),
            owner_accessions(
                db,
                &st.primary_relations,
                &st.secondary_relations,
                &st.relationships,
                &cs.table,
            ),
        ) else {
            continue;
        };
        let Ok(col) = table.column_index(&cs.column) else {
            continue;
        };
        for (row, owner) in table.rows().iter().zip(owners) {
            if !row[col].is_null() && owner.is_some() {
                out.push(row[col].render());
            }
        }
    }
    out
}

fn kernel_split(tr: &Tracer, medium: &Integrated, tally: &mut Tally, m: &mut Metrics) {
    let aladin = &medium.aladin;
    let names: Vec<&str> = medium
        .corpus
        .sources
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    let side = |name: &str| -> (&Database, &SourceStructure) {
        let db = aladin.database(name).expect("integrated source");
        let st = aladin.metadata().structure(name).expect("analysed source");
        (db, st)
    };
    let mut hits = 0usize;
    for i in 0..names.len() {
        let mut earlier: Vec<&str> = names[..i].to_vec();
        earlier.sort_unstable();
        let (db, st) = side(names[i]);
        let seqs = field_values(db, st, ColumnStats::looks_like_sequence);
        let texts = field_values(db, st, ColumnStats::looks_like_free_text);
        for other in earlier {
            tr.next_request();
            let (odb, ost) = side(other);
            let targets = field_values(odb, ost, ColumnStats::looks_like_sequence);
            if !seqs.is_empty() && !targets.is_empty() {
                let alphabet = Alphabet::detect(&targets[0]).unwrap_or(Alphabet::Protein);
                let (index, _) = tr.span("seq.index_build", || {
                    let mut index = BlastIndex::new(alphabet);
                    for (k, s) in targets.iter().enumerate() {
                        index.add(k.to_string(), s);
                    }
                    index
                });
                let (n, _) = tr.span("seq.probe", || {
                    seqs.iter().map(|s| index.search(s).len()).sum::<usize>()
                });
                hits += n;
            }
            let docs = field_values(odb, ost, ColumnStats::looks_like_free_text);
            if !texts.is_empty() && !docs.is_empty() {
                let (model, _) = tr.span("text.fit", || {
                    TfIdfModel::fit(docs.iter().enumerate().map(|(k, d)| (k.to_string(), d)))
                });
                tr.span("text.probe", || {
                    for t in &texts {
                        black_box(model.most_similar(t, 3, &[]));
                    }
                });
            }
        }
    }
    tally.ops(1, 0);
    m.push(("seq.index_build.s", tr.total("seq.index_build"), "s"));
    m.push(("seq.probe.s", tr.total("seq.probe"), "s"));
    m.push(("seq.probe.hits", hits as f64, "count"));
    m.push(("text.fit.s", tr.total("text.fit"), "s"));
    m.push(("text.probe.s", tr.total("text.probe"), "s"));
}

// ---------------------------------------------------------------------------
// 3. serve
// ---------------------------------------------------------------------------

/// One client over the serve mix. Returns its read p50 and p99 (µs).
fn traced_serve(
    tr: &Tracer,
    medium: &Integrated,
    args: &Args,
    tally: &mut Tally,
    m: &mut Metrics,
) -> (f64, f64) {
    let server = tally.must(
        "server start",
        Server::start(medium.aladin.clone(), ServeConfig::default()),
    );
    let pinned = server.snapshot();
    let w = pinned.warehouse();
    let mix = tally.must("read mix", Mix::build(w, &medium.world, args.seed));
    let mut rng = Rng::new(args.seed, 0x7ACE);
    // The cache is warmed untimed with as many reads as the untraced client
    // sends before its windows, so hits and misses split alike.
    let warmup = if args.smoke {
        2_000
    } else {
        lifecycle::WARMUP_READS
    };
    let mut failed = 0u64;
    for _ in 0..warmup {
        failed += u64::from(reads::on_server(&server, mix.pick(&mut rng)).is_err());
    }
    let (mut hit_us, mut miss_us, mut all) = (vec![], vec![], Latencies::default());
    let start_metrics = server.metrics();
    let reads = if args.smoke { 2_000 } else { TRACED_READS };
    for _ in 0..reads {
        let read = mix.pick(&mut rng);
        tr.next_request();
        tr.span("serve.snapshot", || drop(server.snapshot()));
        let before = server.metrics().cache_misses;
        let (ok, s) = tr.span("serve.read", || reads::on_server(&server, read).is_ok());
        all.record(std::time::Duration::from_secs_f64(s), ok);
        failed += u64::from(!ok);
        if server.metrics().cache_misses == before {
            hit_us.push(us(s));
        } else {
            miss_us.push(us(s));
            direct_read(tr, w, read);
        }
    }
    let evictions = server.metrics().cache_evictions - start_metrics.cache_evictions;
    tally.ops((warmup + reads) as u64, failed);
    let span_us = |name| median(tr.durations(name).into_iter().map(us).collect());
    let hit_rate = hit_us.len() as f64 / reads.max(1) as f64;
    m.push(("serve.snapshot.us", span_us("serve.snapshot"), "us"));
    m.push(("serve.hit_rate", hit_rate, "fraction"));
    m.push(("serve.evictions", evictions as f64, "count"));
    m.push(("serve.hit.us", median(hit_us), "us"));
    m.push(("serve.miss.us", median(miss_us), "us"));
    for (span, metric) in [
        ("warehouse.fetch", "warehouse.fetch.us"),
        ("warehouse.view", "warehouse.view.us"),
        ("warehouse.follow", "warehouse.follow.us"),
        ("warehouse.search", "warehouse.search.us"),
        ("warehouse.scan", "warehouse.scan.us"),
        ("warehouse.join_path", "warehouse.join_path.us"),
        ("relstore.parse", "relstore.parse.us"),
        ("relstore.analyze", "relstore.analyze.us"),
        ("relstore.optimize", "relstore.optimize.us"),
        ("relstore.execute", "relstore.execute.us"),
    ] {
        m.push((metric, span_us(span), "us"));
    }
    let all = all.summary();
    (all.p50_us, all.p99_us)
}

/// A missed read, re-timed directly on the pinned snapshot's warehouse; SQL
/// is split into parse, analyze, optimize and execute.
fn direct_read(tr: &Tracer, w: &Warehouse, read: &Read) {
    let span = match read.kind() {
        Kind::Fetch => "warehouse.fetch",
        Kind::View => "warehouse.view",
        Kind::Follow => "warehouse.follow",
        Kind::Search => "warehouse.search",
        Kind::Scan => "warehouse.scan",
        Kind::Join => "warehouse.join_path",
        Kind::Sql => "warehouse.sql",
    };
    tr.span(span, || match read {
        Read::Sql { source, text } => {
            let Ok(db) = w.database(source) else { return };
            let (statement, _) = tr.span("relstore.parse", || parse_statement(text));
            let Ok(Statement::Select(plan)) = statement else {
                return;
            };
            tr.span("relstore.analyze", || {
                black_box(analyze::analyze(db, &plan))
            });
            let (optimized, _) = tr.span("relstore.optimize", || optimize::optimize(db, &plan));
            tr.span("relstore.execute", || {
                black_box(exec::execute(db, &optimized).is_ok())
            });
        }
        _ => {
            black_box(reads::answer_direct(w, read, false).is_ok());
        }
    });
}

// ---------------------------------------------------------------------------
// 4. refresh
// ---------------------------------------------------------------------------

/// (inode, length) of every file under a store, by path.
fn store_files(dir: &Path) -> HashMap<PathBuf, (u64, u64)> {
    let mut out = HashMap::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => dirs.push(entry.path()),
                Ok(m) => {
                    out.insert(entry.path(), (m.ino(), m.len()));
                }
                Err(_) => {}
            }
        }
    }
    out
}

/// Bytes the program wrote into its store between two listings: the whole
/// of every file written anew (a source snapshot or the generation marker,
/// each replaced by a rename), the growth of every file appended to (the
/// pipeline event log).
fn bytes_written(
    before: &HashMap<PathBuf, (u64, u64)>,
    after: &HashMap<PathBuf, (u64, u64)>,
) -> u64 {
    after
        .iter()
        .map(|(path, (ino, len))| match before.get(path) {
            Some((old_ino, old_len)) if old_ino == ino => len.saturating_sub(*old_len),
            _ => *len,
        })
        .sum()
}

/// Where `Aladin` keeps a source's snapshot in its store: the source name
/// with every byte other than an ASCII letter, digit, `.`, `_` or `-`
/// written as `%XX`.
fn snapshot_path(dir: &Path, source: &str) -> PathBuf {
    let mut file = String::new();
    for b in source.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => file.push(b as char),
            other => file.push_str(&format!("%{other:02X}")),
        }
    }
    dir.join("sources").join(file + ".snap")
}

/// Returns the traced counterparts of `refresh_cpu_s` and `restart_cpu_s`.
fn traced_refresh(tr: &Tracer, args: &Args, tally: &mut Tally, m: &mut Metrics) -> (f64, f64) {
    let (aladin, mut setup) = lifecycle::durable_setup(args.seed, "traced", tally);
    let server = tally.must(
        "server start",
        Server::start(aladin, ServeConfig::default()),
    );
    let user_bytes = setup.corpus.byte_size() as f64;
    // Sources in last-commit order, the order `Aladin::open` re-integrates
    // them in: the set-up's batch in input order, then every re-integrated
    // source moved to the end.
    let mut commit_order: Vec<String> = setup
        .corpus
        .sources
        .iter()
        .map(|d| d.name.clone())
        .collect();
    let (stop, reader_cpu) = (AtomicBool::new(false), AtomicU64::new(0));
    let (mut cycles, mut refreshed, mut written) = (vec![], vec![], 0u64);
    let (_, late) = std::thread::scope(|s| {
        let reader = {
            let (server, stop, reader_cpu) = (&server, &stop, &reader_cpu);
            s.spawn(move || {
                lifecycle::reader(server, args.seed, Some(OPEN_LOOP_RATE), stop, reader_cpu)
            })
        };
        for cycle in 1..=TRACED_CYCLES {
            let corpus = lifecycle::release(args.seed, cycle);
            let prepared = lifecycle::prepare_release(&corpus, &setup.config, &setup.rows, tally);
            tr.next_request();
            // The release's counterpart of `refresh_cpu_s` is its
            // `refresh_source` calls, less the reader's CPU time meanwhile.
            let mut absorb_cpu_s = 0.0;
            tr.span("refresh.release", || {
                for (db, fraction, set) in prepared {
                    let name = db.name().to_string();
                    let before = store_files(&setup.dir);
                    let (watch, read_before) =
                        (Stopwatch::start(), reader_cpu.load(Ordering::Acquire));
                    let (r, _) = tr.span("refresh.source", || server.refresh_source(db, fraction));
                    let read_during = reader_cpu.load(Ordering::Acquire) - read_before;
                    absorb_cpu_s += watch.took_less(read_during).cpu_s;
                    if tally.must("refresh", r).is_some() {
                        written += bytes_written(&before, &store_files(&setup.dir));
                        setup.rows.insert(name.clone(), set);
                        commit_order.retain(|n| *n != name);
                        commit_order.push(name.clone());
                        refreshed.push(name);
                    }
                }
            });
            cycles.push(absorb_cpu_s);
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("the reader panicked")
    });

    // Publish and snapshot write, timed again on the last published state
    // once the reader has stopped: publish as what `Server` publishes, and
    // one snapshot write per re-integration, of the source re-integrated.
    let snapshot = server.snapshot();
    let master = snapshot.warehouse().aladin();
    let published = common::fingerprint(master, false);
    let scratch = setup.dir.with_extension("scratch.snap");
    let (mut publish, mut writes) = (vec![], vec![]);
    for name in &refreshed {
        let (r, s) = tr.span("serve.publish", || {
            Warehouse::from_aladin(master.clone()).warm()
        });
        tally.must("publish", r);
        publish.push(s);
        let db = tally.must("refreshed source", master.database(name));
        let (r, s) = tr.span("persist.snapshot_write", || {
            persist::write_snapshot_at(&scratch, db, 0)
        });
        tally.must("snapshot write", r);
        writes.push(s);
    }
    let _ = std::fs::remove_file(&scratch);
    let store_bytes = common::dir_bytes(&setup.dir) as f64;
    drop(snapshot);
    drop(server);

    // Restart, split: every source snapshot read, then re-integration, in
    // last-commit order. It must rebuild what was last published.
    tr.next_request();
    let watch = Stopwatch::start();
    let (loaded, load_s) = tr.span("restart.load", || {
        commit_order
            .iter()
            .map(|name| persist::read_snapshot(&snapshot_path(&setup.dir, name)).map(|(db, _)| db))
            .collect::<Result<Vec<_>, _>>()
    });
    let dbs = tally.must("snapshot load", loaded);
    let (r, reintegrate_s) = tr.span("restart.reintegrate", || {
        let mut aladin = Aladin::new(AladinConfig::default());
        aladin.add_databases(dbs).map(|_| aladin)
    });
    let restart = watch.took();
    let fp = common::fingerprint(&tally.must("re-integration", r), args.corrupt);
    tally.check(fp == published, || {
        format!("restart split fingerprint {fp:016x} != published {published:016x}")
    });
    // The order is the one `Server::resume` recovers in (untimed).
    let (resumed, recovery) = tally.must(
        "resume",
        Server::resume(setup.config.clone(), ServeConfig::default()),
    );
    drop(resumed);
    tally.check(recovery.recovered == commit_order, || {
        format!(
            "restart split order {commit_order:?} != recovered {:?}",
            recovery.recovered
        )
    });
    let _ = std::fs::remove_dir_all(&setup.dir);

    let refreshes = refreshed.len().max(1) as f64;
    m.push((
        "refresh.reintegrated",
        refreshed.len() as f64 / TRACED_CYCLES as f64,
        "count",
    ));
    m.push(("serve.publish.s", median(publish), "s"));
    m.push(("persist.snapshot_write.s", median(writes), "s"));
    m.push((
        "persist.bytes_per_refresh",
        written as f64 / refreshes,
        "bytes",
    ));
    m.push((
        "persist.store_bytes_per_user_byte",
        store_bytes / user_bytes,
        "ratio",
    ));
    m.push(("restart.load.s", load_s, "s"));
    m.push(("restart.reintegrate.s", reintegrate_s, "s"));
    m.push(("reader.late.us", late.percentile_us(99.0), "us"));
    tally.ops(TRACED_CYCLES as u64, 0);
    (median(cycles), restart.cpu_s)
}
