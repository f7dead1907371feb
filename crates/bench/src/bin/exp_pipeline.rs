//! E2 — the integration pipeline at scale: sequential vs. parallel execution
//! and blocked vs. exhaustive duplicate candidate generation, at three world
//! sizes from `aladin-datagen`. Writes the measurements to
//! `BENCH_pipeline.json` and prints the per-step breakdown of every run plus
//! the per-pair timings of the largest world, reproducing Figure 2 as an
//! executable trace.
//!
//! The modes form a 2×2 grid:
//!
//! * `workers` — 1 (sequential) vs. 0 (one worker per available core);
//! * `duplicate_candidate_mode` — `Exhaustive` (all-vs-all TF-IDF nearest
//!   neighbours) vs. `Blocked` (accession-prefix + name-token blocking with a
//!   sorted-neighbourhood window).
//!
//! The JSON also records `available_parallelism` (the sequential/parallel
//! columns cannot differ on one CPU) and `"run": "full"`.
//!
//! The pipeline guarantees identical discovery output for every worker count,
//! so the sequential/parallel columns differ only in wall clock; the
//! blocked/exhaustive columns additionally report the candidate pairs scored.

use aladin_bench::print_table;
use aladin_core::config::DuplicateCandidates;
use aladin_core::{Aladin, AladinConfig, PipelineMetrics};
use aladin_datagen::{Corpus, CorpusConfig};
use aladin_relstore::Database;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured integration run.
struct RunResult {
    total_s: f64,
    metrics: PipelineMetrics,
    links: usize,
    duplicates: usize,
}

fn run(dbs: &[Database], config: AladinConfig) -> RunResult {
    let mut aladin = Aladin::new(config);
    let start = Instant::now();
    aladin
        .add_databases(dbs.to_vec())
        .expect("corpus integrates");
    let total_s = start.elapsed().as_secs_f64();
    RunResult {
        total_s,
        metrics: aladin.metrics(),
        links: aladin.link_count(),
        duplicates: aladin.duplicate_count(),
    }
}

fn mode_config(workers: usize, mode: DuplicateCandidates) -> AladinConfig {
    AladinConfig {
        workers,
        duplicate_candidate_mode: mode,
        ..AladinConfig::default()
    }
}

fn main() {
    // Three world sizes. The largest is the paper's duplicate-heavy case
    // study — the Swiss-Prot/PIR situation ("largely the same proteins used
    // to be stored in Swiss-Prot and PIR": a fully overlapping archive) plus
    // the PDB three-flavour structure databases, at full size. This is
    // exactly the workload the exhaustive all-vs-all candidate generation
    // cannot sustain: every protein exists in two sources and every
    // structure in three.
    let large = {
        let mut c = CorpusConfig::large(3);
        c.archive_overlap = 1.0;
        c.structure_fraction = 0.6;
        c.three_flavour_structures = true;
        c.gene_fraction = 0.1;
        c.interaction_count = 200;
        c
    };
    let worlds: Vec<(&str, CorpusConfig)> = vec![
        ("small", CorpusConfig::small(3)),
        ("medium", CorpusConfig::medium(3)),
        ("large", large),
    ];
    let modes: Vec<(&str, usize, DuplicateCandidates)> = vec![
        ("sequential_exhaustive", 1, DuplicateCandidates::Exhaustive),
        ("sequential_blocked", 1, DuplicateCandidates::Blocked),
        ("parallel_exhaustive", 0, DuplicateCandidates::Exhaustive),
        ("parallel_blocked", 0, DuplicateCandidates::Blocked),
    ];

    // Every run is a full one: this binary has no smoke mode.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"available_parallelism\": {cpus},\n  \"run\": \"full\",\n  \"worlds\": {{\n"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut largest_pair_metrics: Option<PipelineMetrics> = None;

    for (world_idx, (world_name, corpus_config)) in worlds.iter().enumerate() {
        let corpus = Corpus::generate(corpus_config);
        // Import once per world; each measured run gets a clone.
        let dbs = corpus.import_all().expect("corpus imports cleanly");
        let objects: usize = dbs.iter().map(|db| db.total_rows()).sum();
        let _ = writeln!(
            json,
            "    \"{world_name}\": {{\n      \"sources\": {}, \"rows\": {objects},",
            corpus.sources.len()
        );
        let _ = writeln!(json, "      \"modes\": {{");

        let mut baseline_s = f64::NAN;
        for (mode_idx, (mode_name, workers, mode)) in modes.iter().enumerate() {
            let result = run(&dbs, mode_config(*workers, *mode));
            let step_s = |step: &str| result.metrics.step_elapsed(step).as_secs_f64();
            if mode_idx == 0 {
                baseline_s = result.total_s;
            }
            let speedup = baseline_s / result.total_s.max(1e-9);
            rows.push(vec![
                (*world_name).to_string(),
                (*mode_name).to_string(),
                format!("{:.2}", result.total_s),
                format!("{:.2}", step_s("structure discovery")),
                format!("{:.2}", step_s("link discovery")),
                format!("{:.2}", step_s("duplicate detection")),
                result.metrics.total_pairs_compared().to_string(),
                result.links.to_string(),
                result.duplicates.to_string(),
                format!("{speedup:.2}x"),
            ]);
            let comma = if mode_idx + 1 < modes.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        \"{mode_name}\": {{\"total_s\": {:.3}, \"structure_s\": {:.3}, \
                 \"links_s\": {:.3}, \"duplicates_s\": {:.3}, \"pairs_compared\": {}, \
                 \"links\": {}, \"duplicates\": {}, \"speedup_vs_sequential_exhaustive\": {speedup:.2}}}{comma}",
                result.total_s,
                step_s("structure discovery"),
                step_s("link discovery"),
                step_s("duplicate detection"),
                result.metrics.total_pairs_compared(),
                result.links,
                result.duplicates,
            );
            if world_idx + 1 == worlds.len() && mode_idx + 1 == modes.len() {
                largest_pair_metrics = Some(result.metrics.clone());
            }
        }
        let comma = if world_idx + 1 < worlds.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "      }}\n    }}{comma}");
    }
    json.push_str("  }\n}\n");

    print_table(
        "Integration pipeline: sequential vs parallel, blocked vs exhaustive (seconds)",
        &[
            "world",
            "mode",
            "total s",
            "structure s",
            "links s",
            "dups s",
            "pairs compared",
            "links",
            "duplicates",
            "speedup",
        ],
        &rows,
    );

    // Per-pair breakdown of the largest world's parallel+blocked run: the
    // most expensive duplicate-detection pairs, from the per-pair StepTimings.
    if let Some(metrics) = largest_pair_metrics {
        let mut pair_rows: Vec<(f64, Vec<String>)> = metrics
            .pair_timings("duplicate detection")
            .map(|t| {
                let ms = t.elapsed.as_secs_f64() * 1000.0;
                (
                    ms,
                    vec![
                        t.source.clone(),
                        t.pair.clone().unwrap_or_default(),
                        format!("{ms:.1}"),
                        t.pairs_compared.to_string(),
                        t.output_count.to_string(),
                    ],
                )
            })
            .collect();
        pair_rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let top: Vec<Vec<String>> = pair_rows.into_iter().take(10).map(|(_, r)| r).collect();
        print_table(
            "Largest world, parallel+blocked: top duplicate-detection pairs",
            &["source", "vs pair", "ms", "candidates scored", "duplicates"],
            &top,
        );
    }

    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
}
