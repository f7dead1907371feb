//! Relstore executor experiment: measures the naive materializing evaluator
//! against the optimized streaming executor on the serving-path query shapes
//! and records the results in `BENCH_relstore.json`, so the bench trajectory
//! has machine-readable data points. Also times `Warehouse::cursor` point
//! lookups at two warehouse sizes to show that index-eligible pagination no
//! longer scales with the table size, and the static analyzer
//! (`aladin_relstore::analyze`): its per-query overhead against the
//! optimize+execute cost of each shape, and the speedup of proven-empty
//! contradiction pruning over naively executing the contradictory filter.

use aladin_bench::print_table;
use aladin_bench::relstore_workload::{build_db, shapes};
use aladin_core::access::{AttrFilter, Warehouse};
use aladin_core::{Aladin, AladinConfig};
use aladin_relstore::analyze::analyze;
use aladin_relstore::exec::{execute, execute_naive};
use aladin_relstore::optimize::optimize;
use aladin_relstore::{ColumnDef, Database, Expr, LogicalPlan, TableSchema, Value};
use std::fmt::Write as _;
use std::time::Instant;

/// Median wall time of `f` in microseconds over `iters` runs.
fn median_us<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn warehouse_with_rows(rows: usize) -> Warehouse {
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
    for i in 0..rows {
        db.insert(
            "protkb_entry",
            vec![
                Value::Int(i as i64),
                Value::text(format!("P{i:06}")),
                Value::text(format!("protein number {i}")),
            ],
        )
        .unwrap();
    }
    let mut aladin = Aladin::new(AladinConfig::default());
    aladin.add_database(db).unwrap();
    let warehouse = Warehouse::from_aladin(aladin);
    warehouse.warm().unwrap();
    warehouse
}

fn main() {
    let sizes = [1_000usize, 10_000, 100_000];
    let mut json = String::from("{\n  \"shapes\": {\n");
    let mut rows_out: Vec<Vec<String>> = Vec::new();
    // Analyzer overhead at the largest size: Σ analyze / Σ (optimize+execute)
    // across the serving shapes. Kept under 5% by construction — the
    // analyzer is a static pass over the plan, not the data.
    let mut analyze_total_100k = 0.0f64;
    let mut serve_total_100k = 0.0f64;

    for (size_idx, &rows) in sizes.iter().enumerate() {
        let db = build_db(rows);
        let shaped = shapes(rows);
        // Warm index/stats caches so optimized numbers reflect steady state.
        for (_, plan) in &shaped {
            execute(&db, &optimize(&db, plan)).unwrap();
        }
        let _ = writeln!(json, "    \"{rows}\": {{");
        for (shape_idx, (name, plan)) in shaped.iter().enumerate() {
            let naive_iters = if rows >= 100_000 { 5 } else { 15 };
            let naive = median_us(naive_iters, || {
                execute_naive(&db, plan).unwrap();
            });
            let optimized = median_us(200, || {
                execute(&db, &optimize(&db, plan)).unwrap();
            });
            let analyzed = median_us(200, || {
                assert!(analyze(&db, plan).is_clean());
            });
            if rows == 100_000 {
                analyze_total_100k += analyzed;
                serve_total_100k += optimized;
            }
            let speedup = naive / optimized.max(1e-3);
            rows_out.push(vec![
                rows.to_string(),
                (*name).to_string(),
                format!("{naive:.1}"),
                format!("{optimized:.1}"),
                format!("{analyzed:.1}"),
                format!("{speedup:.1}x"),
            ]);
            let comma = if shape_idx + 1 < shaped.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                json,
                "      \"{name}\": {{\"naive_us\": {naive:.1}, \"optimized_us\": {optimized:.1}, \"analyze_us\": {analyzed:.1}, \"speedup\": {speedup:.1}}}{comma}"
            );
        }
        let comma = if size_idx + 1 < sizes.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }

    // Static-analysis section: analyzer overhead at 100k, plus the
    // proven-empty short-circuit — a contradictory filter over the 100k
    // table executed naively (scans everything, returns nothing) vs through
    // the optimizer, which rewrites it to an `Empty` relation.
    let overhead_pct = 100.0 * analyze_total_100k / serve_total_100k.max(1e-3);
    let db = build_db(100_000);
    let contradiction = LogicalPlan::scan("bioentry").filter(
        Expr::col("score")
            .eq(Expr::lit(Value::float(0.25)))
            .and(Expr::col("score").eq(Expr::lit(Value::float(0.75)))),
    );
    assert!(analyze(&db, &contradiction).proven_empty());
    execute(&db, &optimize(&db, &contradiction)).unwrap(); // warm stats
    let unpruned = median_us(9, || {
        assert_eq!(execute_naive(&db, &contradiction).unwrap().row_count(), 0);
    });
    let pruned = median_us(200, || {
        assert_eq!(
            execute(&db, &optimize(&db, &contradiction))
                .unwrap()
                .row_count(),
            0
        );
    });
    let short_circuit = unpruned / pruned.max(1e-3);
    json.push_str("  },\n  \"analysis\": {\n");
    let _ = writeln!(json, "    \"overhead_pct_100k\": {overhead_pct:.2},");
    let _ = writeln!(
        json,
        "    \"contradiction\": {{\"unpruned_us\": {unpruned:.1}, \"pruned_us\": {pruned:.1}, \"speedup\": {short_circuit:.1}}}"
    );
    json.push_str("  },\n  \"warehouse_cursor_point_lookup\": {\n");

    print_table(
        "Relstore executor: naive vs. optimized vs. analyze (median µs)",
        &[
            "rows",
            "shape",
            "naive_us",
            "optimized_us",
            "analyze_us",
            "speedup",
        ],
        &rows_out,
    );
    print_table(
        "Static analysis: overhead and proven-empty short-circuit",
        &[
            "analyzer_overhead_pct_100k",
            "contradiction_unpruned_us",
            "contradiction_pruned_us",
            "short_circuit",
        ],
        &[vec![
            format!("{overhead_pct:.2}%"),
            format!("{unpruned:.1}"),
            format!("{pruned:.1}"),
            format!("{short_circuit:.1}x"),
        ]],
    );

    // Warehouse cursor point lookups: per-call cost should stay flat as the
    // warehouse grows, because the equality filter is served via IndexScan.
    let cursor_sizes = [5_000usize, 20_000];
    let mut cursor_rows: Vec<Vec<String>> = Vec::new();
    for (i, &rows) in cursor_sizes.iter().enumerate() {
        let warehouse = warehouse_with_rows(rows);
        let accession = format!("P{:06}", rows / 2);
        // Warm the relstore index once.
        let _ = warehouse
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("ac", &accession))
            .count()
            .unwrap();
        let us = median_us(200, || {
            let mut cursor = warehouse
                .scan()
                .from_source("protkb")
                .filter(AttrFilter::equals("ac", &accession))
                .cursor(10)
                .unwrap();
            let page = cursor.next().unwrap().unwrap();
            assert_eq!(page.len(), 1);
        });
        cursor_rows.push(vec![rows.to_string(), format!("{us:.1}")]);
        let comma = if i + 1 < cursor_sizes.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{rows}\": {us:.1}{comma}");
    }
    json.push_str("  }\n}\n");

    print_table(
        "Warehouse::cursor point lookup (median µs per call)",
        &["warehouse_rows", "cursor_us"],
        &cursor_rows,
    );

    std::fs::write("BENCH_relstore.json", &json).expect("write BENCH_relstore.json");
    println!("\nwrote BENCH_relstore.json");
}
