//! Static-analysis corpus tests: a seeded set of invalid, contradictory and
//! lint-triggering queries whose rendered diagnostics are snapshot-pinned,
//! plus the zero-false-positive sweep (every representative valid query must
//! analyze clean) and proven-empty pruning equivalence checks.

use aladin_relstore::analyze::{analyze, LARGE_INPUT_ROWS};
use aladin_relstore::exec::{execute, execute_naive};
use aladin_relstore::optimize::optimize;
use aladin_relstore::{sql, ColumnDef, Database, LogicalPlan, TableSchema, Value};

/// Fixture warehouse: `bioentry` and `dbref` both larger than
/// [`LARGE_INPUT_ROWS`], so plan lints (L3xx) are live, with a deliberately
/// skewed `organism`/`target` distribution for the near-cartesian lint.
fn db() -> Database {
    let rows = LARGE_INPUT_ROWS as i64 + 200;
    let mut db = Database::new("corpus");
    db.create_table(
        "bioentry",
        TableSchema::of(vec![
            ColumnDef::int("bioentry_id"),
            ColumnDef::text("accession"),
            ColumnDef::text("organism"),
            ColumnDef::float("score"),
        ]),
    )
    .unwrap();
    db.create_table(
        "dbref",
        TableSchema::of(vec![
            ColumnDef::int("dbref_id"),
            ColumnDef::int("bioentry_id"),
            ColumnDef::text("target"),
        ]),
    )
    .unwrap();
    for i in 0..rows {
        db.insert(
            "bioentry",
            vec![
                Value::Int(i),
                Value::text(format!("P{i:05}")),
                Value::text("E. coli"),
                Value::Float(i as f64 / 10.0),
            ],
        )
        .unwrap();
        db.insert(
            "dbref",
            vec![Value::Int(i), Value::Int(i % 50), Value::text("E. coli")],
        )
        .unwrap();
    }
    db
}

/// The seeded corpus: every query here must produce diagnostics, pinned
/// verbatim below. New analyzer rules extend this list.
const CORPUS: &[&str] = &[
    // -- schema resolution errors ----------------------------------------
    "SELECT * FROM bioentries",
    "SELECT * FROM bioentry WHERE accesion = 'P00001'",
    "SELECT acession, organism FROM bioentry",
    "SELECT * FROM bioentry ORDER BY acc",
    "SELECT organsim, COUNT(*) AS n FROM bioentry GROUP BY organsim",
    "SELECT * FROM bioentry JOIN dbref ON bioentry_idx = bioentry_id",
    // -- type errors ------------------------------------------------------
    "SELECT * FROM bioentry WHERE organism",
    "SELECT SUM(organism) AS s FROM bioentry",
    "SELECT organism, AVG(accession) AS a FROM bioentry GROUP BY organism",
    // -- satisfiability ---------------------------------------------------
    "SELECT * FROM bioentry WHERE bioentry_id = 1 AND bioentry_id = 2",
    "SELECT * FROM bioentry WHERE score > 10 AND score < 5",
    "SELECT * FROM bioentry WHERE accession = 'A' AND accession <> 'A'",
    "SELECT * FROM bioentry WHERE organism = NULL",
    "SELECT * FROM bioentry WHERE 1 = 2",
    "SELECT * FROM bioentry WHERE 1 = 1",
    // -- cross-type comparisons -------------------------------------------
    "SELECT * FROM bioentry WHERE accession = 5",
    "SELECT * FROM bioentry JOIN dbref ON accession = dbref_id",
    // -- plan lints ---------------------------------------------------------
    "SELECT * FROM bioentry ORDER BY accession",
    "SELECT * FROM bioentry WHERE score = 1.5",
    "SELECT * FROM bioentry JOIN dbref ON organism = target",
];

fn render_corpus() -> String {
    let db = db();
    let mut out = String::new();
    for sql_text in CORPUS {
        let plan = sql::parse(sql_text).expect("corpus entries must parse");
        let analysis = analyze(&db, &plan);
        out.push_str("== ");
        out.push_str(sql_text);
        out.push('\n');
        out.push_str(&analysis.render());
        out.push('\n');
    }
    out
}

#[test]
fn corpus_diagnostics_are_pinned() {
    let actual = render_corpus();
    let expected = "\
== SELECT * FROM bioentries
error[E101] at Scan bioentries: unknown table 'bioentries' (did you mean 'bioentry'?)

== SELECT * FROM bioentry WHERE accesion = 'P00001'
error[E102] at Filter: unknown column 'accesion' (did you mean 'accession'?)

== SELECT acession, organism FROM bioentry
error[E102] at Project: unknown column 'acession' (did you mean 'accession'?)

== SELECT * FROM bioentry ORDER BY acc
error[E102] at Sort: unknown ORDER BY column 'acc'
lint[L301] at Sort: Sort over an estimated 1200 rows with no Limit above it materializes and orders the whole input

== SELECT organsim, COUNT(*) AS n FROM bioentry GROUP BY organsim
error[E102] at Aggregate: unknown GROUP BY column 'organsim' (did you mean 'organism'?)

== SELECT * FROM bioentry JOIN dbref ON bioentry_idx = bioentry_id
error[E102] at HashJoin: unknown join column 'bioentry_idx' in the left input (did you mean 'bioentry_id'?)

== SELECT * FROM bioentry WHERE organism
error[E106] at Filter: filter predicate organism has type TEXT, expected BOOLEAN

== SELECT SUM(organism) AS s FROM bioentry
error[E107] at Aggregate: SUM(organism) over a TEXT column is not numeric

== SELECT organism, AVG(accession) AS a FROM bioentry GROUP BY organism
error[E107] at Aggregate: AVG(accession) over a TEXT column is not numeric

== SELECT * FROM bioentry WHERE bioentry_id = 1 AND bioentry_id = 2
warning[W201] at Filter: predicate is unsatisfiable ((bioentry_id = 1) contradicts (bioentry_id = 2)): the query returns no rows

== SELECT * FROM bioentry WHERE score > 10 AND score < 5
warning[W201] at Filter: predicate is unsatisfiable ((score > 10) contradicts (score < 5)): the query returns no rows

== SELECT * FROM bioentry WHERE accession = 'A' AND accession <> 'A'
warning[W201] at Filter: predicate is unsatisfiable ((accession = 'A') contradicts (accession <> 'A')): the query returns no rows

== SELECT * FROM bioentry WHERE organism = NULL
warning[W201] at Filter: predicate is unsatisfiable ((organism = NULL) compares with NULL and is never true): the query returns no rows
lint[L302] at Filter: equality (organism = NULL) over the 1200 rows of 'bioentry' cannot be served by a hash index (NULL literal on a TEXT column): full scan

== SELECT * FROM bioentry WHERE 1 = 2
warning[W201] at Filter: predicate is unsatisfiable ((1 = 2) is constant FALSE): the query returns no rows

== SELECT * FROM bioentry WHERE 1 = 1
warning[W202] at Filter: predicate is always true: the filter keeps every row

== SELECT * FROM bioentry WHERE accession = 5
warning[W203] at Filter: comparison (accession = 5) mixes TEXT and INTEGER: under the total value order its outcome never depends on the data
lint[L302] at Filter: equality (accession = 5) over the 1200 rows of 'bioentry' cannot be served by a hash index (INTEGER literal on a TEXT column): full scan

== SELECT * FROM bioentry JOIN dbref ON accession = dbref_id
warning[W204] at HashJoin: join keys have incompatible types (TEXT vs INTEGER): the join can never match

== SELECT * FROM bioentry ORDER BY accession
lint[L301] at Sort: Sort over an estimated 1200 rows with no Limit above it materializes and orders the whole input

== SELECT * FROM bioentry WHERE score = 1.5
lint[L302] at Filter: equality (score = 1.5) over the 1200 rows of 'bioentry' cannot be served by a hash index (FLOAT literal on a FLOAT column): full scan

== SELECT * FROM bioentry JOIN dbref ON organism = target
lint[L303] at HashJoin: join keys 'organism' and 'target' are near-constant: the join degenerates to a cartesian product

";
    assert_eq!(actual, expected, "--- actual ---\n{actual}\n--- end ---");
}

/// Zero false positives: every valid query shape used across the test suite
/// and the benchmarks analyzes clean on this warehouse.
#[test]
fn representative_valid_queries_are_clean() {
    let db = db();
    let valid = [
        "SELECT * FROM bioentry WHERE accession = 'P00042'",
        "SELECT accession, organism FROM bioentry WHERE bioentry_id < 100 LIMIT 10",
        "SELECT * FROM bioentry WHERE score >= 1.0 AND score < 2.0 ORDER BY score LIMIT 25",
        "SELECT * FROM bioentry WHERE accession LIKE 'P0%' LIMIT 5",
        "SELECT organism, COUNT(*) AS n FROM bioentry GROUP BY organism",
        "SELECT organism, MIN(score) AS lo, MAX(score) AS hi FROM bioentry \
         GROUP BY organism",
        "SELECT COUNT(*) AS n FROM bioentry",
        "SELECT * FROM bioentry JOIN dbref ON bioentry_id = bioentry_id \
         WHERE accession = 'P00007'",
        "SELECT * FROM bioentry WHERE organism IS NOT NULL AND score > 3 \
         ORDER BY accession DESC LIMIT 50",
    ];
    for q in valid {
        let plan = sql::parse(q).unwrap();
        let analysis = analyze(&db, &plan);
        assert!(
            analysis.is_clean(),
            "false positive for {q}:\n{}",
            analysis.render()
        );
    }
}

/// Proven-empty queries produce identical (empty) results on the naive,
/// unoptimized path and through the optimizer's Empty pruning — and the
/// optimized plan visibly short-circuits to `Empty`.
#[test]
fn proven_empty_pruning_is_equivalent() {
    let db = db();
    let contradictions = [
        "SELECT * FROM bioentry WHERE bioentry_id = 1 AND bioentry_id = 2",
        "SELECT * FROM bioentry WHERE score > 10 AND score < 5",
        "SELECT * FROM bioentry WHERE organism = NULL",
        "SELECT accession FROM bioentry WHERE 1 = 2 ORDER BY accession LIMIT 3",
        "SELECT organism, COUNT(*) AS n FROM bioentry WHERE 1 = 2 GROUP BY organism",
    ];
    for q in contradictions {
        let plan = sql::parse(q).unwrap();
        let analysis = analyze(&db, &plan);
        assert!(analysis.proven_empty(), "not proven empty: {q}");

        let reference = execute_naive(&db, &plan).unwrap();
        let optimized_plan = optimize(&db, &plan);
        let optimized = execute(&db, &optimized_plan).unwrap();
        assert_eq!(reference.row_count(), 0, "{q}");
        assert_eq!(optimized.row_count(), 0, "{q}");
        assert_eq!(
            reference.schema().column_names(),
            optimized.schema().column_names(),
            "{q}"
        );
        assert!(
            optimized_plan.explain().contains("Empty"),
            "no Empty node for {q}:\n{}",
            optimized_plan.explain()
        );
    }
}

/// A plan the analyzer proves empty but whose predicate is ill-typed must
/// NOT be pruned: both paths keep reporting the underlying error.
#[test]
fn ill_typed_contradictions_still_error() {
    let db = db();
    let plan = LogicalPlan::scan("bioentry").filter(
        aladin_relstore::Expr::col("missing")
            .eq(aladin_relstore::Expr::lit(1i64))
            .and(aladin_relstore::Expr::col("missing").eq(aladin_relstore::Expr::lit(2i64))),
    );
    assert!(execute_naive(&db, &plan).is_err());
    assert!(execute(&db, &optimize(&db, &plan)).is_err());
}
