//! Structured queries over the integrated warehouse.
//!
//! "Finally, querying allows full SQL queries on the schemata as imported."
//! (Section 4.6) Queries run against the relational representation of a single
//! source; in addition, the discovered paths "may also be used to guide the
//! construction of structured queries" — [`Warehouse::join_path_plan`]
//! builds the join along a discovered path so users can query annotation
//! without knowing the foreign keys, and
//! [`Warehouse::cross_source_objects`] answers the multi-database object
//! queries of Section 6 by following discovered object links. This module
//! holds the routines those methods run.
//!
//! [`Warehouse::join_path_plan`]: crate::access::Warehouse::join_path_plan
//! [`Warehouse::cross_source_objects`]: crate::access::Warehouse::cross_source_objects

use crate::error::{AladinError, AladinResult};
use crate::metadata::{LinkAdjacency, LinkKind, ObjectRef};
use crate::pipeline::Aladin;
use aladin_relstore::{
    analyze, exec, optimize, sql, ColumnDef, Database, LogicalPlan, Table, TableSchema, Value,
};

/// Run a parsed statement against one source's database. `SELECT`s are
/// statically analyzed first (see [`aladin_relstore::analyze`]) and refused
/// on error diagnostics, then execute through the rule-based optimizer and
/// the streaming executor; `EXPLAIN SELECT ...` returns the optimized plan
/// as a one-column table of plan lines, followed by the analysis section
/// when the analyzer has something to say.
pub(crate) fn run_statement(db: &Database, statement: sql::Statement) -> AladinResult<Table> {
    match statement {
        sql::Statement::Select(plan) => Ok(exec::execute_checked(db, &plan)?),
        sql::Statement::Explain(plan) => {
            let analysis = analyze::analyze(db, &plan);
            let optimized = optimize::optimize(db, &plan);
            let mut out = Table::new("explain", TableSchema::of(vec![ColumnDef::text("plan")]));
            for line in optimized.explain().lines() {
                out.insert(vec![Value::text(line)])?;
            }
            for line in analysis.explain_section().lines() {
                out.insert(vec![Value::text(line)])?;
            }
            Ok(out)
        }
    }
}

/// Build a logical plan joining the primary relation of a source to one of
/// its secondary tables along the discovered path (inner joins on the guessed
/// relationship columns).
pub(crate) fn build_join_path_plan(
    aladin: &Aladin,
    source: &str,
    secondary_table: &str,
) -> AladinResult<LogicalPlan> {
    let structure = aladin
        .metadata()
        .structure(source)
        .ok_or_else(|| AladinError::UnknownSource(source.to_string()))?;
    let secondary = structure.secondary(secondary_table).ok_or_else(|| {
        AladinError::Discovery(format!("table '{secondary_table}' has no discovered path"))
    })?;
    if secondary.path.len() < 2 {
        return Err(AladinError::Discovery(format!(
            "table '{secondary_table}' is not connected to a primary relation"
        )));
    }
    let mut plan = LogicalPlan::scan(secondary.path[0].clone());
    for window in secondary.path.windows(2) {
        let (left, right) = (&window[0], &window[1]);
        let rel = crate::secondary::find_relationship(&structure.relationships, left, right)
            .ok_or_else(|| {
                AladinError::Discovery(format!("no relationship between '{left}' and '{right}'"))
            })?;
        let (left_col, right_col) = if rel.source_table.eq_ignore_ascii_case(right) {
            (rel.target_column.clone(), rel.source_column.clone())
        } else {
            (rel.source_column.clone(), rel.target_column.clone())
        };
        plan = plan.join(
            LogicalPlan::scan(right.clone()),
            left_col,
            right_col,
            left.clone(),
            right.clone(),
        );
    }
    Ok(plan)
}

/// Cross-source object query over a prebuilt adjacency map. One adjacency
/// build is `O(links)`; the per-object neighbour lookups afterwards are
/// `O(degree)` — replacing the old per-start-object rescan of the entire link
/// set, which made the query quadratic in practice.
pub(crate) fn cross_source_over(
    aladin: &Aladin,
    adjacency: &LinkAdjacency,
    start_source: &str,
    target_source: &str,
) -> AladinResult<Vec<(ObjectRef, ObjectRef, usize)>> {
    let starts = aladin.objects_of(start_source)?;
    // Ensure the target source exists (error reporting parity).
    let _ = aladin.database(target_source)?;
    let mut out = Vec::new();
    for start in starts {
        use std::collections::HashMap;
        let mut counts: HashMap<&ObjectRef, usize> = HashMap::new();
        for n in adjacency.neighbours(&start) {
            if n.kind == LinkKind::Duplicate {
                continue;
            }
            if n.object.source == target_source {
                *counts.entry(&n.object).or_insert(0) += 1;
            }
        }
        for (target, evidence) in counts {
            out.push((start.clone(), target.clone(), evidence));
        }
    }
    out.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::access::warehouse::tests::warehouse;

    #[test]
    fn sql_queries_run_against_a_source() {
        let w = warehouse();
        let result = w
            .sql(
                "protkb",
                "SELECT ac FROM protkb_entry WHERE ac LIKE 'P%' ORDER BY ac",
            )
            .unwrap();
        assert_eq!(result.row_count(), 3);
        assert_eq!(result.cell(0, "ac").unwrap().render(), "P10001");
        assert!(w.sql("missing", "SELECT * FROM t").is_err());
        assert!(w.sql("protkb", "SELECT FROM").is_err());
    }

    #[test]
    fn explain_sql_returns_the_optimized_plan() {
        let w = warehouse();
        let plan = w
            .sql(
                "protkb",
                "EXPLAIN SELECT * FROM protkb_entry WHERE ac = 'P10001'",
            )
            .unwrap();
        assert_eq!(plan.schema().column_names(), vec!["plan"]);
        assert_eq!(
            plan.cell(0, "plan").unwrap().render(),
            "IndexScan protkb_entry.ac = 'P10001'"
        );
    }

    #[test]
    fn sql_is_statically_checked_and_explain_reports_analysis() {
        let w = warehouse();

        // SELECTs run through the analyzer: an unknown column is refused
        // with a suggestion instead of failing mid-execution.
        let err = w
            .sql("protkb", "SELECT acc FROM protkb_entry")
            .unwrap_err()
            .to_string();
        assert!(err.contains("error[E102]"), "{err}");
        assert!(err.contains("did you mean 'ac'?"), "{err}");

        // EXPLAIN appends the analysis section after the plan lines when
        // the analyzer has diagnostics...
        let out = w
            .sql(
                "protkb",
                "EXPLAIN SELECT * FROM protkb_entry WHERE entry_id = 1 AND entry_id = 2",
            )
            .unwrap();
        let lines: Vec<String> = out
            .column_values("plan")
            .unwrap()
            .iter()
            .map(|v| v.render())
            .collect();
        assert_eq!(lines[0], "Empty");
        assert!(lines.iter().any(|l| l == "Analysis:"), "{lines:?}");
        assert!(
            lines.iter().any(|l| l.contains("warning[W201]")),
            "{lines:?}"
        );

        // ...and stays plan-only for clean queries.
        let out = w
            .sql("protkb", "EXPLAIN SELECT ac FROM protkb_entry")
            .unwrap();
        let lines = out.column_values("plan").unwrap();
        assert!(!lines.iter().any(|v| v.render() == "Analysis:"));
    }

    #[test]
    fn path_guided_join_connects_primary_and_annotation() {
        let w = warehouse();
        let joined = w.join_path("protkb", "protkb_dr").unwrap();
        // Two DR rows, each joined to its entry.
        assert_eq!(joined.row_count(), 2);
        assert!(joined.schema().index_of("ac").is_some());
        assert!(joined.schema().index_of("value").is_some());
        // Unknown secondary tables are reported.
        assert!(w.join_path("protkb", "nope").is_err());
    }

    #[test]
    fn cross_source_query_follows_links() {
        let w = warehouse();
        let pairs = w.cross_source_objects("protkb", "structdb").unwrap();
        assert_eq!(pairs.len(), 2);
        assert!(pairs
            .iter()
            .any(|(p, s, _)| p.accession == "P10001" && s.accession == "1ABC"));
        assert!(pairs.iter().all(|(_, _, n)| *n >= 1));
        assert!(w.cross_source_objects("protkb", "missing").is_err());
    }
}
