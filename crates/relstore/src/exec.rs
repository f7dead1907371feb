//! Executors for logical plans.
//!
//! [`execute`] is the streaming executor: it compiles the plan into a
//! pull-based operator tree ([`crate::stream`]) and materializes only the
//! rows that reach the terminal sink, so `Limit`/`Offset` short-circuit
//! upstream work, `Scan` never clones its table, and `Sort`+`Limit` fuses
//! into a bounded top-k. It runs the plan exactly as given.
//! [`execute_checked`] is what the serving paths use: it runs the static
//! analyzer ([`crate::analyze`]) and refuses plans with error diagnostics,
//! then rewrites the plan with the rule-based optimizer
//! ([`crate::optimize`]) — predicate pushdown, index-scan rewriting, join
//! build-side selection — and streams the result through [`execute`].
//!
//! [`execute_naive`] is the original materialize-everything evaluator (every
//! operator consumes a whole [`Table`] and produces one). It is kept as the
//! easy-to-audit reference implementation: the property tests check the
//! streaming executor and the optimizer against it row for row, and the
//! `relstore_exec` bench measures the distance between the two.

use crate::catalog::Database;
use crate::error::{RelError, RelResult};
use crate::optimize::optimize;
use crate::plan::{AggFunc, Aggregate, JoinType, LogicalPlan, SortKey};
use crate::schema::{ColumnDef, TableSchema};
use crate::stream;
use crate::table::{Row, Table};
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashMap;

/// Execute a logical plan against a database with the streaming executor,
/// materializing the result as a table.
pub fn execute(db: &Database, plan: &LogicalPlan) -> RelResult<Table> {
    let mut input = stream::open(db, plan)?;
    let mut out = Table::new(result_name(db, plan), input.schema().clone());
    if let Some(hint) = row_count_hint(db, plan) {
        out.reserve(hint);
    }
    while let Some(row) = input.next_row()? {
        out.insert(row.into_owned())?;
    }
    Ok(out)
}

/// Strict execution: run the static analyzer ([`crate::analyze`]) first and
/// refuse plans with error-severity diagnostics (returning
/// [`RelError::Analysis`]), then optimize and execute. SQL entry points use
/// this so ill-typed queries fail with one precise diagnostic instead of a
/// row-level evaluation error (or, worse, an empty result).
pub fn execute_checked(db: &Database, plan: &LogicalPlan) -> RelResult<Table> {
    if let Some(err) = crate::analyze::analyze(db, plan).to_error() {
        return Err(err);
    }
    execute(db, &optimize(db, plan))
}

/// The name the materialized result table carries, mirroring the naive
/// evaluator: base scans keep the table name, other operators name the result
/// after themselves, and pass-through operators keep their input's name.
fn result_name(db: &Database, plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table } | LogicalPlan::IndexScan { table, .. } => db
            .table(table)
            .map(|t| t.name().to_string())
            .unwrap_or_else(|_| table.clone()),
        LogicalPlan::Filter { .. } => "filter".to_string(),
        LogicalPlan::Project { .. } => "project".to_string(),
        LogicalPlan::Join { .. } => "join".to_string(),
        LogicalPlan::Aggregate { .. } => "aggregate".to_string(),
        LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Offset { input, .. } => result_name(db, input),
        LogicalPlan::Empty { .. } => "empty".to_string(),
    }
}

/// A cheap upper bound on the result cardinality where one is obvious, so the
/// sink can reserve row storage up front instead of growing it insert by
/// insert. The bound is always anchored to real table sizes — a bare `LIMIT`
/// is *not* a hint, since `LIMIT 2000000000` would otherwise pre-allocate
/// gigabytes for a query that returns a handful of rows.
fn row_count_hint(db: &Database, plan: &LogicalPlan) -> Option<usize> {
    match plan {
        LogicalPlan::Scan { table } => db.table(table).ok().map(Table::row_count),
        LogicalPlan::Limit { input, limit } => {
            row_count_hint(db, input).map(|hint| hint.min(*limit))
        }
        LogicalPlan::Offset { input, offset } => {
            row_count_hint(db, input).map(|hint| hint.saturating_sub(*offset))
        }
        LogicalPlan::Sort { input, .. } => row_count_hint(db, input),
        LogicalPlan::Empty { .. } => Some(0),
        _ => None,
    }
}

/// The output schema of an aggregation, shared by the naive evaluator, the
/// streaming executor and the optimizer's schema derivation.
pub(crate) fn aggregate_schema(
    in_schema: &TableSchema,
    group_by: &[String],
    aggregates: &[Aggregate],
) -> RelResult<TableSchema> {
    let mut cols: Vec<ColumnDef> = Vec::with_capacity(group_by.len() + aggregates.len());
    for g in group_by {
        let dt = in_schema
            .column(g)
            .map(|c| c.data_type)
            .unwrap_or(DataType::Text);
        cols.push(ColumnDef::new(g.clone(), dt));
    }
    for a in aggregates {
        let dt = match a.func {
            AggFunc::Count => DataType::Integer,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => DataType::Float,
            AggFunc::Min | AggFunc::Max => a
                .column
                .as_deref()
                .and_then(|c| in_schema.column(c).map(|col| col.data_type))
                .unwrap_or(DataType::Text),
        };
        cols.push(ColumnDef::new(a.alias.clone(), dt));
    }
    TableSchema::new(cols)
}

/// Execute a logical plan with the original materializing evaluator: every
/// operator consumes a fully materialized [`Table`] and produces one. Kept as
/// the reference implementation for property tests and benches; serving code
/// should call [`execute_checked`].
pub fn execute_naive(db: &Database, plan: &LogicalPlan) -> RelResult<Table> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = db.table(table)?;
            Ok(t.clone())
        }
        LogicalPlan::IndexScan {
            table,
            column,
            value,
        } => {
            // The naive evaluator treats an index scan as its definitional
            // equivalent: scan plus equality filter.
            let t = db.table(table)?;
            let idx = t.column_index(column)?;
            let mut out = t.empty_like();
            for row in t.rows() {
                if row[idx].cmp(value) == std::cmp::Ordering::Equal {
                    out.insert(row.clone())?;
                }
            }
            Ok(out)
        }
        LogicalPlan::Filter { input, predicate } => {
            let t = execute_naive(db, input)?;
            let schema = t.schema().clone();
            let mut out = Table::new("filter", schema.clone());
            for row in t.rows() {
                if predicate.eval_predicate(&schema, row)? {
                    out.insert(row.clone())?;
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs } => {
            let t = execute_naive(db, input)?;
            let in_schema = t.schema().clone();
            let mut cols = Vec::with_capacity(exprs.len());
            for (e, name) in exprs {
                cols.push(ColumnDef::new(name.clone(), e.result_type(&in_schema)));
            }
            let out_schema = TableSchema::new(cols)?;
            let mut out = Table::new("project", out_schema);
            for row in t.rows() {
                let mut new_row = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    new_row.push(e.eval(&in_schema, row)?);
                }
                out.insert(new_row)?;
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            left_col,
            right_col,
            join_type,
            left_qualifier,
            right_qualifier,
        } => {
            let lt = execute_naive(db, left)?;
            let rt = execute_naive(db, right)?;
            execute_join(
                &lt,
                &rt,
                left_col,
                right_col,
                *join_type,
                left_qualifier,
                right_qualifier,
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let t = execute_naive(db, input)?;
            execute_aggregate(&t, group_by, aggregates)
        }
        LogicalPlan::Sort { input, keys } => {
            let t = execute_naive(db, input)?;
            execute_sort(&t, keys)
        }
        LogicalPlan::Limit { input, limit } => {
            let t = execute_naive(db, input)?;
            let mut out = t.empty_like();
            for row in t.rows().iter().take(*limit) {
                out.insert(row.clone())?;
            }
            Ok(out)
        }
        LogicalPlan::Offset { input, offset } => {
            let t = execute_naive(db, input)?;
            let mut out = t.empty_like();
            for row in t.rows().iter().skip(*offset) {
                out.insert(row.clone())?;
            }
            Ok(out)
        }
        LogicalPlan::Empty { schema } => Ok(Table::new("empty", schema.clone())),
    }
}

fn execute_join(
    left: &Table,
    right: &Table,
    left_col: &str,
    right_col: &str,
    join_type: JoinType,
    left_qual: &str,
    right_qual: &str,
) -> RelResult<Table> {
    let l_idx = left.column_index(left_col)?;
    let r_idx = right.column_index(right_col)?;
    let out_schema = left.schema().join(right.schema(), left_qual, right_qual);
    let mut out = Table::new("join", out_schema);

    // Hash join: build on the right, probe from the left.
    let mut build: HashMap<&Value, Vec<&Row>> = HashMap::with_capacity(right.row_count());
    for row in right.rows() {
        let key = &row[r_idx];
        if key.is_null() {
            continue;
        }
        build.entry(key).or_default().push(row);
    }

    let right_arity = right.schema().arity();
    for lrow in left.rows() {
        let key = &lrow[l_idx];
        let matches = if key.is_null() { None } else { build.get(key) };
        match matches {
            Some(rrows) => {
                for rrow in rrows {
                    let mut combined = Vec::with_capacity(lrow.len() + rrow.len());
                    combined.extend(lrow.iter().cloned());
                    combined.extend(rrow.iter().cloned());
                    out.insert(combined)?;
                }
            }
            None => {
                if join_type == JoinType::LeftOuter {
                    let mut combined = Vec::with_capacity(lrow.len() + right_arity);
                    combined.extend(lrow.iter().cloned());
                    combined.extend(std::iter::repeat_n(Value::Null, right_arity));
                    out.insert(combined)?;
                }
            }
        }
    }
    Ok(out)
}

fn execute_aggregate(
    input: &Table,
    group_by: &[String],
    aggregates: &[Aggregate],
) -> RelResult<Table> {
    let in_schema = input.schema();
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|c| in_schema.require(c))
        .collect::<RelResult<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggregates
        .iter()
        .map(|a| match &a.column {
            Some(c) => in_schema.require(c).map(Some),
            None => Ok(None),
        })
        .collect::<RelResult<_>>()?;

    let out_schema = aggregate_schema(in_schema, group_by, aggregates)?;
    let mut out = Table::new("aggregate", out_schema);

    // Group rows.
    let mut groups: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for row in input.rows() {
        let key: Vec<Value> = group_idx.iter().map(|i| row[*i].clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    // Deterministic output order.
    let mut keys: Vec<Vec<Value>> = groups.keys().cloned().collect();
    keys.sort();

    for key in keys {
        let rows = &groups[&key];
        let mut out_row: Row = key.clone();
        for (a, idx) in aggregates.iter().zip(&agg_idx) {
            out_row.push(compute_aggregate(a.func, *idx, rows)?);
        }
        out.insert(out_row)?;
    }
    Ok(out)
}

fn compute_aggregate(func: AggFunc, col: Option<usize>, rows: &[&Row]) -> RelResult<Value> {
    match func {
        AggFunc::Count => {
            let n = match col {
                None => rows.len(),
                Some(i) => rows.iter().filter(|r| !r[i].is_null()).count(),
            };
            Ok(Value::Int(n as i64))
        }
        AggFunc::Min | AggFunc::Max => {
            let i = col.ok_or_else(|| RelError::Exec("MIN/MAX require a column".into()))?;
            let mut best: Option<&Value> = None;
            for r in rows {
                let v = &r[i];
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = if func == AggFunc::Min { v < b } else { v > b };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        AggFunc::Sum | AggFunc::Avg => {
            let i = col.ok_or_else(|| RelError::Exec("SUM/AVG require a column".into()))?;
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for r in rows {
                let v = &r[i];
                if v.is_null() {
                    continue;
                }
                let f = v
                    .as_float()
                    .ok_or_else(|| RelError::Exec(format!("non-numeric value '{v}' in SUM/AVG")))?;
                sum += f;
                n += 1;
            }
            if n == 0 {
                return Ok(Value::Null);
            }
            Ok(if func == AggFunc::Sum {
                Value::float(sum)
            } else {
                Value::float(sum / n as f64)
            })
        }
    }
}

fn execute_sort(input: &Table, keys: &[SortKey]) -> RelResult<Table> {
    let schema = input.schema();
    let key_idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| schema.require(&k.column).map(|i| (i, k.ascending)))
        .collect::<RelResult<_>>()?;
    let mut rows: Vec<Row> = input.rows().to_vec();
    rows.sort_by(|a, b| {
        for (i, asc) in &key_idx {
            let ord = a[*i].cmp(&b[*i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut out = input.empty_like();
    for row in rows {
        out.insert(row)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::LogicalPlan;

    fn db() -> Database {
        let mut db = Database::new("src");
        db.create_table(
            "bioentry",
            TableSchema::of(vec![
                ColumnDef::int("bioentry_id"),
                ColumnDef::text("accession"),
                ColumnDef::text("name"),
            ]),
        )
        .unwrap();
        db.create_table(
            "dbref",
            TableSchema::of(vec![
                ColumnDef::int("dbref_id"),
                ColumnDef::int("bioentry_id"),
                ColumnDef::text("accession"),
            ]),
        )
        .unwrap();
        for (id, acc, name) in [
            (1, "P11111", "kinA"),
            (2, "P22222", "kinB"),
            (3, "P33333", "phoC"),
        ] {
            db.insert(
                "bioentry",
                vec![Value::Int(id), Value::text(acc), Value::text(name)],
            )
            .unwrap();
        }
        for (id, be, acc) in [(10, 1, "PDB:1ABC"), (11, 1, "GO:0001"), (12, 2, "PDB:2DEF")] {
            db.insert(
                "dbref",
                vec![Value::Int(id), Value::Int(be), Value::text(acc)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn scan_and_filter() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry").filter(Expr::col("name").like("kin%"));
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 2);
    }

    #[test]
    fn scan_unknown_table_errors() {
        let db = db();
        let plan = LogicalPlan::scan("nope");
        assert!(matches!(
            execute(&db, &plan),
            Err(RelError::UnknownTable(_))
        ));
    }

    #[test]
    fn project_renames_and_computes() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry").project(vec![
            (Expr::col("accession"), "acc".to_string()),
            (
                Expr::binary(
                    crate::expr::BinaryOp::Add,
                    Expr::col("bioentry_id"),
                    Expr::lit(100i64),
                ),
                "shifted".to_string(),
            ),
        ]);
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.schema().column_names(), vec!["acc", "shifted"]);
        assert_eq!(result.cell(0, "shifted").unwrap(), &Value::Int(101));
    }

    #[test]
    fn inner_join_matches_keys() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry").join(
            LogicalPlan::scan("dbref"),
            "bioentry_id",
            "bioentry_id",
            "bioentry",
            "dbref",
        );
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 3);
        // Clashing column names are qualified.
        assert!(result.schema().index_of("bioentry.accession").is_some());
        assert!(result.schema().index_of("dbref.accession").is_some());
    }

    #[test]
    fn left_outer_join_pads_nulls() {
        let db = db();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("bioentry")),
            right: Box::new(LogicalPlan::scan("dbref")),
            left_col: "bioentry_id".into(),
            right_col: "bioentry_id".into(),
            join_type: JoinType::LeftOuter,
            left_qualifier: "bioentry".into(),
            right_qualifier: "dbref".into(),
        };
        let result = execute(&db, &plan).unwrap();
        // bioentry 3 has no dbrefs but must still appear.
        assert_eq!(result.row_count(), 4);
        let unmatched: Vec<_> = result
            .rows()
            .iter()
            .filter(|r| r[0] == Value::Int(3))
            .collect();
        assert_eq!(unmatched.len(), 1);
        assert!(unmatched[0][3].is_null());
    }

    #[test]
    fn aggregate_with_group_by() {
        let db = db();
        let plan = LogicalPlan::scan("dbref").aggregate(
            vec!["bioentry_id".to_string()],
            vec![Aggregate::count_star("n")],
        );
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 2);
        assert_eq!(result.cell(0, "n").unwrap(), &Value::Int(2));
        assert_eq!(result.cell(1, "n").unwrap(), &Value::Int(1));
    }

    #[test]
    fn global_aggregates() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry").aggregate(
            vec![],
            vec![
                Aggregate::count_star("n"),
                Aggregate::of(AggFunc::Min, "accession", "min_acc"),
                Aggregate::of(AggFunc::Max, "bioentry_id", "max_id"),
                Aggregate::of(AggFunc::Avg, "bioentry_id", "avg_id"),
                Aggregate::of(AggFunc::Sum, "bioentry_id", "sum_id"),
            ],
        );
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 1);
        assert_eq!(result.cell(0, "n").unwrap(), &Value::Int(3));
        assert_eq!(result.cell(0, "min_acc").unwrap(), &Value::text("P11111"));
        assert_eq!(result.cell(0, "max_id").unwrap(), &Value::Int(3));
        assert_eq!(result.cell(0, "avg_id").unwrap(), &Value::Float(2.0));
        assert_eq!(result.cell(0, "sum_id").unwrap(), &Value::Float(6.0));
    }

    #[test]
    fn aggregate_on_empty_input_with_grouping_returns_no_rows() {
        let mut db = Database::new("x");
        db.create_table("t", TableSchema::of(vec![ColumnDef::int("a")]))
            .unwrap();
        let plan = LogicalPlan::scan("t")
            .aggregate(vec!["a".to_string()], vec![Aggregate::count_star("n")]);
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 0);
        // Global aggregate over empty input still yields one row.
        let plan = LogicalPlan::scan("t").aggregate(vec![], vec![Aggregate::count_star("n")]);
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 1);
        assert_eq!(result.cell(0, "n").unwrap(), &Value::Int(0));
    }

    #[test]
    fn sort_and_limit() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .sort(vec![SortKey {
                column: "accession".into(),
                ascending: false,
            }])
            .limit(2);
        let result = execute(&db, &plan).unwrap();
        assert_eq!(result.row_count(), 2);
        assert_eq!(result.cell(0, "accession").unwrap(), &Value::text("P33333"));
        assert_eq!(result.cell(1, "accession").unwrap(), &Value::text("P22222"));
    }

    #[test]
    fn offset_skips_rows() {
        let db = db();
        let sorted = LogicalPlan::scan("bioentry").sort(vec![SortKey {
            column: "bioentry_id".into(),
            ascending: true,
        }]);
        let result = execute(&db, &sorted.clone().offset(1)).unwrap();
        assert_eq!(result.row_count(), 2);
        assert_eq!(result.cell(0, "bioentry_id").unwrap(), &Value::Int(2));
        // Offset past the end is empty, offset zero is the identity.
        assert_eq!(
            execute(&db, &sorted.clone().offset(10))
                .unwrap()
                .row_count(),
            0
        );
        assert_eq!(execute(&db, &sorted.offset(0)).unwrap().row_count(), 3);
    }

    #[test]
    fn sum_over_text_column_errors() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .aggregate(vec![], vec![Aggregate::of(AggFunc::Sum, "accession", "s")]);
        assert!(execute(&db, &plan).is_err());
    }
}
