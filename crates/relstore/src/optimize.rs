//! Rule-based plan optimization.
//!
//! [`optimize`] rewrites a [`LogicalPlan`] into an observationally equivalent
//! plan that the streaming executor ([`crate::stream`]) runs faster. The
//! optimizer is best-effort and infallible: whenever a rule cannot prove a
//! rewrite safe (an unknown table, an ambiguous column, a literal whose
//! rendered form is not faithful to `=`), it leaves the node unchanged and
//! the executor reports any real error. Rules are applied bottom-up and the
//! whole pass is iterated to a fixpoint (bounded), so rewrites compose — a
//! predicate pushed below a `Sort` is index-rewritten on the next pass.
//!
//! The rules:
//!
//! 1. **Filter merging** — `Filter(p₂, Filter(p₁, x))` becomes
//!    `Filter(p₁ AND p₂, x)`, giving the later rules one conjunction to work
//!    with.
//! 2. **Predicate pushdown** — filters move below `Sort` (sorting commutes
//!    with filtering), below `Project` when every referenced column is a
//!    plain pass-through column (references are renamed to the input
//!    columns), and into `Join` inputs conjunct by conjunct: a conjunct whose
//!    columns all resolve in exactly one input moves to that input (for a
//!    left-outer join only the left input is eligible — pushing right would
//!    drop the NULL-padded rows).
//! 3. **Limit/offset pushdown** — `Limit`/`Offset` move below `Project` so
//!    the projection evaluates only the rows that survive pagination;
//!    adjacent `Limit`s collapse to the smaller one, adjacent `Offset`s sum.
//! 4. **Projection pruning** — `Project(Project(x))` collapses by
//!    substituting the inner expressions into the outer ones, and an identity
//!    projection (plain columns, same names, same order as its input) is
//!    removed entirely.
//! 5. **Index-scan rewriting** — an equality conjunct `column = literal`
//!    directly above a base `Scan` becomes an [`LogicalPlan::IndexScan`]
//!    backed by the catalog's cached [`crate::index::HashIndex`], with the
//!    remaining conjuncts left as a residual filter. Because the hash index
//!    keys on *rendered* values, the rewrite only fires when rendered
//!    equality is faithful to `=`: text literals (on any column), or integer
//!    literals on INTEGER columns. Among several eligible conjuncts the one
//!    with the fewest estimated matches (per cached [`crate::stats::ColumnStats`]) wins.
//! 6. **Join build-side selection** — the executor builds the hash table on
//!    the *right* input of a join; for inner joins whose left input is
//!    estimated (via table row counts and [`crate::stats::ColumnStats`] selectivities) to
//!    be clearly smaller, the inputs are swapped and a projection restores
//!    the original column order.
//! 7. **Proven-empty pruning** — the static analyzer's satisfiability engine
//!    ([`crate::analyze`]) runs over each filter's conjunction: a proven
//!    contradiction (`a = 1 AND a = 2`, `x > 10 AND x < 5`) collapses the
//!    subtree to [`LogicalPlan::Empty`] and constant-true conjuncts are
//!    dropped. Emptiness then propagates upward (an inner join with an empty
//!    input is empty, grouped aggregation over nothing yields no rows, ...),
//!    skipping scans and join builds entirely. Pruning only fires when it
//!    provably cannot mask a runtime error: the predicate must be statically
//!    well typed and every column the executors resolve up front must
//!    resolve.
//!
//! The equivalence contract — `execute(optimize(plan))` returns the same rows
//! as `execute(plan)` — is property-tested in `tests/props.rs` against
//! randomly generated plans and data (up to row order for plans containing a
//! swapped join; everything else preserves order exactly).

use crate::analyze::{conjunction_satisfiability, expr_is_well_typed, Satisfiability};
use crate::catalog::Database;
use crate::error::RelResult;
use crate::exec::aggregate_schema;
use crate::expr::{as_column_cmp_literal, split_conjuncts, BinaryOp, Expr};
use crate::plan::{AggFunc, JoinType, LogicalPlan};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::Table;
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashMap;

/// Maximum number of whole-plan rewrite passes; each pass is a bottom-up
/// traversal, so this bounds how far a rewrite can cascade.
const MAX_PASSES: usize = 5;

/// Estimated build-side rows below which swapping join inputs is not worth
/// the restoring projection.
const SWAP_MIN_ROWS: f64 = 64.0;

/// Optimize a plan for execution against `db`. Infallible: nodes that cannot
/// be safely rewritten are returned unchanged.
pub fn optimize(db: &Database, plan: &LogicalPlan) -> LogicalPlan {
    let mut current = plan.clone();
    for _ in 0..MAX_PASSES {
        let next = rewrite(db, &current);
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// One bottom-up rewrite pass.
fn rewrite(db: &Database, plan: &LogicalPlan) -> LogicalPlan {
    let node = match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::IndexScan { .. } | LogicalPlan::Empty { .. } => {
            plan.clone()
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(rewrite(db, input)),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(rewrite(db, input)),
            exprs: exprs.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            left_col,
            right_col,
            join_type,
            left_qualifier,
            right_qualifier,
        } => LogicalPlan::Join {
            left: Box::new(rewrite(db, left)),
            right: Box::new(rewrite(db, right)),
            left_col: left_col.clone(),
            right_col: right_col.clone(),
            join_type: *join_type,
            left_qualifier: left_qualifier.clone(),
            right_qualifier: right_qualifier.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(db, input)),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(db, input)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(rewrite(db, input)),
            limit: *limit,
        },
        LogicalPlan::Offset { input, offset } => LogicalPlan::Offset {
            input: Box::new(rewrite(db, input)),
            offset: *offset,
        },
    };
    // Rule 7 (propagation): operators over a proven-empty input are
    // themselves empty where that is provably equivalent.
    if let Some(empty) = propagate_empty(db, &node) {
        return empty;
    }
    match node {
        LogicalPlan::Filter { .. } => rewrite_filter(db, node),
        LogicalPlan::Limit { .. } | LogicalPlan::Offset { .. } => rewrite_pagination(node),
        LogicalPlan::Project { .. } => rewrite_project(db, node),
        LogicalPlan::Join { .. } => rewrite_join(db, node),
        other => other,
    }
}

/// Rule 7 (propagation): rewrite an operator whose input was proven empty.
/// Every case is guarded so pruning never changes observable behaviour: the
/// executors resolve sort keys, join keys and aggregate columns *before*
/// reading any rows, so those must resolve for the pruned plan to be
/// equivalent; a left-outer join with an empty right input keeps its left
/// rows, and a global (ungrouped) aggregate over nothing yields one row —
/// neither is pruned.
fn propagate_empty(db: &Database, node: &LogicalPlan) -> Option<LogicalPlan> {
    fn empty_schema(plan: &LogicalPlan) -> Option<&TableSchema> {
        match plan {
            LogicalPlan::Empty { schema } => Some(schema),
            _ => None,
        }
    }
    match node {
        // Pass-through operators over an empty input are that input. Filter
        // predicates are evaluated per row, so an empty input can never
        // surface a predicate error anyway.
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Offset { input, .. }
            if empty_schema(input).is_some() =>
        {
            Some((**input).clone())
        }
        LogicalPlan::Sort { input, keys } => {
            let schema = empty_schema(input)?;
            if keys.iter().all(|k| schema.index_of(&k.column).is_some()) {
                Some((**input).clone())
            } else {
                None
            }
        }
        LogicalPlan::Project { input, .. } if empty_schema(input).is_some() => {
            // schema_of fails on duplicate output names, which the executors
            // also reject — so a failure simply leaves the node unpruned.
            let schema = schema_of(db, node).ok()?;
            Some(LogicalPlan::Empty { schema })
        }
        LogicalPlan::Join {
            left,
            right,
            left_col,
            right_col,
            join_type,
            ..
        } => {
            let prunable = empty_schema(left).is_some()
                || (*join_type == JoinType::Inner && empty_schema(right).is_some());
            if !prunable {
                return None;
            }
            let ls = schema_of(db, left).ok()?;
            let rs = schema_of(db, right).ok()?;
            if ls.index_of(left_col).is_none() || rs.index_of(right_col).is_none() {
                return None;
            }
            let schema = schema_of(db, node).ok()?;
            Some(LogicalPlan::Empty { schema })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let schema = empty_schema(input)?;
            if group_by.is_empty() {
                return None;
            }
            let resolvable = group_by.iter().all(|c| schema.index_of(c).is_some())
                && aggregates.iter().all(|a| match (&a.column, a.func) {
                    (Some(c), _) => schema.index_of(c).is_some(),
                    (None, AggFunc::Count) => true,
                    (None, _) => false,
                });
            if !resolvable {
                return None;
            }
            let schema = schema_of(db, node).ok()?;
            Some(LogicalPlan::Empty { schema })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Rule 1 + 2 + 5: filters
// ---------------------------------------------------------------------------

fn rewrite_filter(db: &Database, node: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = node else {
        return node;
    };
    // Rule 7: satisfiability over the conjunction. A proven contradiction
    // collapses the subtree to an empty relation — but only when the
    // predicate is statically well typed, so pruning never masks a runtime
    // error — and proven constant-true conjuncts are dropped.
    if let Ok(schema) = schema_of(db, &input) {
        let mut conjuncts = Vec::new();
        split_conjuncts(&predicate, &mut conjuncts);
        match conjunction_satisfiability(&conjuncts) {
            Satisfiability::Contradiction(_) => {
                if expr_is_well_typed(&predicate, &schema) {
                    return LogicalPlan::Empty { schema };
                }
            }
            Satisfiability::Satisfiable { true_conjuncts } => {
                if !true_conjuncts.is_empty() {
                    let remaining: Vec<Expr> = conjuncts
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| !true_conjuncts.contains(i))
                        .map(|(_, c)| c)
                        .collect();
                    return match conjoin(remaining) {
                        Some(p) => rewrite_filter(
                            db,
                            LogicalPlan::Filter {
                                input,
                                predicate: p,
                            },
                        ),
                        None => *input,
                    };
                }
            }
        }
    }
    match *input {
        // Rule 1: merge stacked filters into one conjunction.
        LogicalPlan::Filter {
            input: inner_input,
            predicate: inner_predicate,
        } => rewrite_filter(
            db,
            LogicalPlan::Filter {
                input: inner_input,
                predicate: inner_predicate.and(predicate),
            },
        ),
        // Rule 2: filtering commutes with sorting.
        LogicalPlan::Sort {
            input: sort_input,
            keys,
        } => LogicalPlan::Sort {
            input: Box::new(rewrite_filter(
                db,
                LogicalPlan::Filter {
                    input: sort_input,
                    predicate,
                },
            )),
            keys,
        },
        // Rule 2: push below a projection of plain columns.
        LogicalPlan::Project {
            input: project_input,
            exprs,
        } => match rename_through_project(&predicate, &exprs) {
            Some(renamed) => LogicalPlan::Project {
                input: Box::new(rewrite_filter(
                    db,
                    LogicalPlan::Filter {
                        input: project_input,
                        predicate: renamed,
                    },
                )),
                exprs,
            },
            None => LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Project {
                    input: project_input,
                    exprs,
                }),
                predicate,
            },
        },
        // Rule 2: push conjuncts into the join side they reference.
        join @ LogicalPlan::Join { .. } => push_into_join(db, predicate, join),
        // Rule 5: equality conjuncts over a base scan become index scans.
        LogicalPlan::Scan { table } => rewrite_scan_filter(db, table, predicate),
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// Rebuild a conjunction; `None` for an empty list.
fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
    parts.into_iter().reduce(Expr::and)
}

/// Rewrite a predicate's column references from projection output names to
/// the projection's input columns. `None` when any referenced column is not a
/// plain pass-through column.
fn rename_through_project(predicate: &Expr, exprs: &[(Expr, String)]) -> Option<Expr> {
    let mut map: HashMap<String, String> = HashMap::new();
    for (e, name) in exprs {
        if let Expr::Column(inner) = e {
            map.insert(name.to_ascii_lowercase(), inner.clone());
        }
    }
    rename_columns(predicate, &map)
}

fn rename_columns(e: &Expr, map: &HashMap<String, String>) -> Option<Expr> {
    match e {
        Expr::Column(c) => map
            .get(&c.to_ascii_lowercase())
            .map(|inner| Expr::Column(inner.clone())),
        Expr::Literal(_) => Some(e.clone()),
        Expr::Binary { op, left, right } => Some(Expr::Binary {
            op: *op,
            left: Box::new(rename_columns(left, map)?),
            right: Box::new(rename_columns(right, map)?),
        }),
        Expr::Not(inner) => Some(Expr::Not(Box::new(rename_columns(inner, map)?))),
        Expr::IsNull(inner) => Some(Expr::IsNull(Box::new(rename_columns(inner, map)?))),
        Expr::IsNotNull(inner) => Some(Expr::IsNotNull(Box::new(rename_columns(inner, map)?))),
    }
}

/// Push the conjuncts of `predicate` into the inputs of `join` where they
/// resolve unambiguously; the rest stays above the join.
fn push_into_join(db: &Database, predicate: Expr, join: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Join {
        left,
        right,
        left_col,
        right_col,
        join_type,
        left_qualifier,
        right_qualifier,
    } = join
    else {
        unreachable!("caller matched a join");
    };
    let (Ok(left_schema), Ok(right_schema)) = (schema_of(db, &left), schema_of(db, &right)) else {
        // Unknown tables etc.: leave the filter above, the executor reports.
        return LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
                join_type,
                left_qualifier,
                right_qualifier,
            }),
            predicate,
        };
    };

    let mut conjuncts = Vec::new();
    split_conjuncts(&predicate, &mut conjuncts);
    let (mut to_left, mut to_right, mut keep) = (Vec::new(), Vec::new(), Vec::new());
    for conjunct in conjuncts {
        let cols = conjunct.referenced_columns();
        let on_left = cols.iter().all(|c| left_schema.index_of(c).is_some());
        let on_right = cols.iter().all(|c| right_schema.index_of(c).is_some());
        match (on_left, on_right) {
            // Columns resolving on both sides are ambiguous: keep above.
            (true, false) => to_left.push(conjunct),
            // Pushing right through a left-outer join would drop padded rows.
            (false, true) if join_type == JoinType::Inner => to_right.push(conjunct),
            _ => keep.push(conjunct),
        }
    }

    let mut new_left = *left;
    if let Some(p) = conjoin(to_left) {
        new_left = rewrite_filter(
            db,
            LogicalPlan::Filter {
                input: Box::new(new_left),
                predicate: p,
            },
        );
    }
    let mut new_right = *right;
    if let Some(p) = conjoin(to_right) {
        new_right = rewrite_filter(
            db,
            LogicalPlan::Filter {
                input: Box::new(new_right),
                predicate: p,
            },
        );
    }
    let joined = LogicalPlan::Join {
        left: Box::new(new_left),
        right: Box::new(new_right),
        left_col,
        right_col,
        join_type,
        left_qualifier,
        right_qualifier,
    };
    match conjoin(keep) {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(joined),
            predicate: p,
        },
        None => joined,
    }
}

/// Rule 5: rewrite `Filter(.. AND column = literal AND .., Scan(t))` into an
/// `IndexScan` plus a residual filter. Only fires when rendered-key equality
/// is faithful to `=` (see the module docs).
fn rewrite_scan_filter(db: &Database, table: String, predicate: Expr) -> LogicalPlan {
    let keep_unchanged = |predicate: Expr| LogicalPlan::Filter {
        input: Box::new(LogicalPlan::Scan {
            table: table.clone(),
        }),
        predicate,
    };
    let Ok(t) = db.table(&table) else {
        return keep_unchanged(predicate);
    };

    let mut conjuncts = Vec::new();
    split_conjuncts(&predicate, &mut conjuncts);

    // Find the eligible equality conjunct with the fewest estimated matches.
    let mut best: Option<(usize, String, Value, f64)> = None;
    for (i, conjunct) in conjuncts.iter().enumerate() {
        let Some((column, BinaryOp::Eq, value)) = as_column_cmp_literal(conjunct) else {
            continue;
        };
        let Some(def) = t.schema().column(column) else {
            continue;
        };
        let faithful = match value {
            Value::Text(_) => true,
            Value::Int(_) => def.data_type == DataType::Integer,
            _ => false,
        };
        if !faithful {
            continue;
        }
        let estimate = db
            .column_stats(&table, &def.name)
            .map(|s| s.estimated_eq_rows())
            .unwrap_or(f64::MAX);
        if best.as_ref().is_none_or(|(_, _, _, e)| estimate < *e) {
            best = Some((i, def.name.clone(), value.clone(), estimate));
        }
    }
    let Some((chosen, column, value, _)) = best else {
        return keep_unchanged(predicate);
    };

    conjuncts.remove(chosen);
    let scan = LogicalPlan::IndexScan {
        table,
        column,
        value,
    };
    match conjoin(conjuncts) {
        Some(residual) => LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: residual,
        },
        None => scan,
    }
}

// ---------------------------------------------------------------------------
// Rule 3: limit/offset pushdown
// ---------------------------------------------------------------------------

fn rewrite_pagination(node: LogicalPlan) -> LogicalPlan {
    match node {
        LogicalPlan::Limit { input, limit } => match *input {
            // Adjacent limits collapse to the smaller.
            LogicalPlan::Limit {
                input: inner,
                limit: inner_limit,
            } => rewrite_pagination(LogicalPlan::Limit {
                input: inner,
                limit: limit.min(inner_limit),
            }),
            // A projection computes per-row; paginate first.
            LogicalPlan::Project {
                input: project_input,
                exprs,
            } => LogicalPlan::Project {
                input: Box::new(rewrite_pagination(LogicalPlan::Limit {
                    input: project_input,
                    limit,
                })),
                exprs,
            },
            other => LogicalPlan::Limit {
                input: Box::new(other),
                limit,
            },
        },
        LogicalPlan::Offset { input, offset } => match *input {
            // Adjacent offsets sum.
            LogicalPlan::Offset {
                input: inner,
                offset: inner_offset,
            } => rewrite_pagination(LogicalPlan::Offset {
                input: inner,
                offset: offset.saturating_add(inner_offset),
            }),
            LogicalPlan::Project {
                input: project_input,
                exprs,
            } => LogicalPlan::Project {
                input: Box::new(rewrite_pagination(LogicalPlan::Offset {
                    input: project_input,
                    offset,
                })),
                exprs,
            },
            other => LogicalPlan::Offset {
                input: Box::new(other),
                offset,
            },
        },
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Rule 4: projection pruning
// ---------------------------------------------------------------------------

fn rewrite_project(db: &Database, node: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Project { input, exprs } = node else {
        return node;
    };
    // Collapse Project(Project) by substituting inner expressions.
    if let LogicalPlan::Project {
        input: inner_input,
        exprs: inner_exprs,
    } = &*input
    {
        let mut map: HashMap<String, Expr> = HashMap::new();
        for (e, name) in inner_exprs {
            map.insert(name.to_ascii_lowercase(), e.clone());
        }
        let substituted: Option<Vec<(Expr, String)>> = exprs
            .iter()
            .map(|(e, name)| substitute_columns(e, &map).map(|s| (s, name.clone())))
            .collect();
        if let Some(exprs) = substituted {
            return rewrite_project(
                db,
                LogicalPlan::Project {
                    input: inner_input.clone(),
                    exprs,
                },
            );
        }
    }
    // Remove identity projections.
    if let Ok(in_schema) = schema_of(db, &input) {
        let identity = exprs.len() == in_schema.arity()
            && exprs
                .iter()
                .zip(in_schema.columns())
                .all(|((e, name), col)| {
                    name == &col.name
                        && matches!(e, Expr::Column(c) if c.eq_ignore_ascii_case(&col.name))
                });
        if identity {
            return *input;
        }
    }
    LogicalPlan::Project { input, exprs }
}

fn substitute_columns(e: &Expr, map: &HashMap<String, Expr>) -> Option<Expr> {
    match e {
        Expr::Column(c) => map.get(&c.to_ascii_lowercase()).cloned(),
        Expr::Literal(_) => Some(e.clone()),
        Expr::Binary { op, left, right } => Some(Expr::Binary {
            op: *op,
            left: Box::new(substitute_columns(left, map)?),
            right: Box::new(substitute_columns(right, map)?),
        }),
        Expr::Not(inner) => Some(Expr::Not(Box::new(substitute_columns(inner, map)?))),
        Expr::IsNull(inner) => Some(Expr::IsNull(Box::new(substitute_columns(inner, map)?))),
        Expr::IsNotNull(inner) => Some(Expr::IsNotNull(Box::new(substitute_columns(inner, map)?))),
    }
}

// ---------------------------------------------------------------------------
// Rule 6: join build-side selection
// ---------------------------------------------------------------------------

fn rewrite_join(db: &Database, node: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Join {
        left,
        right,
        left_col,
        right_col,
        join_type,
        left_qualifier,
        right_qualifier,
    } = &node
    else {
        return node;
    };
    if *join_type != JoinType::Inner {
        return node;
    }
    let est_left = estimate_rows(db, left);
    let est_right = estimate_rows(db, right);
    // The executor builds its hash table on the right input: swap when the
    // left is clearly the smaller build side (1.5x hysteresis so repeated
    // passes never flip back and forth).
    if est_right < SWAP_MIN_ROWS || est_left * 1.5 >= est_right {
        return node;
    }
    let Ok(original_schema) = schema_of(db, &node) else {
        return node;
    };
    let swapped = LogicalPlan::Join {
        left: right.clone(),
        right: left.clone(),
        left_col: right_col.clone(),
        right_col: left_col.clone(),
        join_type: JoinType::Inner,
        left_qualifier: right_qualifier.clone(),
        right_qualifier: left_qualifier.clone(),
    };
    // Clash-driven qualification is symmetric, so the swapped join exposes
    // the same column names; a projection restores the original order.
    let exprs: Vec<(Expr, String)> = original_schema
        .columns()
        .iter()
        .map(|c| (Expr::col(c.name.clone()), c.name.clone()))
        .collect();
    LogicalPlan::Project {
        input: Box::new(swapped),
        exprs,
    }
}

// ---------------------------------------------------------------------------
// Schema derivation and cardinality estimation
// ---------------------------------------------------------------------------

/// Derive the output schema of a plan without executing it.
fn schema_of(db: &Database, plan: &LogicalPlan) -> RelResult<TableSchema> {
    match plan {
        LogicalPlan::Scan { table } | LogicalPlan::IndexScan { table, .. } => {
            Ok(db.table(table)?.schema().clone())
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Offset { input, .. } => schema_of(db, input),
        LogicalPlan::Project { input, exprs } => {
            let in_schema = schema_of(db, input)?;
            let cols = exprs
                .iter()
                .map(|(e, name)| ColumnDef::new(name.clone(), e.result_type(&in_schema)))
                .collect();
            TableSchema::new(cols)
        }
        LogicalPlan::Join {
            left,
            right,
            left_qualifier,
            right_qualifier,
            ..
        } => {
            let l = schema_of(db, left)?;
            let r = schema_of(db, right)?;
            Ok(l.join(&r, left_qualifier, right_qualifier))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let in_schema = schema_of(db, input)?;
            aggregate_schema(&in_schema, group_by, aggregates)
        }
        LogicalPlan::Empty { schema } => Ok(schema.clone()),
    }
}

/// Rough output-cardinality estimate, used to pick join build sides. Base
/// tables count rows, equality predicates use the cached per-column
/// statistics, everything else applies fixed selectivities — deliberately
/// coarse, only relative order matters.
pub fn estimate_rows(db: &Database, plan: &LogicalPlan) -> f64 {
    match plan {
        LogicalPlan::Scan { table } => db
            .table(table)
            .map(|t| Table::row_count(t) as f64)
            .unwrap_or(1000.0),
        LogicalPlan::IndexScan { table, column, .. } => db
            .column_stats(table, column)
            .map(|s| s.estimated_eq_rows())
            .unwrap_or(1.0),
        LogicalPlan::Filter { input, predicate } => {
            estimate_rows(db, input) * selectivity(db, input, predicate)
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => {
            estimate_rows(db, input)
        }
        LogicalPlan::Join { left, right, .. } => {
            estimate_rows(db, left).max(estimate_rows(db, right))
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                estimate_rows(db, input)
            }
        }
        LogicalPlan::Limit { input, limit } => estimate_rows(db, input).min(*limit as f64),
        LogicalPlan::Offset { input, offset } => {
            (estimate_rows(db, input) - *offset as f64).max(0.0)
        }
        LogicalPlan::Empty { .. } => 0.0,
    }
}

/// Fraction of input rows a predicate is assumed to keep.
fn selectivity(db: &Database, input: &LogicalPlan, predicate: &Expr) -> f64 {
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate, &mut conjuncts);
    let mut keep = 1.0f64;
    for conjunct in &conjuncts {
        let s = match conjunct {
            Expr::Binary {
                op: BinaryOp::Eq, ..
            } => match (as_column_cmp_literal(conjunct), input) {
                (Some((column, _, value)), LogicalPlan::Scan { table }) if !value.is_null() => {
                    match (db.column_stats(table, column), db.table(table)) {
                        (Ok(stats), Ok(t)) if t.row_count() > 0 => {
                            (stats.estimated_eq_rows() / t.row_count() as f64).clamp(0.0, 1.0)
                        }
                        _ => 0.1,
                    }
                }
                _ => 0.1,
            },
            Expr::Binary {
                op: BinaryOp::Like, ..
            } => 0.25,
            Expr::IsNull(_) => 0.1,
            _ => 0.33,
        };
        keep *= s;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_naive};
    use crate::plan::SortKey;

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
                ColumnDef::text("target"),
            ]),
        )
        .unwrap();
        for i in 0..200i64 {
            db.insert(
                "bioentry",
                vec![
                    Value::Int(i),
                    Value::text(format!("P{i:05}")),
                    Value::text(format!("protein {i}")),
                ],
            )
            .unwrap();
        }
        for i in 0..20i64 {
            db.insert(
                "dbref",
                vec![
                    Value::Int(1000 + i),
                    Value::Int(i * 7),
                    Value::text(format!("PDB:{i}")),
                ],
            )
            .unwrap();
        }
        db
    }

    fn assert_same_rows(db: &Database, plan: &LogicalPlan) {
        let optimized = optimize(db, plan);
        let a = execute_naive(db, plan).unwrap();
        let b = execute(db, &optimized).unwrap();
        assert_eq!(
            a.schema().column_names(),
            b.schema().column_names(),
            "schema mismatch for optimized plan:\n{}",
            optimized.explain()
        );
        let mut rows_a = a.rows().to_vec();
        let mut rows_b = b.rows().to_vec();
        rows_a.sort();
        rows_b.sort();
        assert_eq!(rows_a, rows_b, "row mismatch:\n{}", optimized.explain());
    }

    #[test]
    fn equality_filter_over_scan_becomes_index_scan() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .filter(Expr::col("accession").eq(Expr::lit(Value::text("P00007"))));
        let optimized = optimize(&db, &plan);
        assert_eq!(
            optimized.explain(),
            "IndexScan bioentry.accession = 'P00007'\n"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn residual_conjuncts_stay_above_the_index_scan() {
        let db = db();
        let predicate = Expr::col("accession")
            .eq(Expr::lit(Value::text("P00007")))
            .and(Expr::col("name").like("protein%"));
        let plan = LogicalPlan::scan("bioentry").filter(predicate);
        let optimized = optimize(&db, &plan);
        assert_eq!(
            optimized.explain(),
            "Filter (name LIKE 'protein%')\n  IndexScan bioentry.accession = 'P00007'\n"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn int_equality_on_integer_column_is_eligible_but_float_is_not() {
        let db = db();
        let int_plan =
            LogicalPlan::scan("bioentry").filter(Expr::col("bioentry_id").eq(Expr::lit(7i64)));
        assert!(optimize(&db, &int_plan).explain().starts_with("IndexScan"));
        let float_plan =
            LogicalPlan::scan("bioentry").filter(Expr::col("bioentry_id").eq(Expr::lit(7.0f64)));
        assert!(optimize(&db, &float_plan).explain().starts_with("Filter"));
        assert_same_rows(&db, &int_plan);
        assert_same_rows(&db, &float_plan);
    }

    #[test]
    fn predicate_pushes_through_sort_and_project() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .project_columns(&["accession", "name"])
            .sort(vec![SortKey {
                column: "accession".into(),
                ascending: true,
            }])
            .filter(Expr::col("accession").eq(Expr::lit(Value::text("P00003"))));
        let optimized = optimize(&db, &plan);
        assert_eq!(
            optimized.explain(),
            "Sort accession ASC\n  Project accession, name\n    IndexScan bioentry.accession = 'P00003'\n"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn predicate_pushes_into_join_sides() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .join(
                LogicalPlan::scan("dbref"),
                "bioentry_id",
                "bioentry_id",
                "bioentry",
                "dbref",
            )
            .filter(
                Expr::col("accession")
                    .eq(Expr::lit(Value::text("P00007")))
                    .and(Expr::col("target").like("PDB%")),
            );
        let optimized = optimize(&db, &plan);
        let explain = optimized.explain();
        assert!(
            explain.contains("IndexScan bioentry.accession = 'P00007'"),
            "left conjunct not pushed:\n{explain}"
        );
        assert!(
            explain.contains("Filter (target LIKE 'PDB%')"),
            "right conjunct not pushed:\n{explain}"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn left_outer_join_only_pushes_left_conjuncts() {
        let db = db();
        let join = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("bioentry")),
            right: Box::new(LogicalPlan::scan("dbref")),
            left_col: "bioentry_id".into(),
            right_col: "bioentry_id".into(),
            join_type: JoinType::LeftOuter,
            left_qualifier: "bioentry".into(),
            right_qualifier: "dbref".into(),
        };
        let plan = join.filter(
            Expr::col("accession")
                .eq(Expr::lit(Value::text("P00007")))
                .and(Expr::IsNull(Box::new(Expr::col("target")))),
        );
        let optimized = optimize(&db, &plan);
        let explain = optimized.explain();
        // The right-side conjunct must stay above the join.
        assert!(
            explain.starts_with("Filter (target IS NULL)"),
            "unexpected plan:\n{explain}"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn limit_pushes_below_project_and_merges() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .project_columns(&["accession"])
            .limit(10)
            .limit(5);
        let optimized = optimize(&db, &plan);
        assert_eq!(
            optimized.explain(),
            "Project accession\n  Limit 5\n    Scan bioentry\n"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn offsets_merge_and_push_below_project() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .project_columns(&["accession"])
            .offset(3)
            .offset(4);
        let optimized = optimize(&db, &plan);
        assert_eq!(
            optimized.explain(),
            "Project accession\n  Offset 7\n    Scan bioentry\n"
        );
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn identity_projection_is_removed_and_projections_collapse() {
        let db = db();
        let identity =
            LogicalPlan::scan("bioentry").project_columns(&["bioentry_id", "accession", "name"]);
        assert_eq!(optimize(&db, &identity).explain(), "Scan bioentry\n");
        let stacked = LogicalPlan::scan("bioentry")
            .project_columns(&["accession", "name"])
            .project_columns(&["accession"]);
        assert_eq!(
            optimize(&db, &stacked).explain(),
            "Project accession\n  Scan bioentry\n"
        );
        assert_same_rows(&db, &identity);
        assert_same_rows(&db, &stacked);
    }

    #[test]
    fn join_build_side_prefers_the_smaller_input() {
        let db = db();
        // dbref (20 rows) joined as probe side with bioentry (200 rows) as
        // build: the optimizer swaps so the small table is built.
        let plan = LogicalPlan::scan("dbref").join(
            LogicalPlan::scan("bioentry"),
            "bioentry_id",
            "bioentry_id",
            "dbref",
            "bioentry",
        );
        let optimized = optimize(&db, &plan);
        let explain = optimized.explain();
        assert!(
            explain.contains("Scan bioentry\n  Scan dbref")
                || explain.contains("Scan bioentry\n    Scan dbref"),
            "expected dbref on the build side:\n{explain}"
        );
        assert!(explain.starts_with("Project"), "{explain}");
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn estimates_follow_operators() {
        let db = db();
        assert_eq!(estimate_rows(&db, &LogicalPlan::scan("bioentry")), 200.0);
        let filtered = LogicalPlan::scan("bioentry")
            .filter(Expr::col("accession").eq(Expr::lit(Value::text("P00001"))));
        assert!(estimate_rows(&db, &filtered) <= 1.0);
        let limited = LogicalPlan::scan("bioentry").limit(5);
        assert_eq!(estimate_rows(&db, &limited), 5.0);
    }

    #[test]
    fn contradictory_filter_collapses_to_empty() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry").filter(
            Expr::col("accession")
                .eq(Expr::lit(Value::text("P00001")))
                .and(Expr::col("accession").eq(Expr::lit(Value::text("P00002")))),
        );
        let optimized = optimize(&db, &plan);
        assert_eq!(optimized.explain(), "Empty\n");
        assert_same_rows(&db, &plan);
        // The pruned plan keeps the schema of the subtree it replaced.
        let result = execute(&db, &optimized).unwrap();
        assert_eq!(
            result.schema().column_names(),
            vec!["bioentry_id", "accession", "name"]
        );
        assert_eq!(result.row_count(), 0);
    }

    #[test]
    fn emptiness_propagates_through_joins_projections_and_grouped_aggregates() {
        let db = db();
        let contradiction = Expr::col("bioentry_id")
            .eq(Expr::lit(1i64))
            .and(Expr::col("bioentry_id").eq(Expr::lit(2i64)));
        let plan = LogicalPlan::scan("bioentry")
            .filter(contradiction.clone())
            .join(
                LogicalPlan::scan("dbref"),
                "bioentry_id",
                "bioentry_id",
                "bioentry",
                "dbref",
            )
            .project_columns(&["accession", "target"])
            .aggregate(
                vec!["target".to_string()],
                vec![crate::plan::Aggregate::count_star("n")],
            );
        let optimized = optimize(&db, &plan);
        assert_eq!(optimized.explain(), "Empty\n");
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn empty_pruning_respects_outer_joins_and_global_aggregates() {
        let db = db();
        let contradiction = Expr::col("bioentry_id")
            .eq(Expr::lit(1i64))
            .and(Expr::col("bioentry_id").eq(Expr::lit(2i64)));
        // A left-outer join with a proven-empty RIGHT input keeps its left
        // rows and must not be pruned.
        let outer = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("bioentry")),
            right: Box::new(LogicalPlan::scan("dbref").filter(contradiction.clone())),
            left_col: "bioentry_id".into(),
            right_col: "bioentry_id".into(),
            join_type: JoinType::LeftOuter,
            left_qualifier: "bioentry".into(),
            right_qualifier: "dbref".into(),
        };
        let optimized = optimize(&db, &outer);
        assert!(
            !matches!(optimized, LogicalPlan::Empty { .. }),
            "{}",
            optimized.explain()
        );
        assert_same_rows(&db, &outer);
        // A global aggregate over a proven-empty input still yields one row.
        let global = LogicalPlan::scan("bioentry")
            .filter(contradiction)
            .aggregate(vec![], vec![crate::plan::Aggregate::count_star("n")]);
        let optimized = optimize(&db, &global);
        assert!(
            !matches!(optimized, LogicalPlan::Empty { .. }),
            "{}",
            optimized.explain()
        );
        let result = execute(&db, &optimized).unwrap();
        assert_eq!(result.row_count(), 1);
        assert_eq!(result.cell(0, "n").unwrap(), &Value::Int(0));
        assert_same_rows(&db, &global);
    }

    #[test]
    fn tautological_conjuncts_are_dropped() {
        let db = db();
        let tautology = Expr::lit(1i64).eq(Expr::lit(1i64));
        let plan = LogicalPlan::scan("bioentry").filter(
            tautology
                .clone()
                .and(Expr::col("accession").eq(Expr::lit(Value::text("P00007")))),
        );
        let optimized = optimize(&db, &plan);
        assert_eq!(
            optimized.explain(),
            "IndexScan bioentry.accession = 'P00007'\n"
        );
        assert_same_rows(&db, &plan);
        // An all-true predicate removes the filter entirely.
        let plan = LogicalPlan::scan("bioentry").filter(tautology);
        assert_eq!(optimize(&db, &plan).explain(), "Scan bioentry\n");
        assert_same_rows(&db, &plan);
    }

    #[test]
    fn contradictions_over_ill_typed_predicates_are_not_pruned() {
        let db = db();
        // The contradiction mentions a column that does not exist: pruning
        // would mask the runtime UnknownColumn error.
        let plan = LogicalPlan::scan("bioentry").filter(
            Expr::col("missing")
                .eq(Expr::lit(1i64))
                .and(Expr::col("missing").eq(Expr::lit(2i64))),
        );
        let optimized = optimize(&db, &plan);
        assert!(execute(&db, &optimized).is_err());
        assert!(execute_naive(&db, &plan).is_err());
    }

    #[test]
    fn optimizer_is_a_noop_on_unknown_tables() {
        let db = db();
        let plan = LogicalPlan::scan("missing")
            .filter(Expr::col("x").eq(Expr::lit(Value::text("y"))))
            .limit(1);
        let optimized = optimize(&db, &plan);
        assert!(execute(&db, &optimized).is_err());
    }
}
