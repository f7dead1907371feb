//! Logical query plans, plus the `EXPLAIN`-style pretty-printer that makes
//! optimized and naive plans inspectable in tests and docs.

use crate::expr::Expr;
use crate::value::Value;
use std::fmt;

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left outer equi-join: unmatched left rows padded with NULLs.
    LeftOuter,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) or COUNT(column) (non-null count).
    Count,
    /// Sum of numeric values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Mean of numeric values.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// An aggregate expression: a function over a column (or `*` for COUNT).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// The input column; `None` means `*` (only valid for COUNT).
    pub column: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl Aggregate {
    /// `COUNT(*) AS alias`.
    pub fn count_star(alias: impl Into<String>) -> Aggregate {
        Aggregate {
            func: AggFunc::Count,
            column: None,
            alias: alias.into(),
        }
    }

    /// An aggregate over a named column.
    pub fn of(func: AggFunc, column: impl Into<String>, alias: impl Into<String>) -> Aggregate {
        Aggregate {
            func,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }
}

/// A sort key: column name plus direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column to sort by.
    pub column: String,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

/// 64-bit FNV-1a hash of a byte string. Used to fingerprint plans (and, in
/// `aladin-core`, object-query specs) as compact cache keys; not
/// cryptographic.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A logical query plan over a [`crate::Database`].
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a named base table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Probe a hash index for the rows of `table` whose `column` equals
    /// `value`. Produced by the optimizer from equality predicates over base
    /// scans; the executor re-checks the equality on the candidate rows, so
    /// the node is exactly equivalent to `Scan` + `Filter(column = value)`.
    IndexScan {
        /// Table name.
        table: String,
        /// Indexed column.
        column: String,
        /// The probe value.
        value: Value,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate expression.
        predicate: Expr,
    },
    /// Project expressions (with output names).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Equi-join two inputs on a single column pair.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join column in the left input.
        left_col: String,
        /// Join column in the right input.
        right_col: String,
        /// Join type.
        join_type: JoinType,
        /// Qualifier used to disambiguate clashing column names from the left.
        left_qualifier: String,
        /// Qualifier used to disambiguate clashing column names from the right.
        right_qualifier: String,
    },
    /// Group-by aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping columns (may be empty for a global aggregate).
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggregates: Vec<Aggregate>,
    },
    /// Sort by one or more keys.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys in priority order.
        keys: Vec<SortKey>,
    },
    /// Keep only the first `limit` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum number of rows.
        limit: usize,
    },
    /// Skip the first `offset` rows (SQL `OFFSET`).
    Offset {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Number of rows to skip.
        offset: usize,
    },
    /// A relation proven empty at optimization time (a contradictory filter
    /// predicate, or an operator whose input was already proven empty).
    /// Carries the schema of the subtree it replaced so downstream operators
    /// and result tables keep their column layout.
    Empty {
        /// Schema of the pruned subtree.
        schema: crate::schema::TableSchema,
    },
}

impl LogicalPlan {
    /// Scan helper.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Wrap this plan in a filter.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wrap this plan in a projection of plain columns.
    pub fn project_columns(self, columns: &[&str]) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs: columns
                .iter()
                .map(|c| (Expr::col(*c), (*c).to_string()))
                .collect(),
        }
    }

    /// Wrap this plan in a projection of arbitrary expressions.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    /// Inner equi-join with another plan.
    pub fn join(
        self,
        right: LogicalPlan,
        left_col: impl Into<String>,
        right_col: impl Into<String>,
        left_qualifier: impl Into<String>,
        right_qualifier: impl Into<String>,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_col: left_col.into(),
            right_col: right_col.into(),
            join_type: JoinType::Inner,
            left_qualifier: left_qualifier.into(),
            right_qualifier: right_qualifier.into(),
        }
    }

    /// Group-by aggregation.
    pub fn aggregate(self, group_by: Vec<String>, aggregates: Vec<Aggregate>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggregates,
        }
    }

    /// Sort by keys.
    pub fn sort(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// Limit the number of rows.
    pub fn limit(self, limit: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            limit,
        }
    }

    /// Skip the first `offset` rows. Combined with [`LogicalPlan::limit`]
    /// this is the pagination shape: `plan.offset(page * size).limit(size)`.
    pub fn offset(self, offset: usize) -> LogicalPlan {
        LogicalPlan::Offset {
            input: Box::new(self),
            offset,
        }
    }

    /// A proven-empty relation with the given schema.
    pub fn empty(schema: crate::schema::TableSchema) -> LogicalPlan {
        LogicalPlan::Empty { schema }
    }

    /// Render the plan as an indented `EXPLAIN`-style tree, one operator per
    /// line, children indented by two spaces. The output is stable and is
    /// asserted verbatim by plan-snapshot tests, e.g.:
    ///
    /// ```text
    /// Limit 1
    ///   IndexScan protkb_entry.ac = 'P10001'
    /// ```
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Scan { table } => {
                let _ = writeln!(out, "Scan {table}");
            }
            LogicalPlan::IndexScan {
                table,
                column,
                value,
            } => {
                let _ = writeln!(
                    out,
                    "IndexScan {table}.{column} = {}",
                    Expr::Literal(value.clone())
                );
            }
            LogicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "Filter {predicate}");
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Project { input, exprs } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .map(|(e, name)| match e {
                        Expr::Column(c) if c == name => name.clone(),
                        other => format!("{other} AS {name}"),
                    })
                    .collect();
                let _ = writeln!(out, "Project {}", cols.join(", "));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
                join_type,
                ..
            } => {
                let kind = match join_type {
                    JoinType::Inner => "Inner",
                    JoinType::LeftOuter => "LeftOuter",
                };
                let _ = writeln!(
                    out,
                    "HashJoin {kind} {left_col} = {right_col} (build right)"
                );
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| match &a.column {
                        Some(c) => format!("{}({c}) AS {}", a.func, a.alias),
                        None => format!("{}(*) AS {}", a.func, a.alias),
                    })
                    .collect();
                if group_by.is_empty() {
                    let _ = writeln!(out, "Aggregate {}", aggs.join(", "));
                } else {
                    let _ = writeln!(
                        out,
                        "Aggregate group by {} compute {}",
                        group_by.join(", "),
                        aggs.join(", ")
                    );
                }
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.column, if k.ascending { "ASC" } else { "DESC" }))
                    .collect();
                let _ = writeln!(out, "Sort {}", ks.join(", "));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Limit { input, limit } => {
                let _ = writeln!(out, "Limit {limit}");
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Offset { input, offset } => {
                let _ = writeln!(out, "Offset {offset}");
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Empty { .. } => {
                let _ = writeln!(out, "Empty");
            }
        }
    }

    /// A stable 64-bit fingerprint of the plan's structure, the cache key of
    /// normalized plans. Every node and expression derives a structural
    /// `Debug`, so hashing the canonical `Debug` rendering makes two plans
    /// fingerprint equal exactly when they are structurally equal — SQL texts
    /// that parse to the same plan (case or whitespace differences) share a
    /// fingerprint, while any differing literal, column or operator changes
    /// it.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_bytes(format!("{self:?}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_plans() {
        let plan = LogicalPlan::scan("bioentry")
            .filter(Expr::col("accession").like("P%"))
            .project_columns(&["accession"])
            .limit(10);
        match &plan {
            LogicalPlan::Limit { limit, input } => {
                assert_eq!(*limit, 10);
                assert!(matches!(**input, LogicalPlan::Project { .. }));
            }
            _ => panic!("unexpected plan shape"),
        }
    }

    #[test]
    fn offset_composes_and_reports_tables() {
        let plan = LogicalPlan::scan("bioentry").offset(20).limit(10);
        match &plan {
            LogicalPlan::Limit { input, .. } => match &**input {
                LogicalPlan::Offset { offset, input } => {
                    assert_eq!(*offset, 20);
                    assert!(matches!(**input, LogicalPlan::Scan { .. }));
                }
                _ => panic!("expected offset under limit"),
            },
            _ => panic!("unexpected plan shape"),
        }
    }

    #[test]
    fn explain_renders_an_indented_tree() {
        let plan = LogicalPlan::scan("bioentry")
            .filter(Expr::col("accession").like("P%"))
            .sort(vec![SortKey {
                column: "accession".into(),
                ascending: true,
            }])
            .limit(10);
        assert_eq!(
            plan.explain(),
            "Limit 10\n  Sort accession ASC\n    Filter (accession LIKE 'P%')\n      Scan bioentry\n"
        );
        let idx = LogicalPlan::IndexScan {
            table: "bioentry".into(),
            column: "accession".into(),
            value: Value::text("P11111"),
        };
        assert_eq!(idx.explain(), "IndexScan bioentry.accession = 'P11111'\n");
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = LogicalPlan::scan("bioentry")
            .filter(Expr::col("accession").like("P%"))
            .limit(10);
        let b = LogicalPlan::scan("bioentry")
            .filter(Expr::col("accession").like("P%"))
            .limit(10);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any structural difference — literal, limit, operator — changes it.
        assert_ne!(
            a.fingerprint(),
            LogicalPlan::scan("bioentry")
                .filter(Expr::col("accession").like("Q%"))
                .limit(10)
                .fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            LogicalPlan::scan("bioentry")
                .filter(Expr::col("accession").like("P%"))
                .limit(11)
                .fingerprint()
        );
        // Stable across calls.
        assert_eq!(a.fingerprint(), a.fingerprint());
        // And the raw byte hash distinguishes kind-prefixed keys.
        assert_ne!(fingerprint_bytes(b"sql:x"), fingerprint_bytes(b"plan:x"));
    }

    #[test]
    fn aggregate_helpers() {
        let a = Aggregate::count_star("n");
        assert_eq!(a.func, AggFunc::Count);
        assert!(a.column.is_none());
        let b = Aggregate::of(AggFunc::Max, "score", "max_score");
        assert_eq!(b.column.as_deref(), Some("score"));
        assert_eq!(AggFunc::Avg.to_string(), "AVG");
    }
}
