//! Static analysis of logical plans: typed validation, satisfiability
//! reasoning and plan lints, produced *before* execution instead of as
//! runtime surprises deep inside the streaming operators.
//!
//! [`analyze`] walks a [`LogicalPlan`] against a [`Database`] catalog and
//! returns an [`Analysis`] — a list of structured [`Diagnostic`]s, each with
//! a severity, a stable code, a human message and the plan path it was found
//! at. Three layers run in one pass:
//!
//! 1. **Schema resolution + type inference.** Every column reference is
//!    resolved with the exact rules the executors use (case-insensitive
//!    exact match, then unambiguous qualified-suffix match — see
//!    [`TableSchema::resolve`]); comparison, arithmetic, aggregate and
//!    join-key operand types are checked; unknown tables and columns come
//!    with "did you mean" suggestions.
//! 2. **Satisfiability over conjunctive predicates.** Interval reasoning on
//!    equality/range constraints proves contradictions (`a = 1 AND a = 2`,
//!    `x > 10 AND x < 5`) and constant-true tautologies. The optimizer
//!    shares this engine to collapse proven-empty subtrees to
//!    [`LogicalPlan::Empty`] and to drop tautological filters.
//! 3. **Plan lints.** Near-cartesian joins, `Sort` without `Limit` over a
//!    large input, dead projection columns, and equality predicates that no
//!    hash index can serve.
//!
//! Severity semantics: an [`Severity::Error`] means the plan is guaranteed
//! (or statically certain under declared column types) to fail at runtime —
//! strict execution ([`crate::exec::execute_checked`]) refuses such plans. A
//! [`Severity::Warning`] means the query runs but almost surely not as
//! intended (it can never match, or always matches). A [`Severity::Lint`]
//! is a performance or style observation.
//!
//! ```
//! use aladin_relstore::{analyze, Database, ColumnDef, TableSchema, sql};
//!
//! let mut db = Database::new("demo");
//! db.create_table("bioentry", TableSchema::of(vec![
//!     ColumnDef::int("bioentry_id"),
//!     ColumnDef::text("accession"),
//! ])).unwrap();
//! let plan = sql::parse("SELECT * FROM bioentry WHERE accesion = 'P1'").unwrap();
//! let analysis = analyze::analyze(&db, &plan);
//! assert!(analysis.has_errors());
//! assert!(analysis.render().contains("did you mean 'accession'?"));
//! ```

use crate::catalog::Database;
use crate::error::RelError;
use crate::expr::{as_column_cmp_literal, split_conjuncts, BinaryOp, Expr};
use crate::plan::{AggFunc, Aggregate, LogicalPlan, SortKey};
use crate::schema::{ColumnDef, ColumnResolution, TableSchema};
use crate::types::DataType;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

/// Inputs estimated at or above this many rows count as "large" for the
/// plan lints (unbounded sorts, unindexable equality predicates,
/// near-cartesian joins). Small fixtures stay lint-free.
pub const LARGE_INPUT_ROWS: f64 = 1000.0;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A performance or style observation; the query is correct.
    Lint,
    /// The query runs, but almost surely not as intended.
    Warning,
    /// The plan is statically certain to fail (or be rejected) at runtime.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Lint => "lint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A byte-offset range into the source text a diagnostic refers to. Parse
/// errors always carry one; plan-level diagnostics usually do not (plans
/// may never have had a textual form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first offending byte.
    pub start: usize,
    /// Byte offset one past the last offending byte (`start == end` marks a
    /// point, e.g. an unexpected end of input).
    pub end: usize,
}

impl Span {
    /// A span covering `start..end` (byte offsets).
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }
}

/// One finding of the static analyzer (or the SQL parser, which reuses this
/// type so error output and EXPLAIN share a single rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How severe the finding is.
    pub severity: Severity,
    /// Stable machine-readable code (`E1xx` type errors, `W2xx`
    /// semantic warnings, `L3xx` lints, `P0xx` parse errors).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Path from the plan root to the node the finding is at, e.g.
    /// `Filter > Scan bioentry`. Empty for parse errors.
    pub path: String,
    /// Byte span into the source text, when one is known.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Render as a single stable line: `severity[code] at path: message`
    /// (the `at path` part is omitted when no path is known).
    pub fn render(&self) -> String {
        if self.path.is_empty() {
            format!("{}[{}]: {}", self.severity, self.code, self.message)
        } else {
            format!(
                "{}[{}] at {}: {}",
                self.severity, self.code, self.path, self.message
            )
        }
    }

    /// Render with caret context pointing into `source`, when the diagnostic
    /// carries a span. Used by SQL parse errors; analyzer diagnostics render
    /// the same way whenever a span is attached.
    pub fn render_with_source(&self, source: &str) -> String {
        let mut out = self.render();
        if let Some(span) = self.span {
            out.push('\n');
            out.push_str(&render_span(source, span));
        }
        out
    }
}

/// The caret-context block shared by parse errors and spanned analyzer
/// diagnostics: the source line containing the span, with `^` markers under
/// the offending bytes.
fn render_span(source: &str, span: Span) -> String {
    let start = span.start.min(source.len());
    let line_start = source[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = source[start..]
        .find('\n')
        .map(|i| start + i)
        .unwrap_or(source.len());
    let line = &source[line_start..line_end];
    let lead = source[line_start..start].chars().count();
    let end = span.end.clamp(start, line_end);
    let width = source[start..end].chars().count().max(1);
    format!(
        "  |\n  | {line}\n  | {}{}",
        " ".repeat(lead),
        "^".repeat(width)
    )
}

/// The result of analyzing a plan: all diagnostics, most severe first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// All diagnostics, most severe first (stable within a severity).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// True when the analyzer found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one [`Severity::Error`] diagnostic is present;
    /// strict execution refuses such plans.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True when the analyzer proved the plan returns no rows (an
    /// unsatisfiable predicate was found, code `W201`).
    pub fn proven_empty(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code == "W201")
    }

    /// All diagnostics rendered one per line (trailing newline included);
    /// empty string when clean.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }

    /// The `Analysis:` section appended to EXPLAIN output — the rendered
    /// diagnostics indented under a header, or an empty string when clean
    /// so clean plans keep their exact historical EXPLAIN text.
    pub fn explain_section(&self) -> String {
        if self.diagnostics.is_empty() {
            return String::new();
        }
        let mut out = String::from("Analysis:\n");
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }

    /// Convert the error diagnostics into the [`RelError::Analysis`] a
    /// strict execution path returns; `None` when there are none.
    pub fn to_error(&self) -> Option<RelError> {
        let errors: Vec<&Diagnostic> = self.errors().collect();
        let first = errors.first()?;
        let msg = if errors.len() == 1 {
            first.render()
        } else {
            format!("{} (+{} more)", first.render(), errors.len() - 1)
        };
        Some(RelError::Analysis(msg))
    }
}

/// Statically analyze `plan` against `db`. Never fails: problems are
/// reported as diagnostics, and subtrees whose schema cannot be derived are
/// skipped instead of cascading. The pass is a single plan walk over catalog
/// metadata — it reads no table rows, so it is cheap relative to executing
/// the query (measured in `exp_relstore` as `analyze_us`).
pub fn analyze(db: &Database, plan: &LogicalPlan) -> Analysis {
    let mut checker = Checker {
        db,
        path: Vec::new(),
        diags: Vec::new(),
    };
    checker.check(plan, None, false, false);
    checker.diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    Analysis {
        diagnostics: checker.diags,
    }
}

/// True when `expr` type-checks against `schema` without any error-severity
/// diagnostic. The optimizer only prunes a proven-empty filter whose
/// predicate passes this check, so pruning never masks a runtime type error.
pub(crate) fn expr_is_well_typed(expr: &Expr, schema: &TableSchema) -> bool {
    let db = Database::new("::expr-check");
    let mut checker = Checker {
        db: &db,
        path: Vec::new(),
        diags: Vec::new(),
    };
    checker.expr_type(expr, schema);
    !checker.diags.iter().any(|d| d.severity == Severity::Error)
}

// ---------------------------------------------------------------------------
// The plan walker
// ---------------------------------------------------------------------------

struct Checker<'a> {
    db: &'a Database,
    path: Vec<String>,
    diags: Vec<Diagnostic>,
}

impl Checker<'_> {
    fn diag(&mut self, severity: Severity, code: &'static str, message: String) {
        self.diags.push(Diagnostic {
            severity,
            code,
            message,
            path: self.path.join(" > "),
            span: None,
        });
    }

    /// Walk one node. `needed` is the set of lowercase output columns the
    /// ancestors consume (`None` = all of them), `bounded` is true when a
    /// `Limit` sits directly above (through `Offset`), `in_filter_stack`
    /// when the parent was a `Filter` (satisfiability runs once per stack).
    /// Returns the node's output schema, or `None` after an unrecoverable
    /// resolution error (reported; downstream checks are skipped).
    fn check(
        &mut self,
        plan: &LogicalPlan,
        needed: Option<&HashSet<String>>,
        bounded: bool,
        in_filter_stack: bool,
    ) -> Option<TableSchema> {
        self.path.push(node_label(plan));
        let schema = match plan {
            LogicalPlan::Scan { table } => self.check_table(table),
            LogicalPlan::IndexScan {
                table,
                column,
                value,
            } => self.check_index_scan(table, column, value),
            LogicalPlan::Filter { input, predicate } => {
                self.check_filter(plan, input, predicate, needed, in_filter_stack)
            }
            LogicalPlan::Project { input, exprs } => self.check_project(input, exprs, needed),
            LogicalPlan::Join {
                left,
                right,
                left_col,
                right_col,
                left_qualifier,
                right_qualifier,
                ..
            } => self.check_join(
                left,
                right,
                left_col,
                right_col,
                left_qualifier,
                right_qualifier,
            ),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => self.check_aggregate(input, group_by, aggregates),
            LogicalPlan::Sort { input, keys } => self.check_sort(input, keys, needed, bounded),
            LogicalPlan::Limit { input, .. } => self.check(input, needed, true, false),
            LogicalPlan::Offset { input, .. } => self.check(input, needed, bounded, false),
            LogicalPlan::Empty { schema } => Some(schema.clone()),
        };
        self.path.pop();
        schema
    }

    fn check_table(&mut self, table: &str) -> Option<TableSchema> {
        match self.db.table(table) {
            Ok(t) => Some(t.schema().clone()),
            Err(_) => {
                let names = self.db.table_names();
                let hint = did_you_mean(table, names.iter().copied());
                self.diag(
                    Severity::Error,
                    "E101",
                    format!("unknown table '{table}'{hint}"),
                );
                None
            }
        }
    }

    fn check_index_scan(
        &mut self,
        table: &str,
        column: &str,
        value: &Value,
    ) -> Option<TableSchema> {
        let schema = self.check_table(table)?;
        let Some(idx) = schema.index_of(column) else {
            let hint = did_you_mean(column, schema.column_names().into_iter());
            self.diag(
                Severity::Error,
                "E102",
                format!("unknown column '{column}' in table '{table}'{hint}"),
            );
            return Some(schema);
        };
        let col_type = schema.columns()[idx].data_type;
        if let Some(vt) = value.data_type() {
            if type_class(vt) != type_class(col_type) {
                self.diag(
                    Severity::Warning,
                    "W203",
                    format!(
                        "index probe value {} ({vt}) can never equal a {col_type} column '{column}'",
                        Expr::Literal(value.clone())
                    ),
                );
            }
        }
        Some(schema)
    }

    fn check_filter(
        &mut self,
        node: &LogicalPlan,
        input: &LogicalPlan,
        predicate: &Expr,
        needed: Option<&HashSet<String>>,
        in_filter_stack: bool,
    ) -> Option<TableSchema> {
        // The filter passes rows through, so its input must produce whatever
        // the ancestors need plus the predicate's own columns.
        let widened = needed.map(|n| {
            let mut n = n.clone();
            for c in predicate.referenced_columns() {
                n.insert(c.to_ascii_lowercase());
            }
            n
        });
        let schema = self.check(input, widened.as_ref(), false, true)?;

        if let Some(t) = self.expr_type(predicate, &schema) {
            if t != DataType::Boolean {
                self.diag(
                    Severity::Error,
                    "E106",
                    format!("filter predicate {predicate} has type {t}, expected BOOLEAN"),
                );
            }
        }

        // Satisfiability runs once per stack of directly nested filters,
        // over the merged conjunct list (exactly what the optimizer merges).
        if !in_filter_stack {
            let mut conjuncts = Vec::new();
            let mut cursor = node;
            while let LogicalPlan::Filter {
                input, predicate, ..
            } = cursor
            {
                split_conjuncts(predicate, &mut conjuncts);
                cursor = input;
            }
            match conjunction_satisfiability(&conjuncts) {
                Satisfiability::Contradiction(why) => self.diag(
                    Severity::Warning,
                    "W201",
                    format!("predicate is unsatisfiable ({why}): the query returns no rows"),
                ),
                Satisfiability::Satisfiable { true_conjuncts } => {
                    if !conjuncts.is_empty() && true_conjuncts.len() == conjuncts.len() {
                        self.diag(
                            Severity::Warning,
                            "W202",
                            "predicate is always true: the filter keeps every row".to_string(),
                        );
                    }
                }
            }
        }

        // Lint: an equality conjunct directly over a large base scan that no
        // hash index can serve (the IndexScan rewrite requires a
        // render-faithful literal: text on any column, integer on an
        // INTEGER column).
        if let LogicalPlan::Scan { table } = unwrap_filters(input) {
            if let Ok(t) = self.db.table(table) {
                if t.row_count() as f64 >= LARGE_INPUT_ROWS {
                    let mut conjuncts = Vec::new();
                    split_conjuncts(predicate, &mut conjuncts);
                    for c in &conjuncts {
                        let Some((col, BinaryOp::Eq, value)) = as_column_cmp_literal(c) else {
                            continue;
                        };
                        let Some(idx) = schema.index_of(col) else {
                            continue;
                        };
                        let col_type = schema.columns()[idx].data_type;
                        let eligible = match value {
                            Value::Text(_) => true,
                            Value::Int(_) => col_type == DataType::Integer,
                            _ => false,
                        };
                        if !eligible {
                            self.diag(
                                Severity::Lint,
                                "L302",
                                format!(
                                    "equality {c} over the {} rows of '{table}' cannot be served \
                                     by a hash index ({} literal on a {col_type} column): full scan",
                                    t.row_count(),
                                    value
                                        .data_type()
                                        .map(|t| t.to_string())
                                        .unwrap_or_else(|| "NULL".into()),
                                ),
                            );
                        }
                    }
                }
            }
        }
        Some(schema)
    }

    fn check_project(
        &mut self,
        input: &LogicalPlan,
        exprs: &[(Expr, String)],
        needed: Option<&HashSet<String>>,
    ) -> Option<TableSchema> {
        let mut referenced: HashSet<String> = HashSet::new();
        for (e, _) in exprs {
            for c in e.referenced_columns() {
                referenced.insert(c.to_ascii_lowercase());
            }
        }
        let schema = self.check(input, Some(&referenced), false, false)?;
        if let Some(need) = needed {
            for (_, name) in exprs {
                if !need.contains(&name.to_ascii_lowercase()) {
                    self.diag(
                        Severity::Lint,
                        "L304",
                        format!("projected column '{name}' is never used by the operators above"),
                    );
                }
            }
        }
        for (e, _) in exprs {
            self.expr_type(e, &schema);
        }
        // Mirror the executors' output-schema derivation exactly, including
        // its duplicate-name rejection.
        let cols: Vec<ColumnDef> = exprs
            .iter()
            .map(|(e, name)| ColumnDef::new(name.clone(), e.result_type(&schema)))
            .collect();
        match TableSchema::new(cols) {
            Ok(out) => Some(out),
            Err(e) => {
                self.diag(
                    Severity::Error,
                    "E109",
                    format!("projection output names collide: {e}"),
                );
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_join(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_col: &str,
        right_col: &str,
        left_qualifier: &str,
        right_qualifier: &str,
    ) -> Option<TableSchema> {
        let l = self.check(left, None, false, false);
        let r = self.check(right, None, false, false);
        let (l, r) = (l?, r?);
        // The join executors resolve key columns with exact (require)
        // semantics, not suffix resolution — mirror that.
        let mut key_types: Vec<Option<DataType>> = Vec::new();
        for (schema, col, side) in [(&l, left_col, "left"), (&r, right_col, "right")] {
            match schema.index_of(col) {
                Some(i) => key_types.push(Some(schema.columns()[i].data_type)),
                None => {
                    let hint = did_you_mean(col, schema.column_names().into_iter());
                    self.diag(
                        Severity::Error,
                        "E102",
                        format!("unknown join column '{col}' in the {side} input{hint}"),
                    );
                    key_types.push(None);
                }
            }
        }
        if let (Some(lt), Some(rt)) = (key_types[0], key_types[1]) {
            if type_class(lt) != type_class(rt) {
                self.diag(
                    Severity::Warning,
                    "W204",
                    format!(
                        "join keys have incompatible types ({lt} vs {rt}): \
                         the join can never match"
                    ),
                );
            }
        }
        // Lint: both key columns near-constant over large base tables makes
        // the equi-join expand to (almost) the cartesian product.
        let near_constant = |plan: &LogicalPlan, col: &str| -> bool {
            let LogicalPlan::Scan { table } = plan else {
                return false;
            };
            let (Ok(stats), Ok(t)) = (self.db.column_stats(table, col), self.db.table(table))
            else {
                return false;
            };
            let rows = t.row_count() as f64;
            rows >= LARGE_INPUT_ROWS && stats.estimated_eq_rows() >= rows * 0.5
        };
        if near_constant(left, left_col) && near_constant(right, right_col) {
            self.diag(
                Severity::Lint,
                "L303",
                format!(
                    "join keys '{left_col}' and '{right_col}' are near-constant: \
                     the join degenerates to a cartesian product"
                ),
            );
        }
        Some(l.join(&r, left_qualifier, right_qualifier))
    }

    fn check_aggregate(
        &mut self,
        input: &LogicalPlan,
        group_by: &[String],
        aggregates: &[Aggregate],
    ) -> Option<TableSchema> {
        let mut referenced: HashSet<String> =
            group_by.iter().map(|c| c.to_ascii_lowercase()).collect();
        for a in aggregates {
            if let Some(c) = &a.column {
                referenced.insert(c.to_ascii_lowercase());
            }
        }
        let schema = self.check(input, Some(&referenced), false, false)?;
        // The aggregate executors resolve all columns with require (exact)
        // semantics.
        for c in group_by {
            if schema.index_of(c).is_none() {
                let hint = did_you_mean(c, schema.column_names().into_iter());
                self.diag(
                    Severity::Error,
                    "E102",
                    format!("unknown GROUP BY column '{c}'{hint}"),
                );
            }
        }
        for a in aggregates {
            match &a.column {
                None => {
                    if a.func != AggFunc::Count {
                        self.diag(
                            Severity::Error,
                            "E108",
                            format!("{}(*) is not defined: {} requires a column", a.func, a.func),
                        );
                    }
                }
                Some(c) => match schema.index_of(c) {
                    None => {
                        let hint = did_you_mean(c, schema.column_names().into_iter());
                        self.diag(
                            Severity::Error,
                            "E102",
                            format!("unknown column '{c}' in {}({c}){hint}", a.func),
                        );
                    }
                    Some(i) => {
                        let t = schema.columns()[i].data_type;
                        if matches!(a.func, AggFunc::Sum | AggFunc::Avg) && !t.is_numeric() {
                            self.diag(
                                Severity::Error,
                                "E107",
                                format!("{}({c}) over a {t} column is not numeric", a.func),
                            );
                        }
                    }
                },
            }
        }
        match crate::exec::aggregate_schema(&schema, group_by, aggregates) {
            Ok(out) => Some(out),
            Err(e) => {
                self.diag(
                    Severity::Error,
                    "E109",
                    format!("aggregate output names collide: {e}"),
                );
                None
            }
        }
    }

    fn check_sort(
        &mut self,
        input: &LogicalPlan,
        keys: &[SortKey],
        needed: Option<&HashSet<String>>,
        bounded: bool,
    ) -> Option<TableSchema> {
        let widened = needed.map(|n| {
            let mut n = n.clone();
            for k in keys {
                n.insert(k.column.to_ascii_lowercase());
            }
            n
        });
        let schema = self.check(input, widened.as_ref(), false, false)?;
        for k in keys {
            if schema.index_of(&k.column).is_none() {
                let hint = did_you_mean(&k.column, schema.column_names().into_iter());
                self.diag(
                    Severity::Error,
                    "E102",
                    format!("unknown ORDER BY column '{}'{hint}", k.column),
                );
            }
        }
        if !bounded {
            let est = crate::optimize::estimate_rows(self.db, input);
            if est >= LARGE_INPUT_ROWS {
                self.diag(
                    Severity::Lint,
                    "L301",
                    format!(
                        "Sort over an estimated {est:.0} rows with no Limit above it \
                         materializes and orders the whole input"
                    ),
                );
            }
        }
        Some(schema)
    }

    /// Infer the static type of an expression, reporting type errors as it
    /// goes. `None` means "unknown" (a NULL literal, or a subexpression that
    /// already failed to resolve) — unknown operands are never re-reported.
    fn expr_type(&mut self, e: &Expr, schema: &TableSchema) -> Option<DataType> {
        match e {
            Expr::Column(name) => match schema.resolve(name) {
                ColumnResolution::Index(i) => Some(schema.columns()[i].data_type),
                ColumnResolution::Ambiguous(candidates) => {
                    self.diag(
                        Severity::Error,
                        "E103",
                        format!(
                            "ambiguous column '{name}': matches {}",
                            candidates
                                .iter()
                                .map(|c| format!("'{c}'"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    );
                    None
                }
                ColumnResolution::Unknown => {
                    let hint = did_you_mean(name, schema.column_names().into_iter());
                    self.diag(
                        Severity::Error,
                        "E102",
                        format!("unknown column '{name}'{hint}"),
                    );
                    None
                }
            },
            Expr::Literal(v) => v.data_type(),
            Expr::Binary { op, left, right } => {
                let lt = self.expr_type(left, schema);
                let rt = self.expr_type(right, schema);
                match op {
                    BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge => {
                        if let (Some(l), Some(r)) = (lt, rt) {
                            if type_class(l) != type_class(r) {
                                self.diag(
                                    Severity::Warning,
                                    "W203",
                                    format!(
                                        "comparison {e} mixes {l} and {r}: under the total \
                                         value order its outcome never depends on the data"
                                    ),
                                );
                            }
                        }
                        Some(DataType::Boolean)
                    }
                    BinaryOp::And | BinaryOp::Or => {
                        for (t, side) in [(lt, left), (rt, right)] {
                            if let Some(t) = t {
                                if t != DataType::Boolean {
                                    self.diag(
                                        Severity::Warning,
                                        "W205",
                                        format!(
                                            "operand {side} of {op} has type {t}: \
                                             non-boolean operands evaluate to NULL"
                                        ),
                                    );
                                }
                            }
                        }
                        Some(DataType::Boolean)
                    }
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
                        for (t, side) in [(lt, left), (rt, right)] {
                            if let Some(t) = t {
                                if !t.is_numeric() {
                                    self.diag(
                                        Severity::Error,
                                        "E104",
                                        format!("arithmetic operand {side} has type {t}"),
                                    );
                                }
                            }
                        }
                        if *op == BinaryOp::Div {
                            if let Expr::Literal(v) = &**right {
                                if matches!(v, Value::Int(0))
                                    || matches!(v, Value::Float(f) if *f == 0.0)
                                {
                                    self.diag(
                                        Severity::Error,
                                        "E110",
                                        format!("division by zero in {e}"),
                                    );
                                }
                            }
                        }
                        match (lt, rt) {
                            (Some(DataType::Integer), Some(DataType::Integer)) => {
                                Some(DataType::Integer)
                            }
                            (Some(l), Some(r)) if l.is_numeric() && r.is_numeric() => {
                                Some(DataType::Float)
                            }
                            _ => None,
                        }
                    }
                    BinaryOp::Like => Some(DataType::Boolean),
                }
            }
            Expr::Not(inner) => {
                if let Some(t) = self.expr_type(inner, schema) {
                    if t != DataType::Boolean {
                        self.diag(
                            Severity::Error,
                            "E105",
                            format!("NOT applied to a {t} operand {inner}"),
                        );
                    }
                }
                Some(DataType::Boolean)
            }
            Expr::IsNull(inner) | Expr::IsNotNull(inner) => {
                self.expr_type(inner, schema);
                Some(DataType::Boolean)
            }
        }
    }
}

fn node_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table } => format!("Scan {table}"),
        LogicalPlan::IndexScan { table, column, .. } => format!("IndexScan {table}.{column}"),
        LogicalPlan::Filter { .. } => "Filter".into(),
        LogicalPlan::Project { .. } => "Project".into(),
        LogicalPlan::Join { .. } => "HashJoin".into(),
        LogicalPlan::Aggregate { .. } => "Aggregate".into(),
        LogicalPlan::Sort { .. } => "Sort".into(),
        LogicalPlan::Limit { .. } => "Limit".into(),
        LogicalPlan::Offset { .. } => "Offset".into(),
        LogicalPlan::Empty { .. } => "Empty".into(),
    }
}

/// Skip over nested filters to the node they all sit on.
fn unwrap_filters(plan: &LogicalPlan) -> &LogicalPlan {
    let mut cursor = plan;
    while let LogicalPlan::Filter { input, .. } = cursor {
        cursor = input;
    }
    cursor
}

/// Comparable type classes under [`Value`]'s total order: integers and
/// floats compare numerically, everything else only within its own class.
fn type_class(t: DataType) -> u8 {
    match t {
        DataType::Integer | DataType::Float => 0,
        DataType::Text => 1,
        DataType::Boolean => 2,
    }
}

/// A `(did you mean ...?)` suffix for an unknown name, or empty when no
/// candidate is close enough (edit distance ≤ 2, or ≤ a third of the name).
fn did_you_mean<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    let lowered = name.to_ascii_lowercase();
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        // Qualified columns also match on their unqualified suffix.
        for variant in [c, c.rsplit('.').next().unwrap_or(c)] {
            let d = edit_distance(&lowered, &variant.to_ascii_lowercase());
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, c));
            }
        }
    }
    match best {
        Some((d, c)) if d > 0 && d <= 2.max(name.len() / 3) => format!(" (did you mean '{c}'?)"),
        _ => String::new(),
    }
}

/// Classic dynamic-programming Levenshtein distance; names are short so the
/// O(n·m) cost is irrelevant.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

// ---------------------------------------------------------------------------
// Satisfiability of conjunctive predicates
// ---------------------------------------------------------------------------

/// Verdict of [`conjunction_satisfiability`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Satisfiability {
    /// The conjunction can never hold; the payload explains why.
    Contradiction(String),
    /// No contradiction was proven. `true_conjuncts` are the indices of
    /// conjuncts proven constant-true (safe to drop from the predicate).
    Satisfiable { true_conjuncts: Vec<usize> },
}

/// Interval reasoning over a conjunct list. Sound by construction:
///
/// * Column bounds come only from `column <op> literal` conjuncts and use
///   [`Value`]'s total order — exactly the order the executors compare with,
///   so mixed-type constraints are handled consistently.
/// * A contradiction on non-null values extends to NULLs for free: a NULL
///   column value fails every comparison anyway.
/// * Conjuncts that reference no column are constant-folded with the same
///   evaluator the executors use; constant FALSE/NULL conjuncts are
///   contradictions, constant TRUE conjuncts are tautologies.
/// * Everything else (ORs, column-to-column comparisons, LIKE, IS NULL) is
///   opaque and assumed satisfiable.
pub(crate) fn conjunction_satisfiability(conjuncts: &[Expr]) -> Satisfiability {
    let empty_schema = TableSchema::default();
    let empty_row: Vec<Value> = Vec::new();
    let mut domains: Vec<(String, Domain)> = Vec::new();
    let mut true_conjuncts = Vec::new();

    for (i, conjunct) in conjuncts.iter().enumerate() {
        if conjunct.referenced_columns().is_empty() {
            match conjunct.eval(&empty_schema, &empty_row) {
                Ok(Value::Bool(true)) => true_conjuncts.push(i),
                Ok(Value::Bool(false)) => {
                    return Satisfiability::Contradiction(format!("{conjunct} is constant FALSE"));
                }
                Ok(Value::Null) => {
                    return Satisfiability::Contradiction(format!(
                        "{conjunct} is constant NULL, which filters as FALSE"
                    ));
                }
                _ => {} // non-boolean constant or evaluation error: opaque
            }
            continue;
        }
        let Some((col, op, value)) = as_column_cmp_literal(conjunct) else {
            continue;
        };
        if value.is_null() {
            return Satisfiability::Contradiction(format!(
                "{conjunct} compares with NULL and is never true"
            ));
        }
        let key = col.to_ascii_lowercase();
        let domain = match domains.iter_mut().find(|(k, _)| *k == key) {
            Some((_, d)) => d,
            None => {
                domains.push((key, Domain::default()));
                &mut domains.last_mut().expect("just pushed").1
            }
        };
        if let Err(why) = domain.apply(op, value, &conjunct.to_string()) {
            return Satisfiability::Contradiction(why);
        }
    }
    Satisfiability::Satisfiable { true_conjuncts }
}

/// One end of a column's admissible interval, remembering the conjunct that
/// set it for contradiction messages.
#[derive(Debug, Clone)]
struct Bound {
    value: Value,
    strict: bool,
    source: String,
}

/// The constraints accumulated for one column.
#[derive(Debug, Clone, Default)]
struct Domain {
    eq: Option<(Value, String)>,
    ne: Vec<(Value, String)>,
    lo: Option<Bound>,
    hi: Option<Bound>,
}

impl Domain {
    fn apply(&mut self, op: BinaryOp, value: &Value, source: &str) -> Result<(), String> {
        match op {
            BinaryOp::Eq => {
                if let Some((v, s)) = &self.eq {
                    if v.cmp(value) != Ordering::Equal {
                        return Err(format!("{s} contradicts {source}"));
                    }
                } else {
                    self.eq = Some((value.clone(), source.to_string()));
                }
            }
            BinaryOp::Ne => {
                self.ne.push((value.clone(), source.to_string()));
            }
            BinaryOp::Lt | BinaryOp::Le => {
                let strict = op == BinaryOp::Lt;
                let tighter = match &self.hi {
                    None => true,
                    Some(b) => match value.cmp(&b.value) {
                        Ordering::Less => true,
                        Ordering::Equal => strict && !b.strict,
                        Ordering::Greater => false,
                    },
                };
                if tighter {
                    self.hi = Some(Bound {
                        value: value.clone(),
                        strict,
                        source: source.to_string(),
                    });
                }
            }
            BinaryOp::Gt | BinaryOp::Ge => {
                let strict = op == BinaryOp::Gt;
                let tighter = match &self.lo {
                    None => true,
                    Some(b) => match value.cmp(&b.value) {
                        Ordering::Greater => true,
                        Ordering::Equal => strict && !b.strict,
                        Ordering::Less => false,
                    },
                };
                if tighter {
                    self.lo = Some(Bound {
                        value: value.clone(),
                        strict,
                        source: source.to_string(),
                    });
                }
            }
            _ => {}
        }
        self.validate()
    }

    fn validate(&self) -> Result<(), String> {
        if let (Some(lo), Some(hi)) = (&self.lo, &self.hi) {
            match lo.value.cmp(&hi.value) {
                Ordering::Greater => {
                    return Err(format!("{} contradicts {}", lo.source, hi.source));
                }
                Ordering::Equal if lo.strict || hi.strict => {
                    return Err(format!("{} contradicts {}", lo.source, hi.source));
                }
                _ => {}
            }
        }
        if let Some((v, s)) = &self.eq {
            if let Some(lo) = &self.lo {
                let ord = v.cmp(&lo.value);
                if ord == Ordering::Less || (ord == Ordering::Equal && lo.strict) {
                    return Err(format!("{s} contradicts {}", lo.source));
                }
            }
            if let Some(hi) = &self.hi {
                let ord = v.cmp(&hi.value);
                if ord == Ordering::Greater || (ord == Ordering::Equal && hi.strict) {
                    return Err(format!("{s} contradicts {}", hi.source));
                }
            }
            for (nv, ns) in &self.ne {
                if v.cmp(nv) == Ordering::Equal {
                    return Err(format!("{s} contradicts {ns}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new("src");
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
        for i in 0..5i64 {
            db.insert(
                "bioentry",
                vec![
                    Value::Int(i),
                    Value::text(format!("P{i:05}")),
                    Value::text("human"),
                    Value::Float(i as f64 / 10.0),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn clean_plans_stay_clean() {
        let db = db();
        let plan = crate::sql::parse(
            "SELECT accession FROM bioentry WHERE accession LIKE 'P%' ORDER BY accession LIMIT 2",
        )
        .unwrap();
        let analysis = analyze(&db, &plan);
        assert!(analysis.is_clean(), "{}", analysis.render());
        assert_eq!(analysis.explain_section(), "");
    }

    #[test]
    fn unknown_names_get_suggestions_and_paths() {
        let db = db();
        let plan = crate::sql::parse("SELECT * FROM bioentries WHERE acc = 1").unwrap();
        let analysis = analyze(&db, &plan);
        assert!(analysis.has_errors());
        let rendered = analysis.render();
        assert!(
            rendered.contains("error[E101] at Filter > Scan bioentries"),
            "{rendered}"
        );
        assert!(rendered.contains("did you mean 'bioentry'?"), "{rendered}");

        let plan = crate::sql::parse("SELECT accesion FROM bioentry").unwrap();
        let rendered = analyze(&db, &plan).render();
        assert!(rendered.contains("unknown column 'accesion'"), "{rendered}");
        assert!(rendered.contains("did you mean 'accession'?"), "{rendered}");
    }

    #[test]
    fn type_errors_are_reported() {
        let db = db();
        // Arithmetic over a text column.
        let plan = LogicalPlan::scan("bioentry").filter(Expr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(Expr::Binary {
                op: BinaryOp::Add,
                left: Box::new(Expr::Column("accession".into())),
                right: Box::new(Expr::Literal(Value::Int(1))),
            }),
            right: Box::new(Expr::Literal(Value::Int(2))),
        });
        let analysis = analyze(&db, &plan);
        assert!(analysis.errors().any(|d| d.code == "E104"));
        // A non-boolean filter predicate.
        let plan = crate::sql::parse("SELECT * FROM bioentry WHERE organism").unwrap();
        assert!(analyze(&db, &plan).errors().any(|d| d.code == "E106"));
        // SUM over text.
        let plan = crate::sql::parse("SELECT SUM(organism) AS s FROM bioentry").unwrap();
        assert!(analyze(&db, &plan).errors().any(|d| d.code == "E107"));
    }

    #[test]
    fn satisfiability_proves_contradictions_and_tautologies() {
        let db = db();
        for sql in [
            "SELECT * FROM bioentry WHERE organism = 'a' AND organism = 'b'",
            "SELECT * FROM bioentry WHERE score > 10 AND score < 5",
            "SELECT * FROM bioentry WHERE bioentry_id = 1 AND bioentry_id > 5",
            "SELECT * FROM bioentry WHERE bioentry_id = 3 AND bioentry_id <> 3",
            "SELECT * FROM bioentry WHERE score >= 1 AND score < 1",
            "SELECT * FROM bioentry WHERE 1 = 2",
            "SELECT * FROM bioentry WHERE organism = NULL",
        ] {
            let plan = crate::sql::parse(sql).unwrap();
            let analysis = analyze(&db, &plan);
            assert!(analysis.proven_empty(), "{sql}: {}", analysis.render());
        }
        let plan = crate::sql::parse("SELECT * FROM bioentry WHERE 1 = 1 AND TRUE").unwrap();
        let analysis = analyze(&db, &plan);
        assert!(analysis.diagnostics().iter().any(|d| d.code == "W202"));

        // Satisfiable ranges stay quiet.
        let plan =
            crate::sql::parse("SELECT * FROM bioentry WHERE score > 0.1 AND score < 0.4").unwrap();
        assert!(!analyze(&db, &plan).proven_empty());
    }

    #[test]
    fn mixed_type_comparisons_warn_but_do_not_error() {
        let db = db();
        let plan = crate::sql::parse("SELECT * FROM bioentry WHERE bioentry_id = 'x'").unwrap();
        let analysis = analyze(&db, &plan);
        assert!(!analysis.has_errors());
        assert!(analysis.diagnostics().iter().any(|d| d.code == "W203"));
    }

    #[test]
    fn ambiguous_suffix_is_an_error() {
        let db = db();
        // Joining bioentry to dbref qualifies the clashing bioentry_id on
        // both sides; the bare suffix then matches two columns.
        let plan = crate::sql::parse(
            "SELECT * FROM bioentry JOIN dbref ON bioentry.bioentry_id = dbref.bioentry_id \
             WHERE bioentry_id = 1",
        )
        .unwrap();
        let analysis = analyze(&db, &plan);
        assert!(
            analysis.errors().any(|d| d.code == "E103"),
            "{}",
            analysis.render()
        );
    }

    #[test]
    fn large_inputs_trigger_lints() {
        let mut db = db();
        for i in 0..2000i64 {
            db.insert(
                "dbref",
                vec![Value::Int(i), Value::Int(1), Value::text("CONST")],
            )
            .unwrap();
        }
        // Sort with no limit over a large scan.
        let plan = crate::sql::parse("SELECT * FROM dbref ORDER BY dbref_id").unwrap();
        let analysis = analyze(&db, &plan);
        assert!(analysis.diagnostics().iter().any(|d| d.code == "L301"));
        // The same sort under a LIMIT is the fused top-k shape: no lint.
        let plan = crate::sql::parse("SELECT * FROM dbref ORDER BY dbref_id LIMIT 5").unwrap();
        assert!(analyze(&db, &plan).is_clean());
        // Equality with a literal no hash index can serve (float literal).
        let plan = crate::sql::parse("SELECT * FROM dbref WHERE dbref_id = 1.5").unwrap();
        let analysis = analyze(&db, &plan);
        assert!(analysis.diagnostics().iter().any(|d| d.code == "L302"));
        // Near-constant join keys degenerate to a cartesian product.
        let plan =
            crate::sql::parse("SELECT * FROM dbref JOIN dbref2 ON dbref.target = dbref2.target");
        drop(plan); // dbref2 does not exist; build the degenerate join by hand
        let plan = LogicalPlan::scan("dbref").join(
            LogicalPlan::scan("dbref"),
            "target",
            "target",
            "a",
            "b",
        );
        let analysis = analyze(&db, &plan);
        assert!(
            analysis.diagnostics().iter().any(|d| d.code == "L303"),
            "{}",
            analysis.render()
        );
    }

    #[test]
    fn dead_projection_columns_are_linted() {
        let db = db();
        let plan = LogicalPlan::scan("bioentry")
            .project_columns(&["accession", "organism"])
            .project_columns(&["accession"]);
        let analysis = analyze(&db, &plan);
        assert!(
            analysis
                .diagnostics()
                .iter()
                .any(|d| d.code == "L304" && d.message.contains("'organism'")),
            "{}",
            analysis.render()
        );
    }

    #[test]
    fn renderer_produces_caret_context_for_spans() {
        let d = Diagnostic {
            severity: Severity::Error,
            code: "P003",
            message: "expected 'FROM', found 'FORM'".into(),
            path: String::new(),
            span: Some(Span::new(9, 13)),
        };
        assert_eq!(
            d.render_with_source("SELECT * FORM t"),
            "error[P003]: expected 'FROM', found 'FORM'\n  |\n  | SELECT * FORM t\n  |          ^^^^"
        );
    }

    #[test]
    fn to_error_summarizes_error_diagnostics() {
        let db = db();
        let plan = crate::sql::parse("SELECT nope1, nope2 FROM bioentry").unwrap();
        let analysis = analyze(&db, &plan);
        let err = analysis.to_error().unwrap();
        let msg = err.to_string();
        assert!(msg.starts_with("analysis error: error[E102]"), "{msg}");
        assert!(msg.contains("(+1 more)"), "{msg}");
    }

    #[test]
    fn edit_distance_and_suggestions() {
        assert_eq!(edit_distance("accession", "accesion"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(did_you_mean("zzz", ["accession"].into_iter()), "");
    }
}
