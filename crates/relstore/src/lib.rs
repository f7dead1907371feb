//! # aladin-relstore
//!
//! An in-memory relational substrate for the ALADIN reproduction.
//!
//! The ALADIN architecture (Leser & Naumann, CIDR 2005) assumes that every data
//! source can be brought into a relational representation inside a warehouse
//! RDBMS, and that all discovery steps (unique-attribute detection, accession
//! candidate detection, foreign-key guessing, link discovery, duplicate
//! detection) are expressed as scans, value-set comparisons and joins over that
//! representation, together with a *data dictionary* holding any constraints
//! that are already known.
//!
//! This crate provides exactly those capabilities:
//!
//! * [`Value`] / [`DataType`] — a small dynamic type system (null, integer,
//!   float, text, boolean) with total ordering used by the executor.
//! * [`TableSchema`] / [`ColumnDef`] — schema descriptions.
//! * [`Constraint`] — UNIQUE / PRIMARY KEY / FOREIGN KEY / NOT NULL entries of
//!   the data dictionary. ALADIN *uses constraints if they are present* but
//!   never requires them.
//! * [`Table`] — row-oriented storage with typed columns.
//! * [`Database`] — a catalog of named tables plus the data dictionary.
//! * [`stats`] — per-column profiling (distinct counts, length statistics,
//!   character-class composition, sampling) that backs the paper's heuristics
//!   and the pruning rules of link discovery.
//! * [`expr`], [`plan`] — expressions and logical plans, including an
//!   `EXPLAIN`-style pretty-printer ([`LogicalPlan::explain`]).
//! * [`exec`], [`stream`] — a streaming (pull-based) executor whose operators
//!   pass borrowed rows and short-circuit under `LIMIT`, plus the original
//!   materializing evaluator ([`exec::execute_naive`]) kept as the reference
//!   implementation for property tests and benches.
//! * [`optimize`] — a rule-based optimizer (predicate pushdown, projection
//!   pruning, limit pushdown, index-scan rewriting, join build-side
//!   selection, proven-empty pruning) producing observationally equivalent
//!   plans.
//! * [`analyze`] — a static analysis pass between plan construction and
//!   optimization: typed plan validation against the catalog,
//!   satisfiability reasoning over conjunctive predicates, and plan lints,
//!   all reported as structured [`analyze::Diagnostic`]s.
//! * [`sql`] — a deliberately small SQL dialect (`[EXPLAIN] SELECT ... FROM
//!   ... JOIN ... WHERE ... GROUP BY ... ORDER BY ... LIMIT`) so that the
//!   "structured queries" access mode of ALADIN can be exercised end to end.
//! * [`wal`], [`persist`] — durability: a CRC32-checksummed, fsync'd
//!   append-only log whose replay truncates at the first torn or corrupt
//!   record, plus atomic checksummed snapshots of a whole [`Database`]. The
//!   integration pipeline commits each source as a snapshot and a log event.
//! * [`index`] — hash indexes on single columns, used by the access engine,
//!   by explicit-link discovery, and by the executor's `IndexScan` nodes via
//!   the catalog's lazily built index cache ([`Database::hash_index`]).
//!
//! The crate is self-contained and has no knowledge of ALADIN's heuristics;
//! those live in `aladin-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod catalog;
pub mod constraint;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod optimize;
pub mod persist;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod stream;
pub mod table;
pub mod types;
pub mod value;
pub mod wal;

pub use catalog::Database;
pub use constraint::{Constraint, ForeignKey};
pub use error::{RelError, RelResult};
pub use expr::Expr;
pub use plan::LogicalPlan;
pub use schema::{ColumnDef, TableSchema};
pub use table::{Row, Table};
pub use types::DataType;
pub use value::Value;
