//! # aladin-core
//!
//! The ALADIN system: *ALmost Automatic Data INtegration* for the life
//! sciences (Leser & Naumann, CIDR 2005).
//!
//! ALADIN integrates heterogeneous data sources into a local, materialized
//! warehouse of biological objects and links between them, with almost no
//! human intervention. The crate implements the paper's five-step integration
//! process plus the surrounding infrastructure:
//!
//! 1. **Data import** (delegated to `aladin-import`) — each source becomes a
//!    relational database with no schema expectations.
//! 2. **Discovery of primary objects** ([`unique`], [`accession`],
//!    [`relationships`], [`primary`]) — unique attributes are detected by
//!    scanning, accession-number candidates by value-shape heuristics, foreign
//!    keys by inclusion-dependency mining, and the primary relation is the
//!    accession-carrying table with the highest in-degree.
//! 3. **Discovery of secondary objects** ([`secondary`]) — paths from the
//!    primary relation to every other relation.
//! 4. **Link discovery** ([`links`]) — explicit cross-references (accession
//!    values of one source found in unique fields of primary relations of
//!    others, including composite `db:accession` strings) and implicit links
//!    (sequence homology, text similarity, shared ontology terms), with
//!    statistics-based pruning.
//! 5. **Duplicate detection** ([`duplicates`]) — flagging (never merging)
//!    primary objects of different sources that describe the same real-world
//!    object.
//!
//! The [`pipeline::Aladin`] type orchestrates the process and supports
//! incremental source addition and threshold-based re-analysis; the
//! [`access`] module provides the three access modes (browse, search, query);
//! [`serve`] layers MVCC snapshot reads and a bounded query cache on top so
//! N reader threads keep querying while one writer integrates;
//! [`metadata`] is the central metadata repository; [`eval`] computes the
//! precision/recall measures the paper proposes to estimate against a known
//! integrated database.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod access;
pub mod accession;
pub mod config;
pub mod duplicates;
pub mod error;
pub mod eval;
pub mod links;
pub mod metadata;
pub mod parallel;
pub mod pipeline;
pub mod primary;
pub mod relationships;
pub mod secondary;
pub mod serve;
pub mod unique;

pub use access::{ObjectQuery, ObjectRecord, QuerySpec, Warehouse};
pub use config::{AladinConfig, BatchErrorPolicy, DuplicateCandidates, FaultInjection};
pub use error::{AladinError, AladinResult, SourceFailure};
pub use metadata::{
    Link, LinkAdjacency, LinkKind, MetadataRepository, ObjectRef, PairFailure, PipelineMetrics,
    SourceStructure, StepTiming,
};
pub use parallel::JobPanic;
pub use pipeline::{Aladin, BatchReport, IntegrationReport, PipelineRecovery, SourceOutcome};
pub use serve::{ServeConfig, ServeMetrics, Server, Snapshot};
