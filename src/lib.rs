//! # aladin
//!
//! Facade crate of the ALADIN reproduction — *(Almost) Hands-Off Information
//! Integration for the Life Sciences* (Leser & Naumann, CIDR 2005).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports them under stable module names so applications can depend on a
//! single crate:
//!
//! * [`relstore`] — in-memory relational substrate (tables, catalog,
//!   constraints, statistics, SQL).
//! * [`textmine`] — string similarity, TF-IDF, inverted index.
//! * [`seq`] — sequence alphabets, Smith-Waterman, BLAST-like homology search.
//! * [`import`] — flat-file / XML / tabular / FASTA importers.
//! * [`schema_match`] — inclusion-dependency mining.
//! * [`core`] — the ALADIN system itself: five-step integration pipeline,
//!   metadata repository, access engine, evaluation harness.
//! * [`datagen`] — synthetic life-science corpora with ground truth.
//! * [`baseline`] — SRS-like, mediator-style and manual-curation comparison
//!   systems.
//!
//! ## Quickstart
//!
//! ```
//! use aladin::core::{Aladin, AladinConfig};
//! use aladin::datagen::{Corpus, CorpusConfig};
//!
//! // Generate a small synthetic corpus (stand-in for public downloads).
//! let corpus = Corpus::generate(&CorpusConfig::small(7));
//!
//! // Integrate every source almost hands-off.
//! let mut aladin = Aladin::new(AladinConfig::default());
//! for dump in &corpus.sources {
//!     let report = aladin
//!         .add_source_files(&dump.name, dump.format, &dump.files)
//!         .expect("integration succeeds");
//!     assert!(report.tables > 0);
//! }
//! assert_eq!(aladin.source_count(), corpus.sources.len());
//! // Links between sources were discovered automatically.
//! assert!(aladin.link_count() > 0);
//! ```

#![warn(missing_docs)]

pub use aladin_baseline as baseline;
pub use aladin_core as core;
pub use aladin_datagen as datagen;
pub use aladin_import as import;
pub use aladin_relstore as relstore;
pub use aladin_schema_match as schema_match;
pub use aladin_seq as seq;
pub use aladin_textmine as textmine;
