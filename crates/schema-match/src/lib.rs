//! # aladin-schema-match
//!
//! Inclusion-dependency mining for ALADIN.
//!
//! The paper positions its link discovery as "closely related to schema
//! matching, especially to those projects using instance-based techniques"
//! (Section 4.4, citing the Rahm/Bernstein survey, iMAP, similarity flooding
//! and Clio), but cites them only as related work. What the pipeline needs
//! is [`ind`]: inclusion-dependency mining over attribute value sets, the
//! basis for guessing foreign keys inside a source (Section 4.2, steps 2–3).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ind;

pub use ind::{mine_inclusion_dependencies, Cardinality, InclusionDependency};
