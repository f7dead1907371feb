//! # aladin-seq
//!
//! Sequence-analysis substrate for the ALADIN reproduction.
//!
//! The paper's implicit link discovery compares "the values of attributes
//! containing DNA, RNA, or protein sequences [...] to each other" and names
//! BLAST-style sequence similarity as "the most important way of inferring the
//! function of a new protein" (Section 4.4, citing Altschul et al.). The
//! original system would shell out to BLAST; this crate provides the same
//! algorithmic family in pure Rust:
//!
//! * [`alphabet`] — DNA / RNA / protein alphabet detection and validation.
//! * [`kmer`] — k-mer indexing of sequence collections (the seeding stage).
//! * [`score`] — substitution scoring (match/mismatch for nucleotides, a
//!   compact BLOSUM62-style matrix for proteins) and gap penalties.
//! * [`align`] — Smith-Waterman local alignment: exact, quadratic time, one
//!   row of scores plus one traceback byte per cell, substitution scores read
//!   from a per-query table.
//! * [`blast`] — seed-and-extend homology search over a k-mer index, the
//!   heuristic used for link discovery at corpus scale. Each candidate's
//!   score comes first; the traceback runs only for candidates whose score
//!   reaches the alphabet's minimum. [`BlastIndex::search_similar`]
//!   takes the caller's similarity floor and drops, before any scoring, a
//!   candidate whose composition bound cannot reach it.
//! * [`bound`] — that bound: the identities two sequences can share, from
//!   their byte counts, over the shorter length. Duplicate scoring in
//!   `aladin-core` uses it too, to skip alignments whose result it would
//!   discard.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod align;
pub mod alphabet;
pub mod blast;
pub mod bound;
pub mod kmer;
pub mod score;

pub use align::{local_align, Alignment};
pub use alphabet::Alphabet;
pub use blast::{BlastIndex, HomologyHit};
pub use kmer::KmerIndex;
pub use score::ScoringScheme;
