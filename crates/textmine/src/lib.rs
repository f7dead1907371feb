//! # aladin-textmine
//!
//! Text-mining and information-retrieval substrate for the ALADIN
//! reproduction.
//!
//! ALADIN leans on "a mixture of data integration, text mining, information
//! retrieval, and data mining techniques" (paper, Section 3). This crate
//! provides the text side of that mixture:
//!
//! * [`mod@tokenize`] — tokenization and normalization of annotation text.
//! * [`distance`] — edit distance, Jaro-Winkler, Jaccard and containment
//!   similarity for duplicate detection and cross-reference matching.
//! * [`qgram`] — q-gram profiles and q-gram based string similarity.
//! * [`tfidf`] — TF-IDF document vectors with cosine similarity for
//!   description-field comparison and duplicate detection.
//! * [`inverted`] — an inverted index with TF-IDF ranking backing the
//!   full-text *search* access mode.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distance;
pub mod inverted;
pub mod qgram;
pub mod tfidf;
pub mod tokenize;

pub use distance::{jaccard, jaro_winkler, levenshtein, normalized_levenshtein};
pub use inverted::{InvertedIndex, SearchHit};
pub use qgram::{qgram_profile, qgram_similarity};
pub use tfidf::{cosine_similarity, TfIdfModel};
pub use tokenize::{normalize, tokenize};
