//! Inverted index with TF-IDF ranking.
//!
//! Backs the *search* access mode of ALADIN: "full-text search on all stored
//! data and a focused search restricted to certain partitions of the data
//! (only certain data sources, only certain fields, ...). Ranking algorithms
//! order the search results based on similarity of the result to the query."
//! (paper, Sections 3 and 4.6). Documents carry a source and a field label so
//! that vertical/horizontal partition filters can be applied at query time.

use crate::tokenize::tokenize_without_stopwords;
use std::collections::{HashMap, HashSet};

/// A document registered in the index.
#[derive(Debug, Clone)]
struct Document {
    id: String,
    source: String,
    field: String,
    length: usize,
}

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Caller-supplied document identifier.
    pub doc_id: String,
    /// Data source the document came from.
    pub source: String,
    /// Field (attribute) the text came from.
    pub field: String,
    /// TF-IDF ranking score (higher is better).
    pub score: f64,
}

/// Query-time restrictions: the "focused search" partitions of the paper.
#[derive(Debug, Clone, Default)]
pub struct SearchFilter {
    /// If non-empty, only documents from these sources are returned
    /// (horizontal partition).
    pub sources: Vec<String>,
    /// If non-empty, only documents from these fields are returned
    /// (vertical partition).
    pub fields: Vec<String>,
}

impl SearchFilter {
    /// A filter that matches everything.
    pub fn any() -> SearchFilter {
        SearchFilter::default()
    }

    /// Restrict to a single source.
    pub fn source(source: impl Into<String>) -> SearchFilter {
        SearchFilter {
            sources: vec![source.into()],
            ..Default::default()
        }
    }

    /// Restrict to a single field.
    pub fn field(field: impl Into<String>) -> SearchFilter {
        SearchFilter {
            fields: vec![field.into()],
            ..Default::default()
        }
    }

    fn matches(&self, doc: &Document) -> bool {
        (self.sources.is_empty()
            || self
                .sources
                .iter()
                .any(|s| s.eq_ignore_ascii_case(&doc.source)))
            && (self.fields.is_empty()
                || self
                    .fields
                    .iter()
                    .any(|f| f.eq_ignore_ascii_case(&doc.field)))
    }
}

/// An inverted index over text documents with TF-IDF ranking.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    documents: Vec<Document>,
    /// term → (document ordinal → term frequency)
    postings: HashMap<String, HashMap<usize, usize>>,
}

impl InvertedIndex {
    /// Create an empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.documents.len()
    }

    /// Add a document. `doc_id` should be unique per (source, field, object);
    /// the index does not deduplicate.
    pub fn add_document(
        &mut self,
        doc_id: impl Into<String>,
        source: impl Into<String>,
        field: impl Into<String>,
        text: &str,
    ) {
        let tokens = tokenize_without_stopwords(text);
        let ordinal = self.documents.len();
        self.documents.push(Document {
            id: doc_id.into(),
            source: source.into(),
            field: field.into(),
            length: tokens.len(),
        });
        for t in tokens {
            *self
                .postings
                .entry(t)
                .or_default()
                .entry(ordinal)
                .or_insert(0) += 1;
        }
    }

    /// Ranked search. Returns up to `top_k` hits matching the filter, ordered
    /// by descending TF-IDF score; ties broken by document id for determinism.
    pub fn search(&self, query: &str, top_k: usize, filter: &SearchFilter) -> Vec<SearchHit> {
        let terms = tokenize_without_stopwords(query);
        if terms.is_empty() || self.documents.is_empty() {
            return Vec::new();
        }
        let n = self.documents.len() as f64;
        let mut scores: HashMap<usize, f64> = HashMap::new();
        let unique_terms: HashSet<&String> = terms.iter().collect();
        for term in unique_terms {
            if let Some(posting) = self.postings.get(term.as_str()) {
                let idf = ((1.0 + n) / (1.0 + posting.len() as f64)).ln() + 1.0;
                for (&doc, &tf) in posting {
                    let dl = self.documents[doc].length.max(1) as f64;
                    let weight = (tf as f64 / dl) * idf;
                    *scores.entry(doc).or_insert(0.0) += weight;
                }
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .filter(|(doc, _)| filter.matches(&self.documents[*doc]))
            .map(|(doc, score)| {
                let d = &self.documents[doc];
                SearchHit {
                    doc_id: d.id.clone(),
                    source: d.source.clone(),
                    field: d.field.clone(),
                    score,
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.doc_id.cmp(&b.doc_id))
        });
        hits.truncate(top_k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(
            "protein_kb/1",
            "protein_kb",
            "description",
            "serine threonine kinase in cell signalling",
        );
        idx.add_document(
            "protein_kb/2",
            "protein_kb",
            "description",
            "glucose membrane transporter",
        );
        idx.add_document(
            "structure_db/1",
            "structure_db",
            "title",
            "crystal structure of a serine kinase",
        );
        idx.add_document(
            "gene_db/1",
            "gene_db",
            "summary",
            "gene encoding a ribosomal assembly factor",
        );
        idx
    }

    #[test]
    fn counts() {
        let idx = index();
        assert_eq!(idx.doc_count(), 4);
    }

    #[test]
    fn search_ranks_relevant_documents_first() {
        let idx = index();
        let hits = idx.search("serine kinase", 10, &SearchFilter::any());
        assert!(hits.len() >= 2);
        assert!(
            hits[0].doc_id.contains("protein_kb/1") || hits[0].doc_id.contains("structure_db/1")
        );
        assert!(hits.iter().all(|h| h.score > 0.0));
        // The transporter document should not match at all.
        assert!(hits.iter().all(|h| h.doc_id != "protein_kb/2"));
    }

    #[test]
    fn horizontal_partition_filters_sources() {
        let idx = index();
        let hits = idx.search("kinase", 10, &SearchFilter::source("structure_db"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].source, "structure_db");
    }

    #[test]
    fn vertical_partition_filters_fields() {
        let idx = index();
        let hits = idx.search("kinase", 10, &SearchFilter::field("description"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field, "description");
    }

    #[test]
    fn empty_query_or_empty_index() {
        let idx = index();
        assert!(idx.search("", 5, &SearchFilter::any()).is_empty());
        assert!(idx.search("the of and", 5, &SearchFilter::any()).is_empty());
        let empty = InvertedIndex::new();
        assert!(empty.search("kinase", 5, &SearchFilter::any()).is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let idx = index();
        let hits = idx.search("kinase structure gene transporter", 2, &SearchFilter::any());
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn rare_terms_outrank_common_ones() {
        let mut idx = InvertedIndex::new();
        for i in 0..20 {
            idx.add_document(format!("d{i}"), "s", "f", "kinase enzyme");
        }
        idx.add_document("special", "s", "f", "kinase telomerase");
        let hits = idx.search("telomerase", 5, &SearchFilter::any());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc_id, "special");
    }
}
