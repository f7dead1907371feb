//! TF-IDF document vectors and cosine similarity.
//!
//! [`TfIdfModel::most_similar`] ranks the fitted documents against a query
//! through per-term postings rather than one cosine per document. At
//! [`TfIdfModel::fit`] the model records, for every term, the
//! `(document ordinal, weight)` of each fitted document that contains it,
//! and each document's norm. A query is vectorized once; its terms are
//! walked in key order, and each posting adds `w_query * w_doc` into that
//! document's dot product, so only documents sharing a term are touched.
//! The scores are bit-identical to [`cosine_similarity`] of the query
//! against each fitted vector:
//!
//! * each dot product starts at `0.0` and adds the same products in the same
//!   key order (the shared terms, in `BTreeMap` order) as `cosine_similarity`;
//! * both norms come from the expression `cosine_similarity` uses, the
//!   document's at `fit`, the query's per query (it is not assumed to be 1);
//! * a document that shares no term with the query has a zero dot product
//!   and would be dropped by the `> 0.0` filter anyway.
//!
//! Only scores above zero are ranked, `exclude` drops exact ids, and the
//! order is score descending, then id ascending. A repeated id keeps its
//! last text, while every document, repeats included, counts towards the
//! document frequencies behind [`TfIdfModel::idf`].

use crate::tokenize::tokenize_without_stopwords;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// A sparse TF-IDF vector: term → weight.
///
/// A `BTreeMap` rather than a `HashMap` on purpose: every accumulation over
/// the vector (norms, dot products) then runs in key order, so similarity
/// scores are bit-identical across runs, threads and vector instances —
/// `HashMap` iteration order is seeded per instance, which made repeated
/// pipeline runs differ in the last ulp of their link scores.
pub type SparseVector = BTreeMap<String, f64>;

/// A TF-IDF model fitted over a corpus of documents.
///
/// Documents are identified by the caller (usually `source/table/row`
/// coordinates); the model stores document frequencies, and the fitted
/// documents' L2-normalized vectors as per-term postings.
#[derive(Debug, Clone, Default)]
pub struct TfIdfModel {
    /// Number of documents the model was fitted on.
    doc_count: usize,
    /// Document frequency per term.
    doc_freq: HashMap<String, usize>,
    /// Fitted document ids, by ordinal.
    ids: Vec<String>,
    /// The norm of each fitted document's vector, by ordinal.
    norms: Vec<f64>,
    /// Per term, the `(document ordinal, weight)` of every fitted document
    /// whose vector holds it.
    postings: HashMap<String, Vec<(usize, f64)>>,
}

impl TfIdfModel {
    /// Fit a model over `(document id, text)` pairs.
    pub fn fit<I, S1, S2>(documents: I) -> TfIdfModel
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: Into<String>,
        S2: AsRef<str>,
    {
        let docs: Vec<(String, Vec<String>)> = documents
            .into_iter()
            .map(|(id, text)| (id.into(), tokenize_without_stopwords(text.as_ref())))
            .collect();
        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        for (_, tokens) in &docs {
            let mut seen = std::collections::HashSet::new();
            for t in tokens {
                if seen.insert(t) {
                    *doc_freq.entry(t.clone()).or_insert(0) += 1;
                }
            }
        }
        let mut model = TfIdfModel {
            doc_count: docs.len(),
            doc_freq,
            ..TfIdfModel::default()
        };
        // A repeated id keeps its last text, as a map insert would.
        let mut ordinals: HashMap<String, usize> = HashMap::new();
        let mut vectors: Vec<SparseVector> = Vec::new();
        for (id, tokens) in docs {
            let v = model.vectorize_tokens(&tokens);
            match ordinals.entry(id) {
                Entry::Occupied(slot) => vectors[*slot.get()] = v,
                Entry::Vacant(slot) => {
                    model.ids.push(slot.key().clone());
                    slot.insert(vectors.len());
                    vectors.push(v);
                }
            }
        }
        for (ordinal, v) in vectors.into_iter().enumerate() {
            model.norms.push(norm(&v));
            for (term, weight) in v {
                model
                    .postings
                    .entry(term)
                    .or_default()
                    .push((ordinal, weight));
            }
        }
        model
    }

    /// Number of fitted documents.
    pub fn len(&self) -> usize {
        self.doc_count
    }

    /// True if no documents were fitted.
    pub fn is_empty(&self) -> bool {
        self.doc_count == 0
    }

    /// Inverse document frequency of a term with add-one smoothing.
    pub fn idf(&self, term: &str) -> f64 {
        let df = self.doc_freq.get(term).copied().unwrap_or(0);
        ((1.0 + self.doc_count as f64) / (1.0 + df as f64)).ln() + 1.0
    }

    fn vectorize_tokens(&self, tokens: &[String]) -> SparseVector {
        let mut tf: HashMap<&str, usize> = HashMap::new();
        for t in tokens {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        let mut v: SparseVector = tf
            .into_iter()
            .map(|(t, c)| (t.to_string(), c as f64 * self.idf(t)))
            .collect();
        l2_normalize(&mut v);
        v
    }

    /// Vectorize arbitrary text against the fitted vocabulary (terms unseen
    /// during fitting still receive the smoothed default IDF).
    pub fn vectorize(&self, text: &str) -> SparseVector {
        self.vectorize_tokens(&tokenize_without_stopwords(text))
    }

    /// The `top_k` most similar fitted documents to the given text, excluding
    /// exact id matches in `exclude`, sorted by descending similarity, then
    /// ascending id. Scores are [`cosine_similarity`] of the query vector
    /// against each document's, computed through the postings (see the
    /// module docs); documents scoring 0 are left out.
    pub fn most_similar(&self, text: &str, top_k: usize, exclude: &[&str]) -> Vec<(String, f64)> {
        let query = self.vectorize(text);
        let query_norm = norm(&query);
        let mut dots: Vec<Option<f64>> = vec![None; self.ids.len()];
        let mut touched: Vec<usize> = Vec::new();
        for (term, w) in &query {
            for &(ordinal, weight) in self.postings.get(term).map_or(&[][..], Vec::as_slice) {
                let dot = dots[ordinal].get_or_insert_with(|| {
                    touched.push(ordinal);
                    0.0
                });
                *dot += w * weight;
            }
        }
        let mut scored: Vec<(usize, f64)> = touched
            .into_iter()
            .filter(|&ordinal| !exclude.contains(&self.ids[ordinal].as_str()))
            .map(|ordinal| {
                let dot = dots[ordinal].unwrap_or_default();
                (ordinal, cosine(dot, query_norm, self.norms[ordinal]))
            })
            .filter(|(_, s)| *s > 0.0)
            .collect();
        // Ids are unique, so this order is total: selecting the top `top_k`
        // and sorting them equals sorting everything and truncating.
        let rank = |a: &(usize, f64), b: &(usize, f64)| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.ids[a.0].cmp(&self.ids[b.0]))
        };
        if top_k < scored.len() {
            scored.select_nth_unstable_by(top_k, rank);
            scored.truncate(top_k);
        }
        scored.sort_by(rank);
        scored
            .into_iter()
            .map(|(ordinal, s)| (self.ids[ordinal].clone(), s))
            .collect()
    }
}

/// The L2 norm of a vector, summed in key order. Every norm the model uses
/// comes from here, so a score computed through the postings equals the one
/// [`cosine_similarity`] computes.
fn norm(v: &SparseVector) -> f64 {
    v.values().map(|w| w * w).sum::<f64>().sqrt()
}

/// The cosine of two vectors from their dot product and norms: 0 when either
/// norm is 0, else `dot / (norm_a * norm_b)` clamped to `[0, 1]`.
fn cosine(dot: f64, norm_a: f64, norm_b: f64) -> f64 {
    if norm_a == 0.0 || norm_b == 0.0 {
        0.0
    } else {
        (dot / (norm_a * norm_b)).clamp(0.0, 1.0)
    }
}

fn l2_normalize(v: &mut SparseVector) {
    let length = norm(v);
    if length > 0.0 {
        for w in v.values_mut() {
            *w /= length;
        }
    }
}

/// Cosine similarity of two sparse vectors (assumed L2-normalized or not —
/// the function normalizes by the product of norms).
pub fn cosine_similarity(a: &SparseVector, b: &SparseVector) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 = small
        .iter()
        .filter_map(|(t, w)| large.get(t).map(|w2| w * w2))
        .sum();
    cosine(dot, norm(a), norm(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DOCS: [(&str, &str); 4] = [
        ("d1", "serine threonine kinase involved in cell signalling"),
        ("d2", "membrane transporter for glucose uptake"),
        ("d3", "serine kinase regulating the cell cycle"),
        ("d4", "ribosomal subunit assembly factor"),
    ];

    fn model() -> TfIdfModel {
        TfIdfModel::fit(DOCS)
    }

    /// The `most_similar` the postings replaced, verbatim, over document
    /// vectors rebuilt from the corpus the way the old `fit` built them: one
    /// `vectorize` per text, a repeated id keeping its last. The oracle of
    /// the property below.
    fn reference_most_similar(
        model: &TfIdfModel,
        corpus: &[(String, String)],
        text: &str,
        top_k: usize,
        exclude: &[&str],
    ) -> Vec<(String, f64)> {
        let vectors: HashMap<String, SparseVector> = corpus
            .iter()
            .map(|(id, text)| (id.clone(), model.vectorize(text)))
            .collect();
        let query = model.vectorize(text);
        let mut scored: Vec<(String, f64)> = vectors
            .iter()
            .filter(|(id, _)| !exclude.contains(&id.as_str()))
            .map(|(id, v)| (id.clone(), cosine_similarity(&query, v)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(top_k);
        scored
    }

    /// Words of a small vocabulary, so documents share terms and scores
    /// tie: domain words, stop words, Unicode and punctuation.
    const WORDS: [&str; 20] = [
        "kinase", "serine", "membrane", "cell", "cycle", "gene", "protein", "factor", "the", "of",
        "and", "a", "in", "Zelle", "kinasé", "ΑΒ", "–", "über", "naïve", "3.5,",
    ];

    /// Texts of up to 12 words, empty and stop-word-only texts included.
    fn text() -> impl Strategy<Value = String> {
        let word = prop_oneof![
            (0usize..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
            "[a-e]{1,3}",
        ];
        prop::collection::vec(word, 0..12).prop_map(|words| words.join(" "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn postings_equal_the_dense_reference(
            docs in prop::collection::vec((0usize..12, text()), 0..16),
            query in text(),
            top_k in 0usize..20,
            excluded in prop::collection::vec(0usize..14, 0..3),
        ) {
            // Ids drawn from a small range, so some repeat.
            let corpus: Vec<(String, String)> =
                docs.into_iter().map(|(id, t)| (format!("doc{id}"), t)).collect();
            let model = TfIdfModel::fit(corpus.clone());
            prop_assert_eq!(model.len(), corpus.len());
            let exclude_ids: Vec<String> = excluded.iter().map(|e| format!("doc{e}")).collect();
            let exclude: Vec<&str> = exclude_ids.iter().map(String::as_str).collect();
            // Fitted texts as queries too, so exact matches and score 1 occur.
            let queries = std::iter::once(&query).chain(corpus.iter().map(|(_, t)| t));
            for q in queries {
                for k in [top_k, corpus.len()] {
                    let bits = |hits: Vec<(String, f64)>| -> Vec<(String, u64)> {
                        hits.into_iter().map(|(id, s)| (id, s.to_bits())).collect()
                    };
                    let got = bits(model.most_similar(q, k, &exclude));
                    let want = bits(reference_most_similar(&model, &corpus, q, k, &exclude));
                    prop_assert_eq!(got, want, "query {:?}", q);
                }
            }
        }
    }

    #[test]
    fn fit_counts_documents() {
        let m = model();
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        let ids: Vec<String> = m
            .most_similar("kinase transporter ribosomal", 10, &[])
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids.len(), 4);
        assert!(["d1", "d2", "d3", "d4"]
            .iter()
            .all(|d| ids.iter().any(|id| id == d)));
    }

    #[test]
    fn similar_documents_score_higher() {
        let m = model();
        let d1 = m.vectorize(DOCS[0].1);
        let s_close = cosine_similarity(&d1, &m.vectorize(DOCS[2].1));
        let s_far = cosine_similarity(&d1, &m.vectorize(DOCS[1].1));
        assert!(s_close > s_far);
        assert!(s_close > 0.2);
        assert!(s_far < 0.2);
        let ranked = m.most_similar(DOCS[0].1, 4, &["d1"]);
        assert_eq!(ranked[0], ("d3".to_string(), s_close));
        assert!(ranked.iter().all(|(id, _)| id != "d2"));
    }

    #[test]
    fn self_similarity_is_one() {
        let m = model();
        let top = &m.most_similar(DOCS[1].1, 1, &[])[0];
        assert_eq!(top.0, "d2");
        assert!((top.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_documents_score_zero() {
        let m = model();
        assert!(m.most_similar("nope zilch nada", 4, &[]).is_empty());
        assert!(m.most_similar("the of and", 4, &[]).is_empty());
        let nothing = m.vectorize("");
        assert_eq!(cosine_similarity(&m.vectorize(DOCS[0].1), &nothing), 0.0);
    }

    #[test]
    fn most_similar_ranks_and_excludes() {
        let m = model();
        let hits = m.most_similar("kinase of the cell", 2, &["d1"]);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0, "d3");
        assert!(hits.iter().all(|(id, _)| id != "d1"));
        assert!(hits.len() <= 2);
    }

    #[test]
    fn idf_weights_rare_terms_higher() {
        let m = model();
        assert!(m.idf("glucose") > m.idf("kinase"));
        // Unknown terms get the maximum smoothed idf.
        assert!(m.idf("zzzz") >= m.idf("glucose"));
    }

    #[test]
    fn cosine_handles_empty_vectors() {
        let empty: SparseVector = SparseVector::new();
        let mut v: SparseVector = SparseVector::new();
        v.insert("x".into(), 1.0);
        assert_eq!(cosine_similarity(&empty, &v), 0.0);
        assert_eq!(cosine_similarity(&empty, &empty), 0.0);
    }

    #[test]
    fn empty_model_behaves() {
        let m = TfIdfModel::fit(Vec::<(String, String)>::new());
        assert!(m.is_empty());
        assert!(m.most_similar("anything", 5, &[]).is_empty());
    }
}
