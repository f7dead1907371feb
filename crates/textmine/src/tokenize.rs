//! Tokenization and normalization of annotation text.

/// Lowercase a string and collapse every run of non-alphanumeric characters
/// into a single space. This is the canonical normalization applied before
/// tokenization, q-gram extraction and TF-IDF vectorization.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true;
    for c in text.chars() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Split normalized text into tokens. Tokens of length 1 are kept (gene
/// symbols like "p53" normalize to "p53", but single letters carry signal in
/// chain identifiers too).
pub fn tokenize(text: &str) -> Vec<String> {
    normalize(text)
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// Common English and annotation-boilerplate stop words that carry no linking
/// signal. Kept deliberately small; life-science descriptions are terse.
const STOP_WORDS: &[&str] = &[
    "the",
    "a",
    "an",
    "of",
    "in",
    "and",
    "or",
    "to",
    "for",
    "with",
    "by",
    "on",
    "is",
    "are",
    "this",
    "that",
    "from",
    "as",
    "at",
    "be",
    "its",
    "protein",
    "putative",
    "predicted",
    "hypothetical",
];

/// Tokenize and drop stop words.
pub fn tokenize_without_stopwords(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| !STOP_WORDS.contains(&t.as_str()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_collapses() {
        assert_eq!(
            normalize("Serine/threonine-protein KINASE  (EC 2.7.11.1)"),
            "serine threonine protein kinase ec 2 7 11 1"
        );
        assert_eq!(normalize("   "), "");
        assert_eq!(normalize("p53"), "p53");
    }

    #[test]
    fn tokenize_splits_on_punctuation() {
        assert_eq!(
            tokenize("ATP-binding cassette, sub-family A"),
            vec!["atp", "binding", "cassette", "sub", "family", "a"]
        );
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn stop_words_removed() {
        let toks = tokenize_without_stopwords("the kinase of the cell");
        assert_eq!(toks, vec!["kinase", "cell"]);
    }

    #[test]
    fn unicode_is_lowercased() {
        assert_eq!(normalize("Präprotein"), "präprotein");
    }
}
