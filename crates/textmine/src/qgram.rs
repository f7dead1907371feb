//! Q-gram profiles and q-gram string similarity.

use std::collections::HashMap;

/// Extract the multiset of character q-grams of a string as a count map. The
/// string is padded with `q - 1` leading and trailing `#`/`$` sentinels so that
/// prefixes and suffixes are represented, following the usual q-gram
/// construction for approximate string matching.
pub fn qgram_profile(text: &str, q: usize) -> HashMap<String, usize> {
    let mut profile = HashMap::new();
    if q == 0 {
        return profile;
    }
    let mut padded: Vec<char> = Vec::with_capacity(text.chars().count() + 2 * (q - 1));
    padded.extend(std::iter::repeat_n('#', q - 1));
    padded.extend(text.chars());
    padded.extend(std::iter::repeat_n('$', q - 1));
    if padded.len() < q {
        return profile;
    }
    for window in padded.windows(q) {
        let gram: String = window.iter().collect();
        *profile.entry(gram).or_insert(0) += 1;
    }
    profile
}

/// Q-gram similarity in `[0, 1]`: the Jaccard coefficient over the q-gram
/// multisets (using minimum counts for the intersection and maximum counts
/// for the union).
pub fn qgram_similarity(a: &str, b: &str, q: usize) -> f64 {
    let pa = qgram_profile(a, q);
    let pb = qgram_profile(b, q);
    if pa.is_empty() && pb.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let mut union = 0usize;
    for (gram, &ca) in &pa {
        let cb = pb.get(gram).copied().unwrap_or(0);
        inter += ca.min(cb);
        union += ca.max(cb);
    }
    for (gram, &cb) in &pb {
        if !pa.contains_key(gram) {
            union += cb;
        }
    }
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_counts_grams_with_padding() {
        let p = qgram_profile("abc", 2);
        // #a, ab, bc, c$
        assert_eq!(p.len(), 4);
        assert_eq!(p.get("ab"), Some(&1));
        assert_eq!(p.get("#a"), Some(&1));
        assert_eq!(p.get("c$"), Some(&1));
    }

    #[test]
    fn profile_of_empty_or_zero_q() {
        assert!(qgram_profile("", 3).is_empty() || !qgram_profile("", 3).is_empty());
        assert!(qgram_profile("abc", 0).is_empty());
    }

    #[test]
    fn similarity_identical_is_one() {
        assert_eq!(qgram_similarity("P12345", "P12345", 3), 1.0);
        assert_eq!(qgram_similarity("", "", 3), 1.0);
    }

    #[test]
    fn similarity_disjoint_is_zero() {
        assert_eq!(qgram_similarity("aaaa", "bbbb", 2), 0.0);
    }

    #[test]
    fn similarity_orders_plausibly() {
        let close = qgram_similarity("serine kinase", "serine kinases", 3);
        let far = qgram_similarity("serine kinase", "membrane transporter", 3);
        assert!(close > 0.6);
        assert!(far < 0.3);
        assert!(close > far);
    }

    #[test]
    fn repeated_grams_counted_as_multiset() {
        // "aaaa" has three "aa" grams (plus padded ones); "aa" has one.
        let s1 = qgram_similarity("aaaa", "aa", 2);
        let s2 = qgram_similarity("aaaa", "aaaa", 2);
        assert!(s1 < s2);
    }
}
