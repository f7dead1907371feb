//! Domain-independent string similarity measures.
//!
//! The paper (Section 4.5) notes that "literature defines several
//! domain-independent similarity measures usually based on edit distance";
//! duplicate detection and cross-reference matching in `aladin-core` choose
//! among the measures implemented here.

/// Levenshtein edit distance (unit costs) between two strings, over Unicode
/// scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row dynamic program.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Levenshtein distance normalized to a similarity in `[0, 1]`:
/// `1 - dist / max_len`. Two empty strings are fully similar.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`.
fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == *ca {
                b_matched[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(b_matched.iter())
        .filter(|(_, &matched)| matched)
        .map(|(c, _)| *c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity in `[0, 1]` with the standard prefix scale 0.1 and
/// maximum prefix length 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Jaccard similarity of two token sets in `[0, 1]`. Empty ∪ empty = 1.
pub fn jaccard<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    use std::collections::HashSet;
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// Containment of `a` in `b`: `|a ∩ b| / |a|`. Useful for detecting that a
/// cross-reference string contains an accession number.
pub fn containment<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    use std::collections::HashSet;
    let sa: HashSet<&T> = a.iter().collect();
    if sa.is_empty() {
        return 0.0;
    }
    let sb: HashSet<&T> = b.iter().collect();
    sa.intersection(&sb).count() as f64 / sa.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("P12345", "P12345"), 0);
        assert_eq!(levenshtein("P12345", "P12346"), 1);
    }

    #[test]
    fn normalized_levenshtein_range() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let s = normalized_levenshtein("kinase alpha", "kinase beta");
        assert!(s > 0.5 && s < 1.0);
    }

    #[test]
    fn jaro_winkler_prefers_shared_prefixes() {
        let jw1 = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw1 - 0.9611).abs() < 0.001);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("abc", ""), 0.0);
        assert!(jaro_winkler("P12345", "P12344") > jaro_winkler("P12345", "45123P"));
    }

    #[test]
    fn jaro_identical_and_disjoint() {
        assert_eq!(jaro("same", "same"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaccard_and_containment() {
        let a = vec!["kinase", "serine", "atp"];
        let b = vec!["kinase", "atp", "binding"];
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-9);
        assert!((containment(&a, &b) - 2.0 / 3.0).abs() < 1e-9);
        let empty: Vec<&str> = vec![];
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert_eq!(containment(&empty, &a), 0.0);
    }
}
