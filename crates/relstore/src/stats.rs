//! Per-column statistics ("statistical metadata" in the paper's metadata
//! repository).
//!
//! Link discovery and the primary-relation heuristics rely on value
//! distributions rather than schema semantics: how many distinct values an
//! attribute has, whether values are purely numeric, how long they are and how
//! much their lengths vary, which characters they are drawn from. The paper
//! notes that "these statistics need to be computed only once for each data
//! source and can then be reused" — [`ColumnStats`] is that reusable artifact.

use crate::error::RelResult;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;

/// Character-class composition of a text column, as fractions of non-null
/// values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CharClassProfile {
    /// Fraction of values consisting only of ASCII digits.
    pub all_digits: f64,
    /// Fraction of values containing at least one non-digit character.
    pub has_non_digit: f64,
    /// Fraction of values containing at least one ASCII letter.
    pub has_letter: f64,
    /// Fraction of values consisting only of characters from the DNA/RNA
    /// alphabet `{A,C,G,T,U,N}` (case-insensitive); a strong signal for
    /// sequence fields.
    pub nucleotide_like: f64,
    /// Fraction of values consisting only of the 20 amino-acid one-letter
    /// codes (plus X/B/Z ambiguity codes); a signal for protein sequences.
    pub amino_acid_like: f64,
    /// Fraction of values containing whitespace (free text rather than keys).
    pub has_whitespace: f64,
}

/// Statistics for a single column of a single table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Total number of rows scanned.
    pub row_count: usize,
    /// Number of NULL values.
    pub null_count: usize,
    /// Number of distinct non-null values.
    pub distinct_count: usize,
    /// Whether all non-null values are distinct (and at least one exists).
    pub is_unique: bool,
    /// Whether every non-null value is numeric (Int/Float or digit-only text).
    pub all_numeric: bool,
    /// Minimum rendered length of non-null values.
    pub min_len: usize,
    /// Maximum rendered length of non-null values.
    pub max_len: usize,
    /// Mean rendered length of non-null values.
    pub avg_len: f64,
    /// Character-class composition.
    pub char_profile: CharClassProfile,
    /// Up to `sample_size` sample values (rendered), for the metadata
    /// repository and for instance-based schema matching.
    pub samples: Vec<String>,
}

impl ColumnStats {
    /// Relative length spread `(max_len - min_len) / max(avg_len, 1)`. The
    /// paper requires accession values "to differ by at most 20 percent in
    /// length"; this is the quantity that threshold applies to.
    pub fn length_spread(&self) -> f64 {
        if self.non_null_count() == 0 {
            return 0.0;
        }
        (self.max_len - self.min_len) as f64 / self.avg_len.max(1.0)
    }

    /// Number of non-null values.
    pub fn non_null_count(&self) -> usize {
        self.row_count - self.null_count
    }

    /// Fraction of rows that are non-null.
    pub fn coverage(&self) -> f64 {
        if self.row_count == 0 {
            0.0
        } else {
            self.non_null_count() as f64 / self.row_count as f64
        }
    }

    /// Distinct values per non-null value (1.0 = key-like, near 0 = code
    /// list). Used by the "attributes with few distinct values should be
    /// excluded" pruning rule.
    pub fn selectivity(&self) -> f64 {
        let n = self.non_null_count();
        if n == 0 {
            0.0
        } else {
            self.distinct_count as f64 / n as f64
        }
    }

    /// Estimated number of rows matched by an equality predicate on this
    /// column, assuming a uniform value distribution: non-null rows divided
    /// by distinct values (at least 1 when any value exists). The rule-based
    /// optimizer uses this to cost index scans and to pick hash-join build
    /// sides.
    pub fn estimated_eq_rows(&self) -> f64 {
        if self.distinct_count == 0 {
            0.0
        } else {
            (self.non_null_count() as f64 / self.distinct_count as f64).max(1.0)
        }
    }

    /// Heuristic: does this column look like it stores biological sequences
    /// (long values over a nucleotide or amino-acid alphabet)?
    pub fn looks_like_sequence(&self) -> bool {
        self.avg_len >= 30.0
            && (self.char_profile.nucleotide_like >= 0.9
                || self.char_profile.amino_acid_like >= 0.9)
    }

    /// Heuristic: does this column look like free text (descriptions,
    /// functional annotation)?
    pub fn looks_like_free_text(&self) -> bool {
        self.char_profile.has_whitespace >= 0.5 && self.avg_len >= 15.0
    }
}

fn is_nucleotide_like(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| matches!(c.to_ascii_uppercase(), 'A' | 'C' | 'G' | 'T' | 'U' | 'N'))
}

fn is_amino_acid_like(s: &str) -> bool {
    const AA: &str = "ACDEFGHIKLMNPQRSTVWYXBZ";
    !s.is_empty() && s.chars().all(|c| AA.contains(c.to_ascii_uppercase()))
}

/// Profile one column of a table, scanning every row.
pub fn profile_column(table: &Table, column: &str, sample_size: usize) -> RelResult<ColumnStats> {
    let idx = table.column_index(column)?;
    let mut null_count = 0usize;
    let mut distinct: HashSet<&Value> = HashSet::new();
    let mut all_numeric = true;
    let mut min_len = usize::MAX;
    let mut max_len = 0usize;
    let mut total_len = 0usize;
    let mut n_digits = 0usize;
    let mut n_non_digit = 0usize;
    let mut n_letter = 0usize;
    let mut n_nuc = 0usize;
    let mut n_aa = 0usize;
    let mut n_ws = 0usize;
    let mut samples = Vec::new();
    let mut non_null = 0usize;

    for row in table.rows() {
        let v = &row[idx];
        if v.is_null() {
            null_count += 1;
            continue;
        }
        non_null += 1;
        distinct.insert(v);
        let rendered = v.render();
        let len = rendered.chars().count();
        min_len = min_len.min(len);
        max_len = max_len.max(len);
        total_len += len;

        let numeric = match v {
            Value::Int(_) | Value::Float(_) => true,
            Value::Text(s) => !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
            _ => false,
        };
        if !numeric {
            all_numeric = false;
        }
        if rendered.chars().all(|c| c.is_ascii_digit()) && !rendered.is_empty() {
            n_digits += 1;
        }
        if rendered.chars().any(|c| !c.is_ascii_digit()) {
            n_non_digit += 1;
        }
        if rendered.chars().any(|c| c.is_ascii_alphabetic()) {
            n_letter += 1;
        }
        if is_nucleotide_like(&rendered) {
            n_nuc += 1;
        }
        if is_amino_acid_like(&rendered) {
            n_aa += 1;
        }
        if rendered.chars().any(char::is_whitespace) {
            n_ws += 1;
        }
        if samples.len() < sample_size {
            samples.push(rendered);
        }
    }

    let frac = |n: usize| {
        if non_null == 0 {
            0.0
        } else {
            n as f64 / non_null as f64
        }
    };
    let is_unique = non_null > 0 && distinct.len() == non_null;

    Ok(ColumnStats {
        table: table.name().to_string(),
        column: table
            .schema()
            .column_at(idx)
            .map(|c| c.name.clone())
            .unwrap_or_else(|| column.to_string()),
        row_count: table.row_count(),
        null_count,
        distinct_count: distinct.len(),
        is_unique,
        all_numeric: non_null > 0 && all_numeric,
        min_len: if non_null == 0 { 0 } else { min_len },
        max_len,
        avg_len: if non_null == 0 {
            0.0
        } else {
            total_len as f64 / non_null as f64
        },
        char_profile: CharClassProfile {
            all_digits: frac(n_digits),
            has_non_digit: frac(n_non_digit),
            has_letter: frac(n_letter),
            nucleotide_like: frac(n_nuc),
            amino_acid_like: frac(n_aa),
            has_whitespace: frac(n_ws),
        },
        samples,
    })
}

/// Profile every column of a table.
pub fn profile_table(table: &Table, sample_size: usize) -> RelResult<Vec<ColumnStats>> {
    table
        .schema()
        .columns()
        .iter()
        .map(|c| profile_column(table, &c.name, sample_size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};

    fn table() -> Table {
        let schema = TableSchema::of(vec![
            ColumnDef::int("id"),
            ColumnDef::text("accession"),
            ColumnDef::text("description"),
            ColumnDef::text("sequence"),
        ]);
        let mut t = Table::new("protein", schema);
        let rows = vec![
            (
                1,
                "P12345",
                "serine kinase involved in signalling",
                "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ",
            ),
            (
                2,
                "P67890",
                "membrane transporter",
                "MSDNNNAKVVLIGAGGIGCELLKNLVLTGFSHI",
            ),
            (
                3,
                "Q00001",
                "unknown protein",
                "MAAAKKVVLIGAGGIGCELLKQQQSFVKSHFSR",
            ),
        ];
        for (id, acc, desc, seq) in rows {
            t.insert(vec![
                Value::Int(id),
                Value::text(acc),
                Value::text(desc),
                Value::text(seq),
            ])
            .unwrap();
        }
        t.insert(vec![
            Value::Int(4),
            Value::text("Q99999"),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        t
    }

    #[test]
    fn profiles_basic_counts() {
        let t = table();
        let s = profile_column(&t, "accession", 10).unwrap();
        assert_eq!(s.row_count, 4);
        assert_eq!(s.null_count, 0);
        assert_eq!(s.distinct_count, 4);
        assert!(s.is_unique);
        assert!(!s.all_numeric);
        assert_eq!(s.min_len, 6);
        assert_eq!(s.max_len, 6);
        assert!((s.avg_len - 6.0).abs() < 1e-9);
        assert_eq!(s.length_spread(), 0.0);
        assert_eq!(s.samples.len(), 4);
    }

    #[test]
    fn profiles_nulls_and_coverage() {
        let t = table();
        let s = profile_column(&t, "description", 2).unwrap();
        assert_eq!(s.null_count, 1);
        assert_eq!(s.non_null_count(), 3);
        assert!((s.coverage() - 0.75).abs() < 1e-9);
        assert_eq!(s.samples.len(), 2);
        assert!(s.looks_like_free_text());
    }

    #[test]
    fn numeric_surrogate_keys_detected() {
        let t = table();
        let s = profile_column(&t, "id", 10).unwrap();
        assert!(s.all_numeric);
        assert!(s.is_unique);
        assert!(s.char_profile.has_non_digit < 1e-9);
        assert!(!s.looks_like_sequence());
    }

    #[test]
    fn sequence_columns_detected() {
        let t = table();
        let s = profile_column(&t, "sequence", 10).unwrap();
        assert!(s.char_profile.amino_acid_like > 0.9);
        assert!(s.looks_like_sequence());
        assert!(!s.looks_like_free_text());
    }

    #[test]
    fn empty_column_is_not_unique_and_has_zero_stats() {
        let schema = TableSchema::of(vec![ColumnDef::text("only_nulls")]);
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Null]).unwrap();
        let s = profile_column(&t, "only_nulls", 5).unwrap();
        assert!(!s.is_unique);
        assert_eq!(s.distinct_count, 0);
        assert_eq!(s.min_len, 0);
        assert_eq!(s.avg_len, 0.0);
        assert_eq!(s.selectivity(), 0.0);
        assert_eq!(s.length_spread(), 0.0);
    }

    #[test]
    fn estimated_eq_rows_reflects_distinctness() {
        let t = table();
        let unique = profile_column(&t, "accession", 0).unwrap();
        assert_eq!(unique.estimated_eq_rows(), 1.0);
        let schema = TableSchema::of(vec![ColumnDef::text("kind")]);
        let mut dup = Table::new("t", schema);
        for i in 0..10 {
            dup.insert(vec![Value::text(if i % 2 == 0 { "a" } else { "b" })])
                .unwrap();
        }
        let s = profile_column(&dup, "kind", 0).unwrap();
        assert_eq!(s.estimated_eq_rows(), 5.0);
    }

    #[test]
    fn selectivity_distinguishes_keys_from_code_lists() {
        let schema = TableSchema::of(vec![ColumnDef::text("kind")]);
        let mut t = Table::new("t", schema);
        for i in 0..100 {
            t.insert(vec![Value::text(if i % 2 == 0 {
                "gene"
            } else {
                "protein"
            })])
            .unwrap();
        }
        let s = profile_column(&t, "kind", 5).unwrap();
        assert!(s.selectivity() < 0.05);
        assert!(!s.is_unique);
    }

    #[test]
    fn profile_table_covers_all_columns() {
        let t = table();
        let all = profile_table(&t, 3).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].column, "accession");
    }

    #[test]
    fn nucleotide_and_amino_acid_detectors() {
        assert!(is_nucleotide_like("ACGTACGTNNN"));
        assert!(is_nucleotide_like("acgtu"));
        assert!(!is_nucleotide_like("ACGX"));
        assert!(!is_nucleotide_like(""));
        assert!(is_amino_acid_like("MKTAYIAKQR"));
        assert!(!is_amino_acid_like("MKTA1"));
    }
}
