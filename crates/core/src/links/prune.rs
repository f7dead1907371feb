//! Pruning of candidate attribute pairs for link discovery.
//!
//! "Conceptually, to discover all such links, we need to look at each pair of
//! attributes among two databases. However, substantial pruning can be applied
//! based on data characteristics. For instance, the attribute representing the
//! target of a cross-reference is always a primary key in the respective
//! table. Further, attributes with few distinct values should be excluded from
//! being a link source, as are attributes with purely numeric values to avoid
//! misinterpretation of surrogate keys." (Section 4.4)

use crate::config::AladinConfig;
use crate::metadata::SourceStructure;

/// An attribute of a source that survived pruning and will be compared against
/// link targets of other sources.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateAttribute {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Average value length (used by the statistics-based pair pruning).
    pub avg_len: f64,
    /// Whether every value is numeric.
    pub all_numeric: bool,
    /// Number of distinct values.
    pub distinct: usize,
}

/// Counters describing how much work pruning saved; reported by experiment E5.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruningStats {
    /// Attributes considered before pruning.
    pub attributes_total: usize,
    /// Attributes kept after pruning.
    pub attributes_kept: usize,
    /// Attributes dropped because they are purely numeric.
    pub dropped_numeric: usize,
    /// Attributes dropped because of low cardinality.
    pub dropped_low_cardinality: usize,
}

/// Select the source attributes of `structure` that are worth comparing
/// against other sources' link targets, applying the configured pruning rules.
pub fn candidate_source_attributes(
    structure: &SourceStructure,
    config: &AladinConfig,
) -> (Vec<CandidateAttribute>, PruningStats) {
    let mut stats = PruningStats::default();
    let mut out = Vec::new();
    for cs in &structure.column_stats {
        stats.attributes_total += 1;
        if cs.non_null_count() == 0 {
            continue;
        }
        if config.pruning.exclude_numeric && cs.all_numeric {
            stats.dropped_numeric += 1;
            continue;
        }
        if config.pruning.exclude_low_cardinality && cs.distinct_count < config.min_distinct_values
        {
            stats.dropped_low_cardinality += 1;
            continue;
        }
        out.push(CandidateAttribute {
            table: cs.table.clone(),
            column: cs.column.clone(),
            avg_len: cs.avg_len,
            all_numeric: cs.all_numeric,
            distinct: cs.distinct_count,
        });
    }
    stats.attributes_kept = out.len();
    (out, stats)
}

/// Statistics-based pair pruning: skip comparing a source attribute against a
/// target accession column whose value shape is clearly incompatible (average
/// lengths differ by more than a factor of four and the source is not a long
/// free-text field that could *contain* the accession).
pub fn pair_is_plausible(source: &CandidateAttribute, target_avg_len: f64) -> bool {
    if source.avg_len >= target_avg_len {
        // The source could embed the accession (composite strings, free text).
        true
    } else {
        source.avg_len * 4.0 >= target_avg_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruningConfig;
    use aladin_relstore::stats::{CharClassProfile, ColumnStats};

    fn col(table: &str, column: &str, numeric: bool, distinct: usize, avg_len: f64) -> ColumnStats {
        ColumnStats {
            table: table.into(),
            column: column.into(),
            row_count: distinct.max(1),
            null_count: 0,
            distinct_count: distinct,
            is_unique: false,
            all_numeric: numeric,
            min_len: avg_len as usize,
            max_len: avg_len as usize,
            avg_len,
            char_profile: CharClassProfile::default(),
            samples: Vec::new(),
        }
    }

    fn structure() -> SourceStructure {
        SourceStructure {
            source: "structdb".into(),
            column_stats: vec![
                col("dbxrefs", "db_accession", false, 50, 6.0),
                col("dbxrefs", "dbxref_id", true, 50, 3.0),
                col("structures", "method", false, 2, 12.0),
                col("chains", "residue_count", true, 40, 3.0),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn default_pruning_drops_numeric_and_low_cardinality() {
        let (candidates, stats) =
            candidate_source_attributes(&structure(), &AladinConfig::default());
        let names: Vec<&str> = candidates.iter().map(|c| c.column.as_str()).collect();
        assert_eq!(names, vec!["db_accession"]);
        assert_eq!(stats.attributes_total, 4);
        assert_eq!(stats.attributes_kept, 1);
        assert_eq!(stats.dropped_numeric, 2);
        assert_eq!(stats.dropped_low_cardinality, 1);
    }

    #[test]
    fn disabling_pruning_keeps_everything() {
        let config = AladinConfig {
            pruning: PruningConfig::none(),
            ..Default::default()
        };
        let (candidates, stats) = candidate_source_attributes(&structure(), &config);
        assert_eq!(candidates.len(), 4);
        assert_eq!(stats.dropped_numeric, 0);
        assert_eq!(stats.dropped_low_cardinality, 0);
    }

    #[test]
    fn pair_plausibility_uses_length_ratio() {
        let short = CandidateAttribute {
            table: "t".into(),
            column: "c".into(),
            avg_len: 3.0,
            all_numeric: false,
            distinct: 10,
        };
        assert!(!pair_is_plausible(&short, 15.0));
        assert!(pair_is_plausible(&short, 6.0));
        let long_text = CandidateAttribute {
            avg_len: 80.0,
            ..short.clone()
        };
        assert!(pair_is_plausible(&long_text, 6.0));
    }

    #[test]
    fn empty_columns_are_always_dropped() {
        let mut s = structure();
        s.column_stats.push(ColumnStats {
            row_count: 5,
            null_count: 5,
            ..col("x", "empty", false, 0, 0.0)
        });
        let config = AladinConfig {
            pruning: PruningConfig::none(),
            ..Default::default()
        };
        let (candidates, _) = candidate_source_attributes(&s, &config);
        assert!(candidates.iter().all(|c| c.column != "empty"));
    }
}
