//! Accounting of human effort: the "cost of integration" row of Table 1.

use std::ops::Add;

/// Counts of human-specified artifacts required to integrate a corpus with a
/// given approach. ALADIN's claim is that all of these except
/// `parsers_written` are (almost) zero for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HumanEffort {
    /// Import parsers that had to be written or configured per source.
    pub parsers_written: usize,
    /// Schema elements that had to be declared by hand (tables, fields,
    /// cross-reference fields in SRS; global-schema elements in a mediator).
    pub schema_elements_declared: usize,
    /// Semantic mappings written by hand (source element → global element).
    pub mappings_written: usize,
    /// Per-object curation actions (reading, merging, annotating an entry).
    pub curation_actions: usize,
}

impl HumanEffort {
    /// Total number of human actions, weighting curation actions the same as
    /// specification artifacts (a deliberately coarse, transparent measure).
    pub fn total(&self) -> usize {
        self.parsers_written
            + self.schema_elements_declared
            + self.mappings_written
            + self.curation_actions
    }
}

impl Add for HumanEffort {
    type Output = HumanEffort;
    fn add(self, rhs: HumanEffort) -> HumanEffort {
        HumanEffort {
            parsers_written: self.parsers_written + rhs.parsers_written,
            schema_elements_declared: self.schema_elements_declared + rhs.schema_elements_declared,
            mappings_written: self.mappings_written + rhs.mappings_written,
            curation_actions: self.curation_actions + rhs.curation_actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_addition() {
        let a = HumanEffort {
            parsers_written: 2,
            schema_elements_declared: 10,
            mappings_written: 5,
            curation_actions: 0,
        };
        let b = HumanEffort {
            curation_actions: 100,
            ..Default::default()
        };
        assert_eq!(a.total(), 17);
        assert_eq!((a + b).total(), 117);
        assert_eq!(HumanEffort::default().total(), 0);
    }
}
