//! A data-focused (manual curation) cost model.
//!
//! Swiss-Prot-style projects achieve the highest quality "by means of
//! approximately two dozen human data curators" (paper, Section 1); their cost
//! scales with the number of objects and the overlap between sources, not with
//! the number of schemas. The model below converts a corpus size into curation
//! actions so Table 1's cost column can be populated with a number comparable
//! to the specification counts of the other approaches.

use crate::cost::HumanEffort;

/// Parameters of the curation cost model.
#[derive(Debug, Clone, Copy)]
pub struct CurationModel {
    /// Actions needed to read, verify and annotate one newly seen object.
    pub actions_per_new_object: usize,
    /// Actions needed to recognize and reconcile one duplicate pair.
    pub actions_per_duplicate: usize,
    /// Actions needed to verify one cross-reference.
    pub actions_per_link: usize,
}

impl Default for CurationModel {
    fn default() -> Self {
        CurationModel {
            actions_per_new_object: 3,
            actions_per_duplicate: 2,
            actions_per_link: 1,
        }
    }
}

impl CurationModel {
    /// Human effort to manually curate a corpus with the given counts of
    /// primary objects, true duplicate pairs and true cross-source links.
    pub fn effort(&self, objects: usize, duplicate_pairs: usize, links: usize) -> HumanEffort {
        HumanEffort {
            parsers_written: 0,
            schema_elements_declared: 0,
            mappings_written: 0,
            curation_actions: objects * self.actions_per_new_object
                + duplicate_pairs * self.actions_per_duplicate
                + links * self.actions_per_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scales_with_corpus_size() {
        let model = CurationModel::default();
        let small = model.effort(100, 20, 200);
        let large = model.effort(1000, 200, 2000);
        assert_eq!(small.curation_actions, 100 * 3 + 20 * 2 + 200);
        assert!(large.curation_actions > 9 * small.curation_actions);
        assert_eq!(small.parsers_written, 0);
    }

    #[test]
    fn custom_model_weights() {
        let model = CurationModel {
            actions_per_new_object: 1,
            actions_per_duplicate: 0,
            actions_per_link: 0,
        };
        assert_eq!(model.effort(42, 10, 10).curation_actions, 42);
    }
}
