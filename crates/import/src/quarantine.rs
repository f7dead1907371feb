//! Malformed-record quarantine with a configurable error budget.
//!
//! Real source dumps arrive truncated, mid-schema-drift or with stray bytes;
//! aborting a whole file on the first bad record turns one provider hiccup
//! into a failed integration run. Instead, every parser can *quarantine* a
//! malformed record — recording where it was, why it was rejected and a short
//! raw excerpt — and keep going, as long as the number of quarantined records
//! stays within the caller's error budget. A budget of zero reproduces the
//! historical strict behaviour: the first malformed record fails the import
//! with the same [`ImportError::Malformed`] message it always produced.

use crate::importer::{ImportError, ImportResult};
use std::fmt;

/// Maximum number of raw characters kept as the excerpt of a quarantined
/// record.
const EXCERPT_LEN: usize = 120;

/// One malformed record that was excluded from the import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// File the record came from.
    pub file: String,
    /// 1-based line number of the offending input (0 when the failure is not
    /// attributable to a single line, e.g. an XML document that fails to
    /// parse as a whole).
    pub line: usize,
    /// Why the record was rejected.
    pub reason: String,
    /// A short excerpt of the raw input, for debugging the provider's dump.
    pub excerpt: String,
}

impl fmt::Display for QuarantinedRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.file, self.reason)
        } else {
            write!(f, "{}, line {}: {}", self.file, self.line, self.reason)
        }
    }
}

/// The quarantine report of one import run: every malformed record that was
/// excluded, plus the error budget the run was configured with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    records: Vec<QuarantinedRecord>,
    budget: usize,
}

impl Default for Quarantine {
    fn default() -> Self {
        Quarantine::strict()
    }
}

impl Quarantine {
    /// A strict quarantine: budget zero, so the first malformed record fails
    /// the import (the historical behaviour).
    pub fn strict() -> Quarantine {
        Quarantine {
            records: Vec::new(),
            budget: 0,
        }
    }

    /// A quarantine that tolerates up to `budget` malformed records before
    /// the import fails with [`ImportError::BudgetExceeded`].
    pub fn with_budget(budget: usize) -> Quarantine {
        Quarantine {
            records: Vec::new(),
            budget,
        }
    }

    /// The configured error budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The quarantined records, in discovery order.
    pub fn records(&self) -> &[QuarantinedRecord] {
        &self.records
    }

    /// Number of quarantined records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Quarantined records of one file.
    pub fn for_file<'a>(&'a self, file: &'a str) -> impl Iterator<Item = &'a QuarantinedRecord> {
        self.records.iter().filter(move |r| r.file == file)
    }

    /// Quarantine one malformed record.
    ///
    /// With budget zero this returns the strict [`ImportError::Malformed`]
    /// error the parsers historically produced; once the budget is exhausted
    /// it returns [`ImportError::BudgetExceeded`]. In both error cases the
    /// record is still appended to the report, so the caller can surface what
    /// was seen before the import gave up.
    pub fn record(
        &mut self,
        file: &str,
        line: usize,
        reason: impl Into<String>,
        raw: &str,
    ) -> ImportResult<()> {
        let reason = reason.into();
        let entry = QuarantinedRecord {
            file: file.to_string(),
            line,
            reason: reason.clone(),
            excerpt: excerpt(raw),
        };
        self.records.push(entry);
        if self.budget == 0 {
            let at = if line == 0 {
                format!("file '{file}'")
            } else {
                format!("file '{file}', line {line}")
            };
            return Err(ImportError::Malformed(format!("{at}: {reason}")));
        }
        if self.records.len() > self.budget {
            return Err(ImportError::BudgetExceeded {
                quarantined: self.records.len(),
                budget: self.budget,
            });
        }
        Ok(())
    }
}

/// Clip a raw input snippet to a bounded, single-line excerpt.
fn excerpt(raw: &str) -> String {
    let flat: String = raw
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .take(EXCERPT_LEN)
        .collect();
    flat.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_budget_fails_on_first_record_with_legacy_message() {
        let mut q = Quarantine::strict();
        let err = q
            .record("bad.csv", 3, "ragged row", "a,b,c")
            .expect_err("strict mode must error");
        assert_eq!(
            err.to_string(),
            "malformed input: file 'bad.csv', line 3: ragged row"
        );
        // The record is still reported.
        assert_eq!(q.len(), 1);
        assert_eq!(q.records()[0].excerpt, "a,b,c");
    }

    #[test]
    fn budget_tolerates_up_to_n_then_overflows() {
        let mut q = Quarantine::with_budget(2);
        q.record("f", 1, "bad", "x").unwrap();
        q.record("f", 2, "bad", "y").unwrap();
        let err = q.record("f", 3, "bad", "z").unwrap_err();
        assert!(matches!(
            err,
            ImportError::BudgetExceeded {
                quarantined: 3,
                budget: 2
            }
        ));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn excerpts_are_clipped_and_flattened() {
        let mut q = Quarantine::with_budget(10);
        let long = "x".repeat(500);
        q.record("f", 1, "bad", &long).unwrap();
        assert_eq!(q.records()[0].excerpt.len(), 120);
        q.record("f", 2, "bad", "a\nb\r\nc").unwrap();
        assert_eq!(q.records()[1].excerpt, "a b  c");
    }

    #[test]
    fn file_level_records_display_without_line() {
        let mut q = Quarantine::with_budget(1);
        q.record("doc.xml", 0, "unterminated element", "<a>")
            .unwrap();
        assert_eq!(q.records()[0].to_string(), "doc.xml: unterminated element");
        let mut strict = Quarantine::strict();
        let err = strict.record("doc.xml", 0, "unterminated element", "<a>");
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("file 'doc.xml': unterminated element"));
    }
}
