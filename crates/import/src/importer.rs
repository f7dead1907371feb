//! Import dispatch: turn a set of source files into a relational database.

use crate::quarantine::Quarantine;
use crate::reader::{decode_text, fetch_with_retry, RetryPolicy, SourceFetcher};
use aladin_relstore::{Database, RelError};
use std::fmt;

/// The source formats the import component understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceFormat {
    /// Line-typed flat file (Swiss-Prot/EMBL style).
    FlatFile,
    /// XML, shredded generically into one table per element name.
    Xml,
    /// Delimited text with a header row (comma or tab separated, detected
    /// per file).
    Tabular,
    /// FASTA sequence files.
    Fasta,
}

impl fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceFormat::FlatFile => "flatfile",
            SourceFormat::Xml => "xml",
            SourceFormat::Tabular => "tabular",
            SourceFormat::Fasta => "fasta",
        };
        f.write_str(s)
    }
}

/// Errors produced during import.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImportError {
    /// The file content did not conform to the expected format.
    Malformed(String),
    /// The underlying relational substrate rejected the data.
    Storage(RelError),
    /// More records were malformed than the configured error budget allows.
    BudgetExceeded {
        /// Number of records quarantined when the import gave up.
        quarantined: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A file could not be fetched from the source-reading layer, even after
    /// the configured retries.
    Io {
        /// The file that failed.
        file: String,
        /// Fetch attempts made.
        attempts: usize,
        /// The last underlying failure.
        reason: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Malformed(m) => write!(f, "malformed input: {m}"),
            ImportError::Storage(e) => write!(f, "storage error: {e}"),
            ImportError::BudgetExceeded {
                quarantined,
                budget,
            } => write!(
                f,
                "error budget exceeded: {quarantined} records quarantined (budget {budget})"
            ),
            ImportError::Io {
                file,
                attempts,
                reason,
            } => write!(
                f,
                "I/O error reading '{file}' after {attempts} attempt(s): {reason}"
            ),
        }
    }
}

impl std::error::Error for ImportError {}

impl From<RelError> for ImportError {
    fn from(e: RelError) -> Self {
        ImportError::Storage(e)
    }
}

/// Convenience result alias.
pub type ImportResult<T> = Result<T, ImportError>;

/// Options of one import run: how many malformed records to tolerate and how
/// hard to retry transient fetch failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportOptions {
    /// Maximum number of malformed records quarantined (across all files of
    /// the source) before the import fails. `0` reproduces the historical
    /// strict behaviour: the first malformed record aborts the file.
    pub error_budget: usize,
    /// Retry policy of the source-reading layer (only used by
    /// [`import_fetched`]; pre-fetched text never retries).
    pub retry: RetryPolicy,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions::strict()
    }
}

impl ImportOptions {
    /// Strict options: no error budget, no retries — any malformed record or
    /// fetch failure fails the import.
    pub fn strict() -> ImportOptions {
        ImportOptions {
            error_budget: 0,
            retry: RetryPolicy::none(),
        }
    }

    /// Tolerant options: quarantine up to `error_budget` malformed records
    /// and retry transient fetch failures with the default policy.
    pub fn tolerant(error_budget: usize) -> ImportOptions {
        ImportOptions {
            error_budget,
            retry: RetryPolicy::default(),
        }
    }

    /// This set of options with the given retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ImportOptions {
        self.retry = retry;
        self
    }
}

/// Import a data source given as a list of `(file name, file content)` pairs
/// in a single format, producing one relational database named after the
/// source. Strict: the first malformed record fails the import (see
/// [`import_files_with`] for the quarantining variant).
///
/// Table names are derived from the file names (without extension) by the
/// individual parsers; when a parser produces several tables per file (flat
/// files, XML) the parser's own naming applies.
pub fn import_files(
    source_name: &str,
    format: SourceFormat,
    files: &[(String, String)],
) -> ImportResult<Database> {
    import_files_with(source_name, format, files, &ImportOptions::strict()).map(|(db, _)| db)
}

/// Import a data source with an explicit error budget: malformed records are
/// collected into the returned [`Quarantine`] report instead of failing the
/// file, as long as their number stays within `options.error_budget`.
pub fn import_files_with(
    source_name: &str,
    format: SourceFormat,
    files: &[(String, String)],
    options: &ImportOptions,
) -> ImportResult<(Database, Quarantine)> {
    let mut db = Database::new(source_name);
    let mut quarantine = Quarantine::with_budget(options.error_budget);
    for (file_name, content) in files {
        parse_file(&mut db, format, file_name, content, &mut quarantine)?;
    }
    Ok((db, quarantine))
}

/// Import a data source through the source-reading layer: file bytes come
/// from a [`SourceFetcher`], transient fetch failures are retried per
/// `options.retry`, invalid UTF-8 is quarantined (or fails, in strict mode),
/// and malformed records are quarantined against the error budget.
pub fn import_fetched(
    source_name: &str,
    format: SourceFormat,
    fetcher: &mut dyn SourceFetcher,
    options: &ImportOptions,
) -> ImportResult<(Database, Quarantine)> {
    let mut db = Database::new(source_name);
    let mut quarantine = Quarantine::with_budget(options.error_budget);
    for file_name in fetcher.file_names() {
        let bytes = fetch_with_retry(fetcher, &file_name, &options.retry)?;
        let content = decode_text(&file_name, bytes, &mut quarantine)?;
        parse_file(&mut db, format, &file_name, &content, &mut quarantine)?;
    }
    Ok((db, quarantine))
}

/// Dispatch one file to the parser of its format.
fn parse_file(
    db: &mut Database,
    format: SourceFormat,
    file_name: &str,
    content: &str,
    quarantine: &mut Quarantine,
) -> ImportResult<()> {
    match format {
        SourceFormat::FlatFile => {
            crate::flatfile::parse_into_with(db, file_name, content, quarantine)
        }
        SourceFormat::Xml => crate::xml::shred_into_with(db, file_name, content, quarantine),
        SourceFormat::Tabular => {
            crate::tabular::parse_into_with(db, file_name, content, quarantine)
        }
        SourceFormat::Fasta => crate::fasta::parse_into_with(db, file_name, content, quarantine),
    }
}

/// Derive a table name from a file name: strip directories and the extension,
/// lowercase, and replace non-alphanumeric characters with `_`.
pub fn table_name_from_file(file_name: &str) -> String {
    let base = file_name.rsplit(['/', '\\']).next().unwrap_or(file_name);
    let stem = base.split('.').next().unwrap_or(base);
    let mut out: String = stem
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("table");
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, 't');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_name_derivation() {
        assert_eq!(table_name_from_file("structures.csv"), "structures");
        assert_eq!(
            table_name_from_file("data/Protein-Entries.txt"),
            "protein_entries"
        );
        assert_eq!(table_name_from_file("3d.tsv"), "t3d");
        assert_eq!(table_name_from_file(""), "table");
    }

    #[test]
    fn import_dispatches_to_tabular() {
        let files = vec![(
            "genes.csv".to_string(),
            "gene_id,symbol\n1,BRCA1\n2,TP53\n".to_string(),
        )];
        let db = import_files("genedb", SourceFormat::Tabular, &files).unwrap();
        assert_eq!(db.name(), "genedb");
        assert_eq!(db.table("genes").unwrap().row_count(), 2);
    }

    #[test]
    fn import_error_display() {
        let e = ImportError::Malformed("bad".into());
        assert!(e.to_string().contains("bad"));
        let e: ImportError = RelError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
    }

    #[test]
    fn format_display() {
        assert_eq!(SourceFormat::FlatFile.to_string(), "flatfile");
        assert_eq!(SourceFormat::Xml.to_string(), "xml");
        assert_eq!(SourceFormat::Tabular.to_string(), "tabular");
        assert_eq!(SourceFormat::Fasta.to_string(), "fasta");
    }
}
