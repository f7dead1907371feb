//! Error type of the ALADIN system.

use aladin_import::ImportError;
use aladin_relstore::RelError;
use std::fmt;

/// One source that failed during a batch integration, with the error that
/// took it down.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFailure {
    /// Name of the failed source.
    pub source: String,
    /// The error that caused the failure.
    pub error: Box<AladinError>,
}

impl fmt::Display for SourceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.source, self.error)
    }
}

/// Errors produced by the ALADIN pipeline and access engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AladinError {
    /// Error from the relational substrate.
    Storage(RelError),
    /// Error from the import component.
    Import(ImportError),
    /// A source name was not found in the warehouse.
    UnknownSource(String),
    /// A requested object (source + accession) does not exist.
    UnknownObject(String),
    /// The discovery steps could not produce a usable result.
    Discovery(String),
    /// A source with the same name is already integrated.
    DuplicateSource(String),
    /// A batch integration completed for some sources but not all of them.
    PartialIntegration {
        /// The sources that failed, in batch order, each with its error.
        failures: Vec<SourceFailure>,
    },
    /// A durability operation (WAL append, snapshot write, marker publish,
    /// cold-start recovery) failed.
    Durability {
        /// What was being persisted or recovered when the failure happened.
        context: String,
        /// The underlying storage-layer error.
        cause: RelError,
    },
}

impl fmt::Display for AladinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AladinError::Storage(e) => write!(f, "storage error: {e}"),
            AladinError::Import(e) => write!(f, "import error: {e}"),
            AladinError::UnknownSource(s) => write!(f, "unknown source: {s}"),
            AladinError::UnknownObject(s) => write!(f, "unknown object: {s}"),
            AladinError::Discovery(m) => write!(f, "discovery failed: {m}"),
            AladinError::DuplicateSource(s) => write!(f, "source already integrated: {s}"),
            AladinError::PartialIntegration { failures } => {
                write!(
                    f,
                    "partial integration: {} source(s) failed",
                    failures.len()
                )?;
                for failure in failures {
                    write!(f, "; {failure}")?;
                }
                Ok(())
            }
            AladinError::Durability { context, cause } => {
                write!(f, "durability error ({context}): {cause}")
            }
        }
    }
}

impl std::error::Error for AladinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AladinError::Storage(e) => Some(e),
            AladinError::Import(e) => Some(e),
            AladinError::PartialIntegration { failures } => failures
                .first()
                .map(|f| f.error.as_ref() as &(dyn std::error::Error + 'static)),
            AladinError::Durability { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<RelError> for AladinError {
    fn from(e: RelError) -> Self {
        AladinError::Storage(e)
    }
}

impl From<ImportError> for AladinError {
    fn from(e: ImportError) -> Self {
        AladinError::Import(e)
    }
}

/// Convenience result alias.
pub type AladinResult<T> = Result<T, AladinError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_display() {
        let e: AladinError = RelError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
        let e: AladinError = ImportError::Malformed("x".into()).into();
        assert!(e.to_string().contains("malformed"));
        assert_eq!(
            AladinError::UnknownSource("s".into()).to_string(),
            "unknown source: s"
        );
        assert_eq!(
            AladinError::DuplicateSource("s".into()).to_string(),
            "source already integrated: s"
        );
    }

    #[test]
    fn source_chains_to_the_underlying_error() {
        let e: AladinError = RelError::UnknownTable("t".into()).into();
        assert!(e.source().is_some());
        let e: AladinError = ImportError::Malformed("x".into()).into();
        assert!(e.source().unwrap().to_string().contains("malformed"));
        assert!(AladinError::UnknownSource("s".into()).source().is_none());
    }

    #[test]
    fn durability_errors_chain_to_the_storage_cause() {
        let e = AladinError::Durability {
            context: "writing snapshot for source 'pdb'".into(),
            cause: RelError::Durability("snapshot checksum mismatch".into()),
        };
        assert_eq!(
            e.to_string(),
            "durability error (writing snapshot for source 'pdb'): \
             durability error: snapshot checksum mismatch"
        );
        assert!(e.source().unwrap().to_string().contains("checksum"));
    }

    #[test]
    fn quarantined_and_partial_integration_carry_per_source_detail() {
        let failure = SourceFailure {
            source: "genedb".into(),
            error: Box::new(AladinError::Import(ImportError::BudgetExceeded {
                quarantined: 7,
                budget: 3,
            })),
        };
        let p = AladinError::PartialIntegration {
            failures: vec![failure],
        };
        assert!(p.to_string().contains("1 source(s) failed"));
        assert!(p.to_string().contains("genedb"));
        assert!(p.source().is_some());
        assert!(p.to_string().contains("budget 3"));
        assert!(p.source().unwrap().to_string().contains("error budget"));
    }
}
