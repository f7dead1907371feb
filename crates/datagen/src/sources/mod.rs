//! Renderers turning the synthetic [`crate::world::World`] into concrete data
//! sources (files in a specific serialization format).
//!
//! Each renderer returns the [`crate::corpus::SourceDump`] (the files a real
//! project would download from the provider) plus the list of explicit
//! cross-references it actually emitted, which the corpus assembler uses to
//! set the `explicit` flag of the ground-truth links.

pub mod archive;
pub mod gene_db;
pub mod interaction_db;
pub mod ontology_src;
pub mod protein_kb;
pub mod structure_db;
pub mod taxonomy;

/// An explicit cross-reference emitted into the data of a source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmittedXref {
    /// Source containing the reference.
    pub from_source: String,
    /// Accession of the referencing primary object.
    pub from_accession: String,
    /// Source the reference points into.
    pub to_source: String,
    /// Accession of the referenced primary object.
    pub to_accession: String,
}

impl EmittedXref {
    /// Convenience constructor.
    pub fn new(
        from_source: &str,
        from_accession: &str,
        to_source: &str,
        to_accession: &str,
    ) -> EmittedXref {
        EmittedXref {
            from_source: from_source.to_string(),
            from_accession: from_accession.to_string(),
            to_source: to_source.to_string(),
            to_accession: to_accession.to_string(),
        }
    }
}

/// Escape a value for inclusion in a CSV file rendered by the tabular sources.
pub(crate) fn csv_escape(value: &str) -> String {
    if value.contains(',') || value.contains('"') || value.contains('\n') {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Escape a value for inclusion in XML attribute or text content.
pub(crate) fn xml_escape(value: &str) -> String {
    value
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(xml_escape("a & b < c"), "a &amp; b &lt; c");
        assert_eq!(xml_escape("\"q\""), "&quot;q&quot;");
    }

    #[test]
    fn emitted_xref_constructor() {
        let x = EmittedXref::new("protkb", "P1", "structdb", "1ABC");
        assert_eq!(x.from_source, "protkb");
        assert_eq!(x.to_accession, "1ABC");
    }
}
