//! Minimal XML parsing and generic relational shredding.
//!
//! The shredder implements the "generic XML-to-relational mapping tool" the
//! paper assumes: every element name becomes a table, every element instance a
//! row with a surrogate id, a `parent_id` column records the enclosing element
//! and attributes / text content become columns. No schema or DTD knowledge is
//! used.

use crate::importer::{table_name_from_file, ImportError, ImportResult};
use crate::quarantine::Quarantine;
use aladin_relstore::{ColumnDef, DataType, Database, TableSchema, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A parsed XML element.
#[derive(Debug, Clone, Default)]
struct XmlElement {
    /// Element name.
    pub name: String,
    /// Attribute name/value pairs in document order.
    pub attributes: Vec<(String, String)>,
    /// Concatenated direct text content (trimmed).
    pub text: String,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
}

/// Parse a (well-formed, entity-light) XML document into its root element.
///
/// Supports start/end/empty tags, attributes with single or double quotes,
/// character data, comments, processing instructions and the five predefined
/// entities. It does not support CDATA sections, namespaces beyond treating
/// `ns:name` as a plain name, or DTDs — none of which the synthetic corpus
/// uses.
fn parse_document(content: &str) -> ImportResult<XmlElement> {
    let mut parser = XmlParser {
        chars: content.chars().collect(),
        pos: 0,
    };
    parser.skip_prolog();
    let root = parser.parse_element()?;
    parser.skip_whitespace_and_misc();
    if parser.pos < parser.chars.len() {
        return Err(ImportError::Malformed(
            "trailing content after XML root element".into(),
        ));
    }
    Ok(root)
}

struct XmlParser {
    chars: Vec<char>,
    pos: usize,
}

impl XmlParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.chars[self.pos..]
            .iter()
            .take(s.len())
            .collect::<String>()
            == s
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) -> ImportResult<()> {
        while self.pos < self.chars.len() {
            if self.starts_with(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(ImportError::Malformed(format!("unterminated '{end}'")))
    }

    fn skip_prolog(&mut self) {
        self.skip_whitespace_and_misc();
    }

    fn skip_whitespace_and_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                let _ = self.skip_until("?>");
            } else if self.starts_with("<!--") {
                let _ = self.skip_until("-->");
            } else if self.starts_with("<!") {
                let _ = self.skip_until(">");
            } else {
                break;
            }
        }
    }

    fn parse_name(&mut self) -> ImportResult<String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == ':' || c == '.')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ImportError::Malformed(format!(
                "expected a name at offset {}",
                self.pos
            )));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn parse_element(&mut self) -> ImportResult<XmlElement> {
        if self.peek() != Some('<') {
            return Err(ImportError::Malformed(format!(
                "expected '<' at offset {}",
                self.pos
            )));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut element = XmlElement {
            name,
            ..Default::default()
        };

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('/') => {
                    self.pos += 1;
                    if self.peek() != Some('>') {
                        return Err(ImportError::Malformed("expected '>' after '/'".into()));
                    }
                    self.pos += 1;
                    return Ok(element);
                }
                Some('>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some('=') {
                        return Err(ImportError::Malformed(format!(
                            "expected '=' after attribute '{attr}'"
                        )));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = self.peek().ok_or_else(|| {
                        ImportError::Malformed("unexpected end of input in attribute".into())
                    })?;
                    if quote != '"' && quote != '\'' {
                        return Err(ImportError::Malformed(
                            "attribute value must be quoted".into(),
                        ));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(ImportError::Malformed(
                            "unterminated attribute value".into(),
                        ));
                    }
                    let value: String = self.chars[start..self.pos].iter().collect();
                    self.pos += 1;
                    element.attributes.push((attr, decode_entities(&value)));
                }
                None => {
                    return Err(ImportError::Malformed(
                        "unexpected end of input inside tag".into(),
                    ))
                }
            }
        }

        // Content.
        let mut text = String::new();
        loop {
            if self.pos >= self.chars.len() {
                return Err(ImportError::Malformed(format!(
                    "unterminated element '{}'",
                    element.name
                )));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(ImportError::Malformed(format!(
                        "mismatched closing tag: expected '</{}>', found '</{close}>'",
                        element.name
                    )));
                }
                self.skip_whitespace();
                if self.peek() != Some('>') {
                    return Err(ImportError::Malformed("expected '>' in closing tag".into()));
                }
                self.pos += 1;
                break;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.peek() == Some('<') {
                element.children.push(self.parse_element()?);
            } else {
                text.push(self.chars[self.pos]);
                self.pos += 1;
            }
        }
        element.text = decode_entities(text.trim());
        Ok(element)
    }
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Shred an XML document into relational tables added to `db`.
///
/// Tables are named `<file>_<element>`. Every row gets a surrogate
/// `<element>_id`; non-root elements also get a `parent_id` holding the
/// surrogate id of their parent element (regardless of the parent's type) and
/// a `parent_type` column naming the parent element. Attributes become
/// columns; the trimmed text content (if any element of that name has some)
/// becomes a `content` column.
///
/// An unparseable document is quarantined at file level against the
/// quarantine's error budget: unlike the line-oriented formats, a truncated
/// or malformed XML file cannot be partially recovered, so the whole file is
/// recorded as one quarantined entry (line 0) and contributes no tables;
/// other files of the source still import normally.
pub fn shred_into_with(
    db: &mut Database,
    file_name: &str,
    content: &str,
    quarantine: &mut Quarantine,
) -> ImportResult<()> {
    let root = match parse_document(content) {
        Ok(root) => root,
        Err(ImportError::Malformed(reason)) => {
            quarantine.record(
                file_name,
                0,
                format!("unparseable XML document: {reason}"),
                content,
            )?;
            return Ok(());
        }
        Err(other) => return Err(other),
    };
    let prefix = table_name_from_file(file_name);

    // Pass 1: collect per-element-name column sets.
    #[derive(Default)]
    struct ElementShape {
        attributes: BTreeSet<String>,
        has_text: bool,
        is_root_only: bool,
    }
    let mut shapes: BTreeMap<String, ElementShape> = BTreeMap::new();
    fn collect(el: &XmlElement, is_root: bool, shapes: &mut BTreeMap<String, ElementShape>) {
        let entry = shapes.entry(el.name.to_ascii_lowercase()).or_default();
        for (a, _) in &el.attributes {
            entry.attributes.insert(a.to_ascii_lowercase());
        }
        if !el.text.is_empty() {
            entry.has_text = true;
        }
        if is_root {
            entry.is_root_only = true;
        }
        for c in &el.children {
            collect(c, false, shapes);
        }
    }
    collect(&root, true, &mut shapes);

    // Create tables.
    for (name, shape) in &shapes {
        let table = format!("{prefix}_{name}");
        let mut cols = vec![ColumnDef::not_null(format!("{name}_id"), DataType::Integer)];
        cols.push(ColumnDef::int("parent_id"));
        cols.push(ColumnDef::text("parent_type"));
        for a in &shape.attributes {
            cols.push(ColumnDef::text(a.clone()));
        }
        if shape.has_text {
            cols.push(ColumnDef::text("content"));
        }
        db.create_table(
            &table,
            TableSchema::new(cols).map_err(ImportError::Storage)?,
        )?;
    }

    // Pass 2: insert rows depth-first.
    let mut counters: BTreeMap<String, i64> = BTreeMap::new();
    fn insert(
        el: &XmlElement,
        parent: Option<(i64, &str)>,
        prefix: &str,
        counters: &mut BTreeMap<String, i64>,
        db: &mut Database,
    ) -> ImportResult<()> {
        let name = el.name.to_ascii_lowercase();
        let table = format!("{prefix}_{name}");
        let counter = counters.entry(name.clone()).or_insert(0);
        *counter += 1;
        let my_id = *counter;

        let schema = db.table(&table)?.schema().clone();
        let mut row = Vec::with_capacity(schema.arity());
        for col in schema.columns() {
            let v = if col.name == format!("{name}_id") {
                Value::Int(my_id)
            } else if col.name == "parent_id" {
                parent.map(|(id, _)| Value::Int(id)).unwrap_or(Value::Null)
            } else if col.name == "parent_type" {
                parent
                    .map(|(_, t)| Value::text(t.to_string()))
                    .unwrap_or(Value::Null)
            } else if col.name == "content" {
                if el.text.is_empty() {
                    Value::Null
                } else {
                    Value::text(el.text.clone())
                }
            } else {
                el.attributes
                    .iter()
                    .find(|(a, _)| a.eq_ignore_ascii_case(&col.name))
                    .map(|(_, v)| {
                        if v.is_empty() {
                            Value::Null
                        } else {
                            Value::text(v.clone())
                        }
                    })
                    .unwrap_or(Value::Null)
            };
            row.push(v);
        }
        db.insert(&table, row)?;
        for child in &el.children {
            insert(child, Some((my_id, &name)), prefix, counters, db)?;
        }
        Ok(())
    }
    insert(&root, None, &prefix, &mut counters, db)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<!-- synthetic gene database -->
<genedb release="42">
  <gene id="ENSG00000042753" symbol="AP3S1" chromosome="5">
    <description>adaptor related protein complex 3 subunit sigma 1</description>
    <xref db="protkb" accession="P12345"/>
    <xref db="ontodb" accession="GO:0001"/>
    <sequence>ACGTACGTACGT</sequence>
  </gene>
  <gene id="ENSG00000141510" symbol="TP53" chromosome="17">
    <description>tumor protein p53 &amp; regulator</description>
    <xref db="protkb" accession="P67890"/>
  </gene>
</genedb>
"#;

    #[test]
    fn parse_document_builds_tree() {
        let root = parse_document(SAMPLE).unwrap();
        assert_eq!(root.name, "genedb");
        assert_eq!(root.attributes, vec![("release".into(), "42".into())]);
        assert_eq!(root.children.len(), 2);
        let gene = &root.children[0];
        assert_eq!(gene.name, "gene");
        assert_eq!(gene.children.len(), 4);
        assert_eq!(
            gene.children[0].text,
            "adaptor related protein complex 3 subunit sigma 1"
        );
        // entity decoding
        assert!(root.children[1].children[0].text.contains('&'));
    }

    #[test]
    fn shred_creates_one_table_per_element() {
        let mut db = Database::new("genedb");
        shred_into_with(&mut db, "genes.xml", SAMPLE, &mut Quarantine::strict()).unwrap();
        let names = db.table_names();
        assert!(names.contains(&"genes_genedb"));
        assert!(names.contains(&"genes_gene"));
        assert!(names.contains(&"genes_xref"));
        assert!(names.contains(&"genes_description"));
        assert!(names.contains(&"genes_sequence"));

        let gene = db.table("genes_gene").unwrap();
        assert_eq!(gene.row_count(), 2);
        assert_eq!(gene.cell(0, "id").unwrap(), &Value::text("ENSG00000042753"));
        assert_eq!(gene.cell(0, "parent_type").unwrap(), &Value::text("genedb"));

        let xref = db.table("genes_xref").unwrap();
        assert_eq!(xref.row_count(), 3);
        // xrefs of the first gene reference parent_id 1, of the second gene parent_id 2
        assert_eq!(xref.cell(0, "parent_id").unwrap(), &Value::Int(1));
        assert_eq!(xref.cell(2, "parent_id").unwrap(), &Value::Int(2));
        assert_eq!(xref.cell(0, "accession").unwrap(), &Value::text("P12345"));

        let desc = db.table("genes_description").unwrap();
        assert_eq!(
            desc.cell(1, "content").unwrap(),
            &Value::text("tumor protein p53 & regulator")
        );
    }

    #[test]
    fn empty_elements_and_quotes() {
        let xml = r#"<root><item key='single'/><item key="double">text</item></root>"#;
        let root = parse_document(xml).unwrap();
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].attributes[0].1, "single");
        assert_eq!(root.children[1].text, "text");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_document("<a><b></a></b>").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></a><b></b>").is_err());
        assert!(parse_document("plain text").is_err());
        assert!(parse_document("<a attr=oops></a>").is_err());
        assert!(parse_document("<a attr='unterminated></a>").is_err());
    }

    #[test]
    fn comments_and_prolog_are_skipped() {
        let xml = "<?xml version='1.0'?><!-- c --><!DOCTYPE x><root><!-- inner --><leaf/></root>";
        let root = parse_document(xml).unwrap();
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn shredding_missing_attributes_yields_null() {
        let xml = r#"<root><item a="1" b="2"/><item a="3"/></root>"#;
        let mut db = Database::new("x");
        shred_into_with(&mut db, "f.xml", xml, &mut Quarantine::strict()).unwrap();
        let t = db.table("f_item").unwrap();
        assert_eq!(t.cell(1, "b").unwrap(), &Value::Null);
        assert_eq!(t.cell(1, "a").unwrap(), &Value::text("3"));
    }
}
