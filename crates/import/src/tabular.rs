//! Delimited-text (CSV/TSV) import with a header row and type inference.

use crate::importer::{table_name_from_file, ImportError, ImportResult};
use crate::quarantine::Quarantine;
use aladin_relstore::{ColumnDef, DataType, Database, TableSchema, Value};

/// Detect the delimiter of a header line: tab wins if present, otherwise
/// comma.
fn detect_delimiter(header: &str) -> char {
    if header.contains('\t') {
        '\t'
    } else {
        ','
    }
}

/// Split one delimited line, honouring double quotes around fields and `""`
/// escapes inside quoted fields.
fn split_line(line: &str, delimiter: char) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                current.push(c);
            }
        } else if c == '"' && current.is_empty() {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut current));
        } else {
            current.push(c);
        }
    }
    fields.push(current);
    fields
}

/// Parse a delimited file into a new table of `db` named after the file,
/// failing on the first malformed row (see [`parse_into_with`] for the
/// quarantining variant).
///
/// The first non-empty line is the header. Column types are inferred from the
/// data: a column whose non-empty values all parse as integers becomes
/// INTEGER, all-float becomes FLOAT, otherwise TEXT. Rows with a different
/// number of fields than the header are rejected.
pub fn parse_into(db: &mut Database, file_name: &str, content: &str) -> ImportResult<()> {
    parse_into_with(db, file_name, content, &mut Quarantine::strict())
}

/// Parse a delimited file, quarantining ragged rows (wrong field count,
/// including rows cut short by truncation) against the quarantine's error
/// budget instead of failing the file. A header with empty column names is
/// still a hard error — without a usable header no row can be interpreted.
pub fn parse_into_with(
    db: &mut Database,
    file_name: &str,
    content: &str,
    quarantine: &mut Quarantine,
) -> ImportResult<()> {
    let mut lines = content.lines().filter(|l| !l.trim().is_empty());
    let header = match lines.next() {
        Some(h) => h,
        None => return Ok(()), // empty file: nothing to import
    };
    let delimiter = detect_delimiter(header);
    let columns: Vec<String> = split_line(header, delimiter)
        .into_iter()
        .map(|c| sanitize_column(&c))
        .collect();
    if columns.iter().any(String::is_empty) {
        return Err(ImportError::Malformed(format!(
            "file '{file_name}': empty column name in header"
        )));
    }

    // First pass: collect raw rows and infer types.
    let mut raw_rows: Vec<Vec<String>> = Vec::new();
    for (line_no, line) in lines.enumerate() {
        let fields = split_line(line, delimiter);
        if fields.len() != columns.len() {
            quarantine.record(
                file_name,
                line_no + 2,
                format!(
                    "ragged row: expected {} fields, found {}",
                    columns.len(),
                    fields.len()
                ),
                line,
            )?;
            continue;
        }
        raw_rows.push(fields);
    }

    let mut types = vec![None::<DataType>; columns.len()];
    for row in &raw_rows {
        for (i, field) in row.iter().enumerate() {
            let v = Value::infer(field);
            if let Some(dt) = v.data_type() {
                types[i] = Some(match types[i] {
                    None => dt,
                    Some(prev) => prev.unify(dt),
                });
            }
        }
    }

    let schema = TableSchema::new(
        columns
            .iter()
            .zip(&types)
            .map(|(name, dt)| ColumnDef::new(name.clone(), dt.unwrap_or(DataType::Text)))
            .collect(),
    )
    .map_err(ImportError::Storage)?;

    let table_name = table_name_from_file(file_name);
    db.create_table(&table_name, schema)?;
    for row in raw_rows {
        let values: Vec<Value> = row
            .iter()
            .zip(&types)
            .map(|(field, dt)| coerce(field, *dt))
            .collect();
        db.insert(&table_name, values)?;
    }
    Ok(())
}

fn coerce(field: &str, dt: Option<DataType>) -> Value {
    let inferred = Value::infer(field);
    match (inferred, dt) {
        (Value::Null, _) => Value::Null,
        (v, Some(DataType::Text)) => Value::Text(v.render()),
        (Value::Int(i), Some(DataType::Float)) => Value::Float(i as f64),
        (v, _) => v,
    }
}

fn sanitize_column(raw: &str) -> String {
    raw.trim()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_csv_with_type_inference() {
        let mut db = Database::new("test");
        let csv = "structure_id,resolution,title\n1ABC,1.8,Crystal structure of kinase\n2DEF,2.4,\"Transporter, membrane\"\n";
        parse_into(&mut db, "structures.csv", csv).unwrap();
        let t = db.table("structures").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(
            t.schema().column("resolution").unwrap().data_type,
            DataType::Float
        );
        assert_eq!(
            t.schema().column("structure_id").unwrap().data_type,
            DataType::Text
        );
        assert_eq!(
            t.cell(1, "title").unwrap(),
            &Value::text("Transporter, membrane")
        );
    }

    #[test]
    fn parses_tsv() {
        let mut db = Database::new("test");
        let tsv = "term_id\tname\nGO:0001\tkinase activity\nGO:0002\ttransport\n";
        parse_into(&mut db, "terms.tsv", tsv).unwrap();
        let t = db.table("terms").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, "term_id").unwrap(), &Value::text("GO:0001"));
    }

    #[test]
    fn mixed_int_and_float_becomes_float() {
        let mut db = Database::new("test");
        let csv = "id,score\n1,5\n2,2.5\n";
        parse_into(&mut db, "scores.csv", csv).unwrap();
        let t = db.table("scores").unwrap();
        assert_eq!(
            t.schema().column("score").unwrap().data_type,
            DataType::Float
        );
        assert_eq!(t.cell(0, "score").unwrap(), &Value::Float(5.0));
    }

    #[test]
    fn empty_values_become_null_and_column_stays_typed() {
        let mut db = Database::new("test");
        let csv = "id,taxon\n1,9606\n2,\n";
        parse_into(&mut db, "x.csv", csv).unwrap();
        let t = db.table("x").unwrap();
        assert_eq!(t.cell(1, "taxon").unwrap(), &Value::Null);
        assert_eq!(
            t.schema().column("taxon").unwrap().data_type,
            DataType::Integer
        );
    }

    #[test]
    fn leading_zero_identifiers_keep_text_type() {
        let mut db = Database::new("test");
        let csv = "id,code\n1,007\n2,12\n";
        parse_into(&mut db, "codes.csv", csv).unwrap();
        let t = db.table("codes").unwrap();
        assert_eq!(t.schema().column("code").unwrap().data_type, DataType::Text);
        assert_eq!(t.cell(1, "code").unwrap(), &Value::text("12"));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut db = Database::new("test");
        let csv = "a,b\n1,2\n3\n";
        let err = parse_into(&mut db, "bad.csv", csv).unwrap_err();
        assert!(matches!(err, ImportError::Malformed(_)));
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn empty_file_is_a_noop() {
        let mut db = Database::new("test");
        parse_into(&mut db, "empty.csv", "").unwrap();
        assert_eq!(db.table_count(), 0);
    }

    #[test]
    fn quoted_fields_with_escapes() {
        let fields = split_line(r#"a,"b,c","say ""hi""",d"#, ',');
        assert_eq!(fields, vec!["a", "b,c", "say \"hi\"", "d"]);
    }

    #[test]
    fn header_names_are_sanitized() {
        let mut db = Database::new("test");
        let csv = "Gene ID,Chromosome-Name\n1,X\n";
        parse_into(&mut db, "genes.csv", csv).unwrap();
        let t = db.table("genes").unwrap();
        assert!(t.schema().index_of("gene_id").is_some());
        assert!(t.schema().index_of("chromosome_name").is_some());
    }
}
