//! Browsing: "simply displays objects and different kinds of links (to
//! secondary objects, to related objects, to duplicates) that users can
//! follow."
//!
//! An [`ObjectView`] holds the four relationship types of Section 4.6: same
//! relation, dependency (secondary annotation), duplicates, and links to other
//! sources. [`crate::access::Warehouse`] serves these views from its cached
//! link adjacency; this module holds the routines it runs.

use crate::error::{AladinError, AladinResult};
use crate::metadata::{LinkKind, Neighbour, ObjectRef};
use crate::pipeline::Aladin;
use crate::secondary::owner_accessions;

/// One row of secondary annotation displayed with an object.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationRow {
    /// The secondary table the row comes from.
    pub table: String,
    /// `(column, value)` pairs of the row (NULLs omitted).
    pub values: Vec<(String, String)>,
}

/// A browsable view of one primary object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectView {
    /// The object.
    pub object: ObjectRef,
    /// `(column, value)` pairs of the object's primary-relation row.
    pub attributes: Vec<(String, String)>,
    /// Secondary annotation rows (the "dependency" neighbours).
    pub annotation: Vec<AnnotationRow>,
    /// Other objects of the same relation (a small sample).
    pub same_relation: Vec<ObjectRef>,
    /// Flagged duplicates with their similarity scores.
    pub duplicates: Vec<(ObjectRef, f64)>,
    /// Links into other sources with their kinds and scores.
    pub linked: Vec<(ObjectRef, LinkKind, f64)>,
}

/// Resolve an accession within a source to an object reference by scanning
/// the source's primary relations.
pub(crate) fn resolve_object(
    aladin: &Aladin,
    source: &str,
    accession: &str,
) -> AladinResult<ObjectRef> {
    let structure = aladin
        .metadata()
        .structure(source)
        .ok_or_else(|| AladinError::UnknownSource(source.to_string()))?;
    let db = aladin.database(source)?;
    for primary in &structure.primary_relations {
        let table = db.table(&primary.table)?;
        let idx = table.column_index(&primary.accession_column)?;
        if table.rows().iter().any(|r| r[idx].renders_as(accession)) {
            return Ok(ObjectRef::new(source, primary.table.clone(), accession));
        }
    }
    Err(AladinError::UnknownObject(format!("{source}:{accession}")))
}

/// The `(column, value)` attribute pairs of an object's primary-relation row.
pub(crate) fn object_attributes(
    aladin: &Aladin,
    object: &ObjectRef,
) -> AladinResult<Vec<(String, String)>> {
    let db = aladin.database(&object.source)?;
    let structure = aladin
        .metadata()
        .structure(&object.source)
        .ok_or_else(|| AladinError::UnknownSource(object.source.clone()))?;
    let primary = structure
        .primary_relations
        .iter()
        .find(|p| p.table.eq_ignore_ascii_case(&object.table))
        .ok_or_else(|| AladinError::UnknownObject(object.to_string()))?;
    let table = db.table(&primary.table)?;
    let acc_idx = table.column_index(&primary.accession_column)?;
    let row = table
        .rows()
        .iter()
        .find(|r| r[acc_idx].renders_as(&object.accession))
        .ok_or_else(|| AladinError::UnknownObject(object.to_string()))?;
    Ok(table
        .schema()
        .columns()
        .iter()
        .zip(row)
        .filter(|(_, v)| !v.is_null())
        .map(|(c, v)| (c.name.clone(), v.render()))
        .collect())
}

/// The secondary-annotation rows owned by an object, optionally restricted to
/// one secondary table.
pub(crate) fn object_annotation(
    aladin: &Aladin,
    object: &ObjectRef,
    only_table: Option<&str>,
) -> AladinResult<Vec<AnnotationRow>> {
    let db = aladin.database(&object.source)?;
    let structure = aladin
        .metadata()
        .structure(&object.source)
        .ok_or_else(|| AladinError::UnknownSource(object.source.clone()))?;
    let mut annotation = Vec::new();
    for secondary in &structure.secondary_relations {
        if secondary.path.is_empty() {
            continue;
        }
        if let Some(t) = only_table {
            if !secondary.table.eq_ignore_ascii_case(t) {
                continue;
            }
        }
        let sec_table = match db.table(&secondary.table) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let owners = owner_accessions(
            db,
            &structure.primary_relations,
            &structure.secondary_relations,
            &structure.relationships,
            &secondary.table,
        )
        .unwrap_or_else(|_| vec![None; sec_table.row_count()]);
        for (i, row) in sec_table.rows().iter().enumerate() {
            if owners.get(i).cloned().flatten().as_deref() == Some(object.accession.as_str()) {
                annotation.push(AnnotationRow {
                    table: secondary.table.clone(),
                    values: sec_table
                        .schema()
                        .columns()
                        .iter()
                        .zip(row)
                        .filter(|(_, v)| !v.is_null())
                        .map(|(c, v)| (c.name.clone(), v.render()))
                        .collect(),
                });
            }
        }
    }
    Ok(annotation)
}

/// Annotation rows of one secondary table grouped by owning accession: one
/// owner derivation and one table scan for the whole batch, instead of one
/// per object.
pub(crate) fn annotation_by_owner(
    aladin: &Aladin,
    source: &str,
    table: &str,
) -> AladinResult<std::collections::HashMap<String, Vec<AnnotationRow>>> {
    let db = aladin.database(source)?;
    let structure = aladin
        .metadata()
        .structure(source)
        .ok_or_else(|| AladinError::UnknownSource(source.to_string()))?;
    let mut by_owner: std::collections::HashMap<String, Vec<AnnotationRow>> =
        std::collections::HashMap::new();
    for secondary in &structure.secondary_relations {
        if secondary.path.is_empty() || !secondary.table.eq_ignore_ascii_case(table) {
            continue;
        }
        let sec_table = match db.table(&secondary.table) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let owners = owner_accessions(
            db,
            &structure.primary_relations,
            &structure.secondary_relations,
            &structure.relationships,
            &secondary.table,
        )
        .unwrap_or_else(|_| vec![None; sec_table.row_count()]);
        for (i, row) in sec_table.rows().iter().enumerate() {
            if let Some(owner) = owners.get(i).cloned().flatten() {
                by_owner.entry(owner).or_default().push(AnnotationRow {
                    table: secondary.table.clone(),
                    values: sec_table
                        .schema()
                        .columns()
                        .iter()
                        .zip(row)
                        .filter(|(_, v)| !v.is_null())
                        .map(|(c, v)| (c.name.clone(), v.render()))
                        .collect(),
                });
            }
        }
    }
    Ok(by_owner)
}

/// How many same-relation neighbours a view shows.
const SAME_RELATION_LIMIT: usize = 5;

/// Build the full browsable view of one object given its link neighbourhood
/// from the cached adjacency.
pub(crate) fn object_view(
    aladin: &Aladin,
    neighbours: &[Neighbour],
    object: &ObjectRef,
) -> AladinResult<ObjectView> {
    let source = &object.source;
    let structure = aladin
        .metadata()
        .structure(source)
        .ok_or_else(|| AladinError::UnknownSource(source.clone()))?;
    let db = aladin.database(source)?;
    let primary = structure
        .primary_relations
        .iter()
        .find(|p| p.table.eq_ignore_ascii_case(&object.table))
        .ok_or_else(|| AladinError::UnknownObject(object.to_string()))?;

    let table = db.table(&primary.table)?;
    let acc_idx = table.column_index(&primary.accession_column)?;
    let row_idx = table
        .rows()
        .iter()
        .position(|r| r[acc_idx].renders_as(&object.accession))
        .ok_or_else(|| AladinError::UnknownObject(object.to_string()))?;

    // Attributes of the primary row.
    let attributes: Vec<(String, String)> = table
        .schema()
        .columns()
        .iter()
        .zip(&table.rows()[row_idx])
        .filter(|(_, v)| !v.is_null())
        .map(|(c, v)| (c.name.clone(), v.render()))
        .collect();

    // Same-relation neighbours.
    let same_relation: Vec<ObjectRef> = table
        .rows()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != row_idx)
        .take(SAME_RELATION_LIMIT)
        .map(|(_, r)| ObjectRef::new(source, primary.table.clone(), r[acc_idx].render()))
        .collect();

    // Dependency neighbours: rows of secondary tables owned by this object.
    let annotation = object_annotation(aladin, object, None)?;

    // Duplicates and cross-source links from the supplied neighbourhood.
    let mut duplicates = Vec::new();
    let mut linked = Vec::new();
    for n in neighbours {
        if n.kind == LinkKind::Duplicate {
            duplicates.push((n.object.clone(), n.score));
        } else {
            linked.push((n.object.clone(), n.kind, n.score));
        }
    }
    duplicates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    linked.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });

    Ok(ObjectView {
        object: object.clone(),
        attributes,
        annotation,
        same_relation,
        duplicates,
        linked,
    })
}

#[cfg(test)]
mod tests {
    use crate::access::warehouse::tests::warehouse;
    use crate::metadata::{LinkKind, ObjectRef};

    #[test]
    fn find_object_resolves_accessions() {
        let w = warehouse();
        let obj = w.find_object("protkb", "P10001").unwrap();
        assert_eq!(obj.table, "protkb_entry");
        assert!(w.find_object("protkb", "NOPE99").is_err());
        assert!(w.find_object("missing", "P10001").is_err());
    }

    #[test]
    fn view_exposes_all_four_neighbour_kinds() {
        let w = warehouse();
        let obj = w.find_object("protkb", "P10001").unwrap();
        let view = w.view(&obj).unwrap();

        // Attributes of the primary row.
        assert!(view
            .attributes
            .iter()
            .any(|(c, v)| c == "de" && v.contains("kinase")));
        // Dependency: the one DR row belonging to P10001.
        assert_eq!(view.annotation.len(), 1);
        assert!(view.annotation.iter().all(|a| a.table == "protkb_dr"));
        // Same relation: the two other proteins.
        assert_eq!(view.same_relation.len(), 2);
        // Linked: the structure cross-reference discovered at integration time.
        assert!(view
            .linked
            .iter()
            .any(|(o, kind, _)| o.accession == "1ABC" && *kind == LinkKind::ExplicitCrossRef));
    }

    #[test]
    fn view_of_unknown_object_errors() {
        let w = warehouse();
        let bogus = ObjectRef::new("protkb", "protkb_entry", "P99999");
        assert!(w.view(&bogus).is_err());
    }

    #[test]
    fn reachable_traverses_links() {
        let w = warehouse();
        let obj = w.find_object("protkb", "P10001").unwrap();
        let depth1 = w.reachable(&obj, 1).unwrap();
        assert!(depth1.iter().any(|o| o.accession == "1ABC"));
        assert!(w.reachable(&obj, 0).unwrap().is_empty());
        // Depth 2 reaches at least as much as depth 1.
        assert!(w.reachable(&obj, 2).unwrap().len() >= depth1.len());
    }
}
