//! Browsing: "simply displays objects and different kinds of links (to
//! secondary objects, to related objects, to duplicates) that users can
//! follow."
//!
//! An [`ObjectView`] holds the four relationship types of Section 4.6: same
//! relation, dependency (secondary annotation), duplicates, and links to other
//! sources. [`crate::access::Warehouse`] serves these views from its cached
//! row, annotation and link indexes; this module holds the view types and
//! assembles a view from what those indexes return.

use crate::metadata::{LinkKind, Neighbour, ObjectRef, PrimaryRelation};
use aladin_relstore::Table;

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

/// The `(column, value)` pairs of one row of a table, NULLs omitted.
pub(crate) fn row_values(table: &Table, row: usize) -> Vec<(String, String)> {
    table
        .schema()
        .columns()
        .iter()
        .zip(&table.rows()[row])
        .filter(|(_, v)| !v.is_null())
        .map(|(c, v)| (c.name.clone(), v.render()))
        .collect()
}

/// An object's row in its primary relation.
pub(crate) struct PrimaryRow<'a> {
    /// The primary relation, named as the source names it.
    pub(crate) relation: &'a PrimaryRelation,
    pub(crate) table: &'a Table,
    /// Position of the accession column in `table`.
    pub(crate) accession_column: usize,
    pub(crate) row: usize,
}

/// How many same-relation neighbours a view shows.
const SAME_RELATION_LIMIT: usize = 5;

/// Assemble the browsable view of one object from its primary row, the
/// annotation rows it owns and its link neighbourhood.
pub(crate) fn object_view(
    object: &ObjectRef,
    primary: PrimaryRow<'_>,
    annotation: Vec<AnnotationRow>,
    neighbours: &[Neighbour],
) -> ObjectView {
    let PrimaryRow {
        relation,
        table,
        accession_column,
        row,
    } = primary;

    // Same-relation neighbours.
    let same_relation: Vec<ObjectRef> = table
        .rows()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != row)
        .take(SAME_RELATION_LIMIT)
        .map(|(_, r)| {
            ObjectRef::new(
                &object.source,
                relation.table.clone(),
                r[accession_column].render(),
            )
        })
        .collect();

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

    ObjectView {
        object: object.clone(),
        attributes: row_values(table, row),
        annotation,
        same_relation,
        duplicates,
        linked,
    }
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
