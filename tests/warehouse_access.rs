//! Integration tests for the unified `Warehouse` access API: all three
//! access modes through one facade, composed queries with cursor pagination,
//! views and annotation joins held to a scanning oracle, and new warehouse
//! versions served on source addition and refresh.

use aladin::core::access::{
    AnnotationRow, AttrFilter, ObjectRecord, ObjectView, RecordOrigin, Warehouse,
};
use aladin::core::metadata::LinkAdjacency;
use aladin::core::secondary::owner_accessions;
use aladin::core::serve::{ServeConfig, Server};
use aladin::core::{
    Aladin, AladinConfig, AladinError, AladinResult, LinkKind, ObjectRef, QuerySpec,
};
use aladin::datagen::{Corpus, CorpusConfig};
use aladin::relstore::{ColumnDef, Database, Row, Table, TableSchema, Value};

fn corpus_aladin(seed: u64) -> Aladin {
    let corpus = Corpus::generate(&CorpusConfig::small(seed));
    let mut aladin = Aladin::with_defaults();
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .unwrap_or_else(|e| panic!("failed to integrate {}: {e}", dump.name));
    }
    aladin
}

fn corpus_warehouse(seed: u64) -> Warehouse {
    Warehouse::from_aladin(corpus_aladin(seed))
}

#[test]
fn all_three_access_modes_through_the_facade() {
    let warehouse = corpus_warehouse(11);

    // Browse: resolve an object and view its neighbourhood.
    let object = warehouse.find_object("protkb", "P10000").unwrap();
    let view = warehouse.view(&object).unwrap();
    assert!(!view.attributes.is_empty());
    assert!(!view.linked.is_empty(), "P10000 should be cross-referenced");
    assert!(!warehouse.reachable(&object, 2).unwrap().is_empty());

    // Search: ranked hits across sources.
    let hits = warehouse.search_hits("kinase", 20).unwrap();
    assert!(!hits.is_empty());
    assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));

    // Query: SQL with the new LIMIT/OFFSET pagination, path-guided joins and
    // cross-source object queries.
    let page = warehouse
        .sql(
            "protkb",
            "SELECT ac FROM protkb_entry ORDER BY ac LIMIT 5 OFFSET 5",
        )
        .unwrap();
    assert_eq!(page.row_count(), 5);
    let joined = warehouse.join_path("protkb", "protkb_kw").unwrap();
    assert!(joined.row_count() > 0);
    let ranked = warehouse
        .cross_source_objects("protkb", "structdb")
        .unwrap();
    assert!(!ranked.is_empty());
}

#[test]
fn composed_query_search_follow_join_cursor() {
    let warehouse = corpus_warehouse(13);

    // search → follow_links → join_annotation → cursor, end to end.
    let mut cursor = warehouse
        .search("kinase")
        .from_source("protkb")
        .follow_links(Some(LinkKind::ExplicitCrossRef), 1)
        .from_source("structdb")
        .join_annotation("chains")
        .cursor(3)
        .unwrap();
    assert!(
        !cursor.is_empty(),
        "kinase proteins should link to structures"
    );

    let mut records: Vec<ObjectRecord> = Vec::new();
    for page in cursor.by_ref() {
        let page = page.unwrap();
        assert!(page.len() <= 3);
        records.extend(page);
    }
    for record in &records {
        assert_eq!(record.object.source, "structdb");
        // Reached via a link from a protein.
        match &record.origin {
            RecordOrigin::Linked { via, kind, depth } => {
                assert_eq!(via.source, "protkb");
                assert_eq!(*kind, LinkKind::ExplicitCrossRef);
                assert_eq!(*depth, 1);
            }
            other => panic!("unexpected origin {other:?}"),
        }
        // The chains annotation came along.
        assert!(record.annotation.iter().all(|a| a.table == "chains"));
        assert!(!record.annotation.is_empty());
    }
}

#[test]
fn cursor_pagination_is_stable_across_pages() {
    let warehouse = corpus_warehouse(17);

    let all = warehouse.scan().fetch().unwrap();
    assert!(all.len() > 10);

    // Walking the cursor page by page reproduces the one-shot fetch exactly,
    // with no duplicated or dropped objects at page boundaries.
    let cursor = warehouse.scan().cursor(7).unwrap();
    assert_eq!(cursor.len(), all.len());
    let paged: Vec<ObjectRecord> = cursor.flat_map(|page| page.unwrap()).collect();
    assert_eq!(paged, all);

    // Offset/limit pagination over separate query executions is stable too.
    let mut stitched = Vec::new();
    let mut offset = 0;
    loop {
        let page = warehouse.scan().offset(offset).limit(7).fetch().unwrap();
        if page.is_empty() {
            break;
        }
        offset += page.len();
        stitched.extend(page);
    }
    assert_eq!(stitched, all);

    // Filters and ordering are deterministic across repeated runs.
    let a = warehouse
        .scan()
        .filter(AttrFilter::like("ac", "P%"))
        .fetch()
        .unwrap();
    let b = warehouse
        .scan()
        .filter(AttrFilter::like("ac", "P%"))
        .fetch()
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn explain_and_index_backed_point_lookups_end_to_end() {
    let warehouse = corpus_warehouse(19);

    // The optimized plan for an accession point lookup probes the hash index.
    let explained = warehouse.accession("protkb", "P10000").explain().unwrap();
    assert!(
        explained.contains("IndexScan protkb_entry.ac = 'P10000'"),
        "expected an IndexScan in:\n{explained}"
    );

    // EXPLAIN is reachable through the SQL dialect too.
    let plan_table = warehouse
        .sql(
            "protkb",
            "EXPLAIN SELECT * FROM protkb_entry WHERE ac = 'P10000'",
        )
        .unwrap();
    assert_eq!(
        plan_table.cell(0, "plan").unwrap().render(),
        "IndexScan protkb_entry.ac = 'P10000'"
    );

    // The index-backed fast path serves the same records as the reference
    // pipeline shape (accession root) for the same object.
    let via_filter = warehouse
        .scan()
        .from_source("protkb")
        .filter(AttrFilter::equals("ac", "P10000"))
        .fetch()
        .unwrap();
    assert_eq!(via_filter.len(), 1);
    let via_accession = warehouse.accession("protkb", "P10000").fetch().unwrap();
    assert_eq!(via_filter[0].object, via_accession[0].object);
    assert_eq!(via_filter[0].attributes, via_accession[0].attributes);
}

/// The `(column, value)` pairs of a row, NULLs omitted.
fn row_values(table: &Table, row: &Row) -> Vec<(String, String)> {
    table
        .schema()
        .columns()
        .iter()
        .zip(row)
        .filter(|(_, v)| !v.is_null())
        .map(|(c, v)| (c.name.clone(), v.render()))
        .collect()
}

/// The view of `object` rebuilt by scanning: its primary row found by a scan
/// of the first primary relation its table names (in any case), and as
/// annotation every row of every connected secondary table whose owner,
/// derived per table with `owner_accessions`, is its accession. Errors are
/// those a browser gets for the same object.
fn scanned_view(
    w: &Warehouse,
    adjacency: &LinkAdjacency,
    object: &ObjectRef,
) -> AladinResult<ObjectView> {
    let structure = w
        .metadata()
        .structure(&object.source)
        .ok_or_else(|| AladinError::UnknownSource(object.source.clone()))?;
    let db = w.database(&object.source)?;
    let unknown = || AladinError::UnknownObject(object.to_string());
    let primary = structure
        .primary_relations
        .iter()
        .find(|p| p.table.eq_ignore_ascii_case(&object.table))
        .ok_or_else(unknown)?;
    let table = db.table(&primary.table)?;
    let acc = table.column_index(&primary.accession_column)?;
    let row = table
        .rows()
        .iter()
        .position(|r| r[acc].renders_as(&object.accession))
        .ok_or_else(unknown)?;

    let mut annotation = Vec::new();
    for secondary in &structure.secondary_relations {
        let Ok(rows) = db.table(&secondary.table) else {
            continue;
        };
        if secondary.path.is_empty() {
            continue;
        }
        let owners = owner_accessions(
            db,
            &structure.primary_relations,
            &structure.secondary_relations,
            &structure.relationships,
            &secondary.table,
        )
        .unwrap_or_else(|_| vec![None; rows.row_count()]);
        for (r, owner) in rows.rows().iter().zip(owners) {
            if owner.as_deref() == Some(object.accession.as_str()) {
                annotation.push(AnnotationRow {
                    table: secondary.table.clone(),
                    values: row_values(rows, r),
                });
            }
        }
    }

    let same_relation = table
        .rows()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != row)
        .take(5)
        .map(|(_, r)| ObjectRef::new(&object.source, primary.table.clone(), r[acc].render()))
        .collect();
    let (mut duplicates, mut linked) = (Vec::new(), Vec::new());
    for n in adjacency.neighbours(object) {
        match n.kind {
            LinkKind::Duplicate => duplicates.push((n.object.clone(), n.score)),
            kind => linked.push((n.object.clone(), kind, n.score)),
        }
    }
    duplicates.sort_by(|a, b| b.1.total_cmp(&a.1));
    linked.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    Ok(ObjectView {
        object: object.clone(),
        attributes: row_values(table, &table.rows()[row]),
        annotation,
        same_relation,
        duplicates,
        linked,
    })
}

/// A source whose primary relation leaves one accession NULL (coverage
/// 10/11 passes the default 0.9), with notes owned by its entries.
fn sparse_db() -> Database {
    let mut db = Database::new("sparse");
    db.create_table(
        "entries",
        TableSchema::of(vec![ColumnDef::int("entry_id"), ColumnDef::text("ac")]),
    )
    .unwrap();
    db.create_table(
        "notes",
        TableSchema::of(vec![
            ColumnDef::int("note_id"),
            ColumnDef::int("entry_id"),
            ColumnDef::text("note"),
        ]),
    )
    .unwrap();
    for id in 1..=11i64 {
        let ac = match id {
            6 => Value::Null,
            _ => Value::text(format!("SP{id:04}")),
        };
        db.insert("entries", vec![Value::Int(id), ac]).unwrap();
        db.insert(
            "notes",
            vec![
                Value::Int(id),
                Value::Int(id),
                Value::text(format!("note {id}")),
            ],
        )
        .unwrap();
    }
    db
}

/// A source with no accession candidate, so no primary relation.
fn numbers_db() -> Database {
    let mut db = Database::new("numbers");
    db.create_table(
        "pairs",
        TableSchema::of(vec![ColumnDef::int("a"), ColumnDef::int("b")]),
    )
    .unwrap();
    for (a, b) in [(1, 2), (3, 4)] {
        db.insert("pairs", vec![Value::Int(a), Value::Int(b)])
            .unwrap();
    }
    db
}

#[test]
fn views_and_annotation_joins_match_a_scanning_oracle() {
    for seed in [3, 1009] {
        let mut aladin = corpus_aladin(seed);
        aladin.add_database(sparse_db()).unwrap();
        aladin.add_database(numbers_db()).unwrap();
        let w = Warehouse::from_aladin(aladin);
        let adjacency = w.metadata().build_adjacency();
        let check = |object: &ObjectRef| {
            let got = w.view(object).map_err(|e| e.to_string());
            let want = scanned_view(&w, &adjacency, object).map_err(|e| e.to_string());
            assert_eq!(got, want, "seed {seed}, {object:?}");
            got
        };

        let mut annotated = 0;
        for source in w.source_names() {
            let structure = w.metadata().structure(source).unwrap();
            let objects = w.aladin().objects_of(source).unwrap();
            for object in &objects {
                let view = check(object).unwrap();
                annotated += usize::from(!view.annotation.is_empty());
                // A join of each secondary table, named in either case,
                // carries exactly the view's rows of that table.
                for secondary in &structure.secondary_relations {
                    for table in [
                        secondary.table.clone(),
                        secondary.table.to_ascii_uppercase(),
                    ] {
                        let spec =
                            QuerySpec::accession(source, &object.accession).join_annotation(&table);
                        let records = w.query(spec).fetch().unwrap();
                        let want: Vec<&AnnotationRow> = view
                            .annotation
                            .iter()
                            .filter(|a| a.table.eq_ignore_ascii_case(&table))
                            .collect();
                        assert_eq!(records.len(), 1);
                        assert_eq!(
                            records[0].annotation.iter().collect::<Vec<_>>(),
                            want,
                            "seed {seed}, {object:?} joined with {table}"
                        );
                    }
                }
            }

            // A table named in another case resolves; an unknown accession or
            // table does not, with the browser's words.
            let Some(first) = objects.first() else {
                continue;
            };
            let upper = ObjectRef::new(source, first.table.to_ascii_uppercase(), &first.accession);
            assert!(check(&upper).is_ok());
            let missing = ObjectRef::new(source, &first.table, "NO_SUCH_ACCESSION");
            assert_eq!(
                check(&missing),
                Err(format!("unknown object: {source}:NO_SUCH_ACCESSION"))
            );
            let no_table = ObjectRef::new(source, "no_such_table", &first.accession);
            assert_eq!(
                check(&no_table),
                Err(format!("unknown object: {source}:{}", first.accession))
            );
        }
        assert!(
            annotated > 50,
            "seed {seed}: only {annotated} annotated views"
        );

        // The empty accession names the entry whose accession is NULL, as a
        // scan finds it. A source without a primary relation has no object
        // to view, and an unknown source is named as such.
        let null_entry = check(&ObjectRef::new("sparse", "entries", "")).unwrap();
        assert_eq!(
            null_entry.attributes,
            [("entry_id".to_string(), "6".to_string())]
        );
        let row = ObjectRef::new("numbers", "pairs", "1");
        assert_eq!(check(&row), Err("unknown object: numbers:1".to_string()));
        let elsewhere = ObjectRef::new("missing", "pairs", "1");
        assert_eq!(
            check(&elsewhere),
            Err("unknown source: missing".to_string())
        );
    }
}

#[test]
fn paged_scans_of_one_source_slice_the_full_scan() {
    let warehouse = corpus_warehouse(3);
    let all = warehouse.scan().fetch().unwrap();
    for source in warehouse.source_names() {
        let of_source: Vec<ObjectRecord> = all
            .iter()
            .filter(|r| r.object.source == source)
            .cloned()
            .collect();
        let n = of_source.len();
        let last = n.saturating_sub(1);
        for (offset, limit) in [
            (0, 25),
            (25, 25),
            (7, 3),
            (last, 5),
            (n, 5),
            (0, usize::MAX),
        ] {
            let page = warehouse
                .scan()
                .from_source(source)
                .offset(offset)
                .limit(limit)
                .fetch()
                .unwrap();
            let start = offset.min(n);
            let end = start.saturating_add(limit).min(n);
            assert_eq!(page, of_source[start..end], "{source} {offset}+{limit}");
        }
    }
    assert!(all.iter().filter(|r| r.object.source == "protkb").count() > 25);
    let err = warehouse.scan().from_source("missing").fetch().unwrap_err();
    assert_eq!(err.to_string(), "unknown source: missing");
}

fn protein_db(descriptions: &[(&str, &str)]) -> Database {
    let mut db = Database::new("protkb");
    db.create_table(
        "protkb_entry",
        TableSchema::of(vec![
            ColumnDef::int("entry_id"),
            ColumnDef::text("ac"),
            ColumnDef::text("de"),
        ]),
    )
    .unwrap();
    db.create_table(
        "protkb_dr",
        TableSchema::of(vec![
            ColumnDef::int("dr_id"),
            ColumnDef::int("entry_id"),
            ColumnDef::text("value"),
        ]),
    )
    .unwrap();
    for (i, (ac, de)) in descriptions.iter().enumerate() {
        db.insert(
            "protkb_entry",
            vec![Value::Int(i as i64 + 1), Value::text(*ac), Value::text(*de)],
        )
        .unwrap();
    }
    // Two rows so the cross-reference column survives the low-cardinality
    // pruning rule of link discovery.
    for (id, entry, value) in [(1, 1, "STRUCTDB; 1ABC"), (2, 2, "STRUCTDB; 2DEF")] {
        db.insert(
            "protkb_dr",
            vec![Value::Int(id), Value::Int(entry), Value::text(value)],
        )
        .unwrap();
    }
    db
}

#[test]
fn caches_invalidate_on_add_database_and_refresh_source() {
    let config = AladinConfig {
        link_min_matches: 1,
        min_distinct_values: 2,
        ..Default::default()
    };
    let mut aladin = Aladin::new(config);
    aladin
        .add_database(protein_db(&[
            ("P10001", "serine kinase enzyme"),
            ("P10002", "sugar transporter protein"),
            ("P10003", "ribosome assembly factor"),
        ]))
        .unwrap();
    let server = Server::start(aladin, ServeConfig::default()).unwrap();

    assert_eq!(server.search("kinase", 10).unwrap().len(), 1);
    assert!(server.search("crystal", 10).unwrap().is_empty());
    let generation_before = server.generation();

    // Adding a source must be reflected immediately: its objects are
    // searchable and its links traversable with no manual rebuild call.
    let mut structdb = Database::new("structdb");
    structdb
        .create_table(
            "structures",
            TableSchema::of(vec![
                ColumnDef::text("structure_id"),
                ColumnDef::text("title"),
            ]),
        )
        .unwrap();
    for (acc, title) in [
        ("1ABC", "crystal of a kinase"),
        ("2DEF", "crystal of a pore"),
    ] {
        structdb
            .insert("structures", vec![Value::text(acc), Value::text(title)])
            .unwrap();
    }
    server.add_database(structdb).unwrap();

    let hits = server.search("crystal", 10).unwrap();
    assert_eq!(hits.len(), 2, "new source must be searchable immediately");
    assert!(server.generation() > generation_before);
    let linked = server
        .fetch(
            &QuerySpec::accession("protkb", "P10001")
                .follow_links(Some(LinkKind::ExplicitCrossRef), 1),
        )
        .unwrap();
    assert_eq!(linked.len(), 1);
    assert_eq!(linked[0].object.accession, "1ABC");

    // Refreshing a source re-integrates it; stale index entries must be
    // gone and new content present.
    server
        .refresh_source(
            protein_db(&[
                ("P10001", "serine kinase enzyme"),
                ("P10002", "sugar transporter protein"),
                ("P10004", "novel telomerase subunit"),
            ]),
            1.0,
        )
        .unwrap()
        .expect("above threshold: re-integration happens");

    let stale = server.search("ribosome", 10).unwrap();
    assert!(stale.is_empty(), "stale index results must be impossible");
    let fresh = server.search("telomerase", 10).unwrap();
    assert_eq!(fresh.len(), 1);
    assert_eq!(fresh[0].object.accession, "P10004");
    assert!(server
        .fetch(&QuerySpec::accession("protkb", "P10003"))
        .is_err());

    // A below-threshold refresh is deferred and changes nothing.
    let generation = server.generation();
    let deferred = server
        .refresh_source(protein_db(&[("P10001", "x")]), 0.0)
        .unwrap();
    assert!(deferred.is_none());
    let _ = server.search("kinase", 10).unwrap();
    assert_eq!(server.generation(), generation);
}
