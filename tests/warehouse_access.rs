//! Integration tests for the unified `Warehouse` access API: all three
//! access modes through one facade, composed queries with cursor pagination,
//! and new warehouse versions served on source addition and refresh.

use aladin::core::access::{AttrFilter, ObjectRecord, RecordOrigin, Warehouse};
use aladin::core::serve::{ServeConfig, Server};
use aladin::core::{Aladin, AladinConfig, LinkKind, QuerySpec};
use aladin::datagen::{Corpus, CorpusConfig};
use aladin::relstore::{ColumnDef, Database, TableSchema, Value};

fn corpus_warehouse(seed: u64) -> Warehouse {
    let corpus = Corpus::generate(&CorpusConfig::small(seed));
    let mut aladin = Aladin::with_defaults();
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .unwrap_or_else(|e| panic!("failed to integrate {}: {e}", dump.name));
    }
    Warehouse::from_aladin(aladin)
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
