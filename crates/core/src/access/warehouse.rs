//! The unified warehouse access facade.
//!
//! [`Warehouse`] is the single entry point for all read access to an
//! integrated ALADIN warehouse. It composes the three access modes of the
//! paper's Section 4.6 — browsing, ranked keyword search, and structured
//! queries — behind one type, and owns the cached access structures that make
//! serving them cheap:
//!
//! * a [`SearchIndex`] over every textual field,
//! * a [`LinkAdjacency`] map over every discovered link,
//! * per-source accession→row indexes for `O(1)` object materialization, and
//! * per-source annotation indexes, owner accession → the secondary rows it
//!   owns, so a view or an annotation join reads only its own rows.
//!
//! The search and annotation indexes share one owner vector per table
//! ([`crate::secondary::owner_accessions`]), derived once per warehouse
//! version.
//!
//! A warehouse is a read-only view of one integrated [`Aladin`] pipeline:
//! it has no write API, so its caches are built once, on first use or by
//! [`Warehouse::warm`], and never go stale. To change the data, integrate
//! through [`Aladin`] (or [`crate::serve::Server`], which publishes a new
//! warehouse version) and wrap the result with [`Warehouse::from_aladin`].
//!
//! The composable query layer is [`ObjectQuery`]: start from a full scan
//! ([`Warehouse::scan`]), a keyword search ([`Warehouse::search`]) or an
//! accession lookup ([`Warehouse::accession`]); chain
//! [`ObjectQuery::filter`], [`ObjectQuery::follow_links`],
//! [`ObjectQuery::from_source`], [`ObjectQuery::join_annotation`],
//! [`ObjectQuery::limit`]/[`ObjectQuery::offset`]; terminate with
//! [`ObjectQuery::fetch`] (materialized records), [`ObjectQuery::cursor`]
//! (paginated streaming for heavy-traffic serving) or [`ObjectQuery::plan`]
//! (compile to a relstore [`LogicalPlan`] for inspection or reuse).
//!
//! ```
//! use aladin_core::access::Warehouse;
//! use aladin_core::pipeline::Aladin;
//! # use aladin_relstore::{ColumnDef, Database, TableSchema, Value};
//! let mut aladin = Aladin::with_defaults();
//! # let mut db = Database::new("protkb");
//! # db.create_table("protkb_entry", TableSchema::of(vec![
//! #     ColumnDef::int("entry_id"), ColumnDef::text("ac"), ColumnDef::text("de"),
//! # ])).unwrap();
//! # db.insert("protkb_entry", vec![Value::Int(1), Value::text("P10001"),
//! #     Value::text("serine kinase")]).unwrap();
//! # db.insert("protkb_entry", vec![Value::Int(2), Value::text("P10002"),
//! #     Value::text("sugar transporter")]).unwrap();
//! aladin.add_database(db).unwrap();
//! let warehouse = Warehouse::from_aladin(aladin);
//! let kinases = warehouse
//!     .search("kinase")
//!     .from_source("protkb")
//!     .limit(10)
//!     .fetch()
//!     .unwrap();
//! assert_eq!(kinases[0].object.accession, "P10001");
//! ```

use crate::access::browse::{object_view, row_values, AnnotationRow, ObjectView, PrimaryRow};
use crate::access::query::{build_join_path_plan, cross_source_over, run_statement};
use crate::access::search::{ObjectHit, SearchIndex};
use crate::error::{AladinError, AladinResult};
use crate::metadata::{LinkAdjacency, LinkKind, MetadataRepository, ObjectRef, PipelineMetrics};
use crate::pipeline::Aladin;
use crate::secondary::TableOwners;
use aladin_relstore::expr::like_match;
use aladin_relstore::plan::{fingerprint_bytes, SortKey};
use aladin_relstore::{Database, Expr, LogicalPlan, Table, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

/// Default number of ranked hits a search-rooted [`ObjectQuery`] starts from.
const DEFAULT_SEARCH_LIMIT: usize = 50;

// ---------------------------------------------------------------------------
// Cached access structures
// ---------------------------------------------------------------------------

/// Accession → row-index maps for every primary relation, nested
/// `source → table → accession → row`.
type RowIndex = HashMap<String, HashMap<String, HashMap<String, usize>>>;

/// The secondary-annotation rows each object owns, nested `source → owner
/// accession → (position in the source's secondary_relations, row)`, in the
/// order a view lists them: by secondary relation, then by row.
type AnnotationIndex = HashMap<String, HashMap<String, Vec<(usize, usize)>>>;

/// Everything the facade caches between queries.
struct AccessCaches {
    search: SearchIndex,
    adjacency: LinkAdjacency,
    rows: RowIndex,
    annotations: AnnotationIndex,
}

impl AccessCaches {
    fn build(aladin: &Aladin) -> AladinResult<AccessCaches> {
        let mut search = SearchIndex::empty();
        let mut rows: RowIndex = HashMap::new();
        let mut annotations: AnnotationIndex = HashMap::new();
        for source in aladin.source_names() {
            if aladin
                .config()
                .faults
                .panic_cache_build
                .iter()
                .any(|s| s == source)
            {
                panic!("fault injection: cache build panics on source '{source}'");
            }
            let structure = match aladin.metadata().structure(source) {
                Some(s) => s,
                None => continue,
            };
            let db = aladin.database(source)?;
            // One owner vector per table, shared by the search index and
            // the annotation index.
            let mut owners = TableOwners::new(db, structure);
            search.add_source(source, db, structure, &mut owners);
            let per_source = rows.entry(source.to_string()).or_default();
            for primary in &structure.primary_relations {
                let table = db.table(&primary.table)?;
                let acc_idx = table.column_index(&primary.accession_column)?;
                let mut index = HashMap::with_capacity(table.row_count());
                for (i, row) in table.rows().iter().enumerate() {
                    let v = &row[acc_idx];
                    if !v.is_null() {
                        index.entry(v.render()).or_insert(i);
                    }
                }
                per_source.insert(primary.table.clone(), index);
            }
            let by_owner = annotations.entry(source.to_string()).or_default();
            for (position, secondary) in structure.secondary_relations.iter().enumerate() {
                if secondary.path.is_empty() {
                    continue;
                }
                let Ok(table) = db.table(&secondary.table) else {
                    continue;
                };
                for (row, owner) in (0..table.row_count()).zip(owners.take(table)) {
                    if let Some(owner) = owner {
                        by_owner.entry(owner).or_default().push((position, row));
                    }
                }
            }
        }
        Ok(AccessCaches {
            search,
            adjacency: aladin.metadata().build_adjacency(),
            rows,
            annotations,
        })
    }

    /// Row of an accession in one primary relation, named exactly as the
    /// source names it.
    fn row_of(&self, source: &str, table: &str, accession: &str) -> Option<usize> {
        self.rows.get(source)?.get(table)?.get(accession).copied()
    }

    /// An object's primary row, resolved as a scan of its primary relation
    /// would resolve it: the table name in any case, and errors in the same
    /// order and words.
    fn primary_row<'a>(
        &self,
        aladin: &'a Aladin,
        object: &ObjectRef,
    ) -> AladinResult<PrimaryRow<'a>> {
        let unknown = || AladinError::UnknownObject(object.to_string());
        let structure = aladin
            .metadata()
            .structure(&object.source)
            .ok_or_else(|| AladinError::UnknownSource(object.source.clone()))?;
        let db = aladin.database(&object.source)?;
        let relation = structure
            .primary_relations
            .iter()
            .find(|p| p.table.eq_ignore_ascii_case(&object.table))
            .ok_or_else(unknown)?;
        let table = db.table(&relation.table)?;
        let accession_column = table.column_index(&relation.accession_column)?;
        // The row index holds no NULL accession, and a NULL renders as the
        // empty string: only that accession needs the scan.
        let row = if object.accession.is_empty() {
            table
                .rows()
                .iter()
                .position(|r| r[accession_column].renders_as(""))
        } else {
            self.row_of(&object.source, &relation.table, &object.accession)
        }
        .ok_or_else(unknown)?;
        Ok(PrimaryRow {
            relation,
            table,
            accession_column,
            row,
        })
    }

    /// The annotation rows an object owns, in view order, optionally only
    /// those of one secondary table (named in any case).
    fn annotation(
        &self,
        aladin: &Aladin,
        object: &ObjectRef,
        only_table: Option<&str>,
    ) -> AladinResult<Vec<AnnotationRow>> {
        let Some(owned) = self
            .annotations
            .get(&object.source)
            .and_then(|by_owner| by_owner.get(&object.accession))
        else {
            return Ok(Vec::new());
        };
        let secondaries = &aladin
            .metadata()
            .structure(&object.source)
            .ok_or_else(|| AladinError::UnknownSource(object.source.clone()))?
            .secondary_relations;
        let db = aladin.database(&object.source)?;
        let mut out = Vec::new();
        for &(position, row) in owned {
            let secondary = &secondaries[position];
            if only_table.is_some_and(|t| !secondary.table.eq_ignore_ascii_case(t)) {
                continue;
            }
            out.push(AnnotationRow {
                table: secondary.table.clone(),
                values: row_values(db.table(&secondary.table)?, row),
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The facade
// ---------------------------------------------------------------------------

/// The unified access facade over an integrated ALADIN warehouse: a
/// read-only view of one integration pipeline plus the cached access
/// structures built from it, exposing browsing, search and structured
/// queries through one composable API. See the [module docs](self) for an
/// overview.
pub struct Warehouse {
    aladin: Aladin,
    /// Built once by the first access. A build error is kept, since the
    /// pipeline cannot change; a build that panics leaves the cell empty, so
    /// the next access builds again.
    caches: OnceLock<AladinResult<AccessCaches>>,
}

impl std::fmt::Debug for Warehouse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warehouse")
            .field("sources", &self.aladin.source_names())
            .field("generation", &self.aladin.metadata().generation())
            .finish()
    }
}

impl Warehouse {
    /// Wrap an integrated pipeline for read access.
    pub fn from_aladin(aladin: Aladin) -> Warehouse {
        Warehouse {
            aladin,
            caches: OnceLock::new(),
        }
    }

    /// The underlying integration pipeline (read access).
    pub fn aladin(&self) -> &Aladin {
        &self.aladin
    }

    /// Unwrap back into the integration pipeline, e.g. to integrate more
    /// sources and wrap the result in a new warehouse.
    pub fn into_aladin(self) -> Aladin {
        self.aladin
    }

    /// The metadata repository.
    pub fn metadata(&self) -> &MetadataRepository {
        self.aladin.metadata()
    }

    /// The per-step, per-pair pipeline metrics report (see
    /// [`PipelineMetrics`]): wall-clock and output counts for every
    /// integration step, broken down to the source pairs of steps 4–5.
    pub fn metrics(&self) -> PipelineMetrics {
        self.aladin.metrics()
    }

    /// Names of the integrated sources.
    pub fn source_names(&self) -> Vec<&str> {
        self.aladin.source_names()
    }

    /// Number of integrated sources.
    pub fn source_count(&self) -> usize {
        self.aladin.source_count()
    }

    /// The imported database of one source.
    pub fn database(&self, source: &str) -> AladinResult<&Database> {
        self.aladin.database(source)
    }

    fn caches(&self) -> AladinResult<&AccessCaches> {
        self.caches
            .get_or_init(|| AccessCaches::build(&self.aladin))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Eagerly build the cached access structures (useful before serving
    /// traffic; every access path otherwise builds them on first use).
    pub fn warm(&self) -> AladinResult<()> {
        self.caches().map(|_| ())
    }

    // -- browse mode --------------------------------------------------------

    /// Resolve an accession within a source to an object reference.
    pub fn find_object(&self, source: &str, accession: &str) -> AladinResult<ObjectRef> {
        let caches = self.caches()?;
        let structure = self
            .aladin
            .metadata()
            .structure(source)
            .ok_or_else(|| AladinError::UnknownSource(source.to_string()))?;
        // Probe in primary-relation order (not map order) so the resolved
        // table is deterministic for multi-primary sources.
        let tables = caches.rows.get(source);
        for primary in &structure.primary_relations {
            if tables
                .and_then(|t| t.get(&primary.table))
                .is_some_and(|index| index.contains_key(accession))
            {
                return Ok(ObjectRef::new(source, primary.table.clone(), accession));
            }
        }
        Err(AladinError::UnknownObject(format!("{source}:{accession}")))
    }

    /// The full browsable view of one object: attributes, annotation, and the
    /// four neighbour kinds.
    pub fn view(&self, object: &ObjectRef) -> AladinResult<ObjectView> {
        let caches = self.caches()?;
        let primary = caches.primary_row(&self.aladin, object)?;
        let annotation = caches.annotation(&self.aladin, object, None)?;
        Ok(object_view(
            object,
            primary,
            annotation,
            caches.adjacency.neighbours(object),
        ))
    }

    /// Objects reachable from a start object by following links of every
    /// kind up to `depth` hops (breadth-first, excluding the start). This is
    /// the "web of biological objects" traversal of the introduction.
    pub fn reachable(&self, start: &ObjectRef, depth: usize) -> AladinResult<Vec<ObjectRef>> {
        let caches = self.caches()?;
        let reached = walk_links(&caches.adjacency, [start.clone()], depth, |_| true);
        Ok(reached.into_iter().map(|(object, _)| object).collect())
    }

    // -- search mode --------------------------------------------------------

    /// Ranked full-text search over all sources.
    pub fn search_hits(&self, query: &str, top_k: usize) -> AladinResult<Vec<ObjectHit>> {
        Ok(self.caches()?.search.search(query, top_k))
    }

    /// Ranked search restricted to one source (horizontal partition).
    pub fn search_hits_in_source(
        &self,
        query: &str,
        source: &str,
        top_k: usize,
    ) -> AladinResult<Vec<ObjectHit>> {
        Ok(self.caches()?.search.search_source(query, source, top_k))
    }

    /// Ranked search restricted to one `table.column` field (vertical
    /// partition).
    pub fn search_hits_in_field(
        &self,
        query: &str,
        field: &str,
        top_k: usize,
    ) -> AladinResult<Vec<ObjectHit>> {
        Ok(self.caches()?.search.search_field(query, field, top_k))
    }

    // -- query mode ---------------------------------------------------------

    /// Run a SQL query against the imported schema of one source. An
    /// unknown source is reported before a parse error.
    pub fn sql(&self, source: &str, query: &str) -> AladinResult<Table> {
        let db = self.database(source)?;
        run_statement(db, aladin_relstore::sql::parse_statement(query)?)
    }

    /// Logical plan joining a source's primary relation to a secondary table
    /// along the discovered path.
    pub fn join_path_plan(&self, source: &str, secondary_table: &str) -> AladinResult<LogicalPlan> {
        build_join_path_plan(&self.aladin, source, secondary_table)
    }

    /// Execute the path-guided join for a source and secondary table like a
    /// SQL `SELECT`: statically analyzed, then through the optimizer and the
    /// streaming executor ([`aladin_relstore::exec::execute_checked`]).
    pub fn join_path(&self, source: &str, secondary_table: &str) -> AladinResult<Table> {
        let db = self.aladin.database(source)?;
        let plan = self.join_path_plan(source, secondary_table)?;
        Ok(aladin_relstore::exec::execute_checked(db, &plan)?)
    }

    /// Cross-source object query over the cached adjacency: pairs of linked
    /// objects between two sources, ranked by the number of independent link
    /// paths.
    pub fn cross_source_objects(
        &self,
        start_source: &str,
        target_source: &str,
    ) -> AladinResult<Vec<(ObjectRef, ObjectRef, usize)>> {
        let caches = self.caches()?;
        cross_source_over(&self.aladin, &caches.adjacency, start_source, target_source)
    }

    // -- composable queries -------------------------------------------------

    /// Start a query from a full scan of every primary object (browse mode).
    pub fn scan(&self) -> ObjectQuery<'_> {
        self.query(QuerySpec::scan())
    }

    /// Start a query from a ranked keyword search (search mode). The best
    /// [`ObjectQuery::search_limit`] hits seed the pipeline, in rank order.
    pub fn search(&self, text: impl Into<String>) -> ObjectQuery<'_> {
        self.query(QuerySpec::search(text))
    }

    /// Start a query from a single accession lookup (query mode entry).
    pub fn accession(
        &self,
        source: impl Into<String>,
        accession: impl Into<String>,
    ) -> ObjectQuery<'_> {
        self.query(QuerySpec::accession(source, accession))
    }

    /// Bind an owned [`QuerySpec`] to this warehouse for execution. This is
    /// how pre-built (or cached-key) query descriptions run: specs are plain
    /// data, so they can be constructed elsewhere, shared across threads,
    /// and executed against any warehouse.
    pub fn query(&self, spec: QuerySpec) -> ObjectQuery<'_> {
        ObjectQuery {
            warehouse: self,
            spec,
        }
    }
}

// ---------------------------------------------------------------------------
// Result model
// ---------------------------------------------------------------------------

/// How a record entered the result set.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordOrigin {
    /// Part of the scanned object population.
    Scan,
    /// Matched the keyword search with this ranking score.
    Search {
        /// Aggregated ranking score of the hit.
        score: f64,
    },
    /// Resolved directly from an accession lookup.
    Lookup,
    /// Reached by following a link.
    Linked {
        /// The object the link was followed from.
        via: ObjectRef,
        /// The kind of the link followed.
        kind: LinkKind,
        /// Number of hops from the query's seed set.
        depth: usize,
    },
}

/// One materialized result of an [`ObjectQuery`]: the shared result model of
/// all three access modes.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    /// The object.
    pub object: ObjectRef,
    /// How the object entered the result set.
    pub origin: RecordOrigin,
    /// `(column, value)` pairs of the object's primary-relation row (NULLs
    /// omitted).
    pub attributes: Vec<(String, String)>,
    /// Secondary-annotation rows, present for the tables requested with
    /// [`ObjectQuery::join_annotation`].
    pub annotation: Vec<AnnotationRow>,
}

impl ObjectRecord {
    /// The value of one attribute, if present (case-insensitive name match).
    pub fn attr(&self, column: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(c, _)| c.eq_ignore_ascii_case(column))
            .map(|(_, v)| v.as_str())
    }
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

/// A predicate over one attribute of a primary-relation row. Filters evaluate
/// in-memory during query execution and compile to relstore expressions in
/// [`ObjectQuery::plan`]; both paths share the relational dialect's
/// semantics: `LIKE`/`contains` are case-insensitive, `equals` compares the
/// rendered value exactly (compiled through [`Value::infer`] so numeric
/// literals hit numeric columns).
#[derive(Debug, Clone, PartialEq)]
pub struct AttrFilter {
    column: String,
    op: FilterOp,
    value: String,
}

#[derive(Debug, Clone, PartialEq)]
enum FilterOp {
    Equals,
    Contains,
    Like,
}

impl AttrFilter {
    /// `column = value`.
    pub fn equals(column: impl Into<String>, value: impl Into<String>) -> AttrFilter {
        AttrFilter {
            column: column.into(),
            op: FilterOp::Equals,
            value: value.into(),
        }
    }

    /// `column LIKE '%value%'` (case-insensitive substring; `value` is taken
    /// literally, so it must not itself contain the `%`/`_` wildcards).
    pub fn contains(column: impl Into<String>, value: impl Into<String>) -> AttrFilter {
        AttrFilter {
            column: column.into(),
            op: FilterOp::Contains,
            value: value.into(),
        }
    }

    /// `column LIKE pattern` (`%` and `_` wildcards, case-insensitive — the
    /// dialect's `LIKE`).
    pub fn like(column: impl Into<String>, pattern: impl Into<String>) -> AttrFilter {
        AttrFilter {
            column: column.into(),
            op: FilterOp::Like,
            value: pattern.into(),
        }
    }

    /// Evaluate against materialized attributes. A missing attribute (NULL or
    /// unknown column) never matches, mirroring SQL comparison semantics.
    /// Matching mirrors what [`AttrFilter::to_expr`] compiles to, so
    /// `fetch()` and an executed `plan()` agree: `LIKE` (and `contains`)
    /// lowercase both sides exactly like the relstore executor does.
    fn matches(&self, attributes: &[(String, String)]) -> bool {
        let value = attributes
            .iter()
            .find(|(c, _)| c.eq_ignore_ascii_case(&self.column))
            .map(|(_, v)| v.as_str());
        match (value, &self.op) {
            (None, _) => false,
            (Some(v), FilterOp::Equals) => v == self.value,
            (Some(v), FilterOp::Contains) => v
                .to_ascii_lowercase()
                .contains(&self.value.to_ascii_lowercase()),
            (Some(v), FilterOp::Like) => {
                like_match(&v.to_ascii_lowercase(), &self.value.to_ascii_lowercase())
            }
        }
    }

    /// Compile to a relstore expression with the same semantics as
    /// [`AttrFilter::matches`]. Errors when the filter cannot be expressed
    /// faithfully (a `contains` value containing `LIKE` wildcards).
    fn to_expr(&self) -> AladinResult<Expr> {
        let col = Expr::col(self.column.clone());
        Ok(match self.op {
            // `infer` round-trips rendering (property-tested), so comparing
            // against the inferred literal matches the rendered-string
            // equality of the in-memory path on typed columns too.
            FilterOp::Equals => col.eq(Expr::lit(Value::infer(&self.value))),
            FilterOp::Contains => {
                if self.value.contains('%') || self.value.contains('_') {
                    return Err(AladinError::Discovery(format!(
                        "contains filter value '{}' holds LIKE wildcards and cannot compile faithfully; use AttrFilter::like",
                        self.value
                    )));
                }
                col.like(format!("%{}%", self.value))
            }
            FilterOp::Like => col.like(self.value.clone()),
        })
    }
}

// ---------------------------------------------------------------------------
// The query builder
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum QueryRoot {
    Scan,
    Search { text: String, top_k: usize },
    Accession { source: String, accession: String },
}

#[derive(Debug, Clone, PartialEq)]
enum QueryOp {
    FromSource(String),
    Filter(AttrFilter),
    FollowLinks {
        kind: Option<LinkKind>,
        depth: usize,
    },
}

/// An owned, warehouse-independent description of an [`ObjectQuery`]: the
/// root, the chained pipeline stages, annotation joins and pagination. Specs
/// are plain data — buildable without borrowing a warehouse, shareable
/// across threads, comparable, and bindable to any warehouse via
/// [`Warehouse::query`]. [`QuerySpec::fingerprint`] gives the normalized
/// 64-bit key the serving layer's result cache is keyed on.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    root: QueryRoot,
    ops: Vec<QueryOp>,
    annotations: Vec<String>,
    limit: Option<usize>,
    offset: usize,
}

impl QuerySpec {
    fn with_root(root: QueryRoot) -> QuerySpec {
        QuerySpec {
            root,
            ops: Vec::new(),
            annotations: Vec::new(),
            limit: None,
            offset: 0,
        }
    }

    /// A spec rooted at a full scan of every primary object.
    pub fn scan() -> QuerySpec {
        QuerySpec::with_root(QueryRoot::Scan)
    }

    /// A spec rooted at a ranked keyword search.
    pub fn search(text: impl Into<String>) -> QuerySpec {
        QuerySpec::with_root(QueryRoot::Search {
            text: text.into(),
            top_k: DEFAULT_SEARCH_LIMIT,
        })
    }

    /// A spec rooted at a single accession lookup.
    pub fn accession(source: impl Into<String>, accession: impl Into<String>) -> QuerySpec {
        QuerySpec::with_root(QueryRoot::Accession {
            source: source.into(),
            accession: accession.into(),
        })
    }

    /// Keep only objects of one source (applies at this point of the chain).
    pub fn from_source(mut self, source: impl Into<String>) -> Self {
        self.ops.push(QueryOp::FromSource(source.into()));
        self
    }

    /// Keep only objects whose primary-relation row matches the filter.
    pub fn filter(mut self, filter: AttrFilter) -> Self {
        self.ops.push(QueryOp::Filter(filter));
        self
    }

    /// Replace the current object set with the objects reachable over
    /// discovered links within `depth` hops.
    pub fn follow_links(mut self, kind: Option<LinkKind>, depth: usize) -> Self {
        self.ops.push(QueryOp::FollowLinks { kind, depth });
        self
    }

    /// Attach the annotation rows of one secondary table to every fetched
    /// record (repeatable).
    pub fn join_annotation(mut self, table: impl Into<String>) -> Self {
        self.annotations.push(table.into());
        self
    }

    /// Keep at most `n` results (applied after all pipeline stages).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Skip the first `n` results (applied before the limit).
    pub fn offset(mut self, n: usize) -> Self {
        self.offset = n;
        self
    }

    /// For search-rooted specs: how many ranked hits seed the pipeline
    /// (default 50).
    pub fn search_limit(mut self, top_k: usize) -> Self {
        if let QueryRoot::Search { top_k: k, .. } = &mut self.root {
            *k = top_k;
        }
        self
    }

    /// A stable 64-bit fingerprint of the spec (FNV-1a over the canonical
    /// structural rendering, kind-prefixed so spec keys can never collide
    /// with the serving layer's other keys). Two specs fingerprint
    /// equal exactly when they compare equal.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_bytes(format!("query:{self:?}").as_bytes())
    }
}

/// A composable query over the warehouse's object population. Stages apply
/// in the order they are chained, so `search(..).follow_links(..)
/// .from_source(..)` reads exactly as it executes. Obtained from
/// [`Warehouse::scan`], [`Warehouse::search`], [`Warehouse::accession`], or
/// by binding an owned [`QuerySpec`] with [`Warehouse::query`].
#[derive(Debug, Clone)]
pub struct ObjectQuery<'w> {
    warehouse: &'w Warehouse,
    spec: QuerySpec,
}

impl<'w> ObjectQuery<'w> {
    /// The owned description of this query (cheap to clone; the cache key of
    /// the serving layer).
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Keep only objects of one source (applies at this point of the chain:
    /// before a `follow_links` it restricts the seeds, after it the reached
    /// objects).
    pub fn from_source(mut self, source: impl Into<String>) -> Self {
        self.spec = self.spec.from_source(source);
        self
    }

    /// Keep only objects whose primary-relation row matches the filter.
    pub fn filter(mut self, filter: AttrFilter) -> Self {
        self.spec = self.spec.filter(filter);
        self
    }

    /// Replace the current object set with the objects reachable over
    /// discovered links within `depth` hops (breadth-first, seeds excluded).
    /// `kind` restricts which links are followed; `None` follows every
    /// non-duplicate kind (pass `Some(LinkKind::Duplicate)` explicitly to
    /// traverse duplicate links).
    pub fn follow_links(mut self, kind: Option<LinkKind>, depth: usize) -> Self {
        self.spec = self.spec.follow_links(kind, depth);
        self
    }

    /// Attach the annotation rows of one secondary table to every fetched
    /// record (repeatable).
    pub fn join_annotation(mut self, table: impl Into<String>) -> Self {
        self.spec = self.spec.join_annotation(table);
        self
    }

    /// Keep at most `n` results (applied after all pipeline stages).
    pub fn limit(mut self, n: usize) -> Self {
        self.spec = self.spec.limit(n);
        self
    }

    /// Skip the first `n` results (applied before the limit).
    pub fn offset(mut self, n: usize) -> Self {
        self.spec = self.spec.offset(n);
        self
    }

    /// For search-rooted queries: how many ranked hits seed the pipeline
    /// (default 50).
    pub fn search_limit(mut self, top_k: usize) -> Self {
        self.spec = self.spec.search_limit(top_k);
        self
    }

    // -- execution ----------------------------------------------------------

    /// Resolve the pipeline to the ordered hit list (before offset/limit).
    fn resolve(&self, caches: &AccessCaches) -> AladinResult<Vec<(ObjectRef, RecordOrigin)>> {
        if let Some(hits) = self.try_relational_fast_path(caches) {
            return Ok(hits);
        }
        let aladin = &self.warehouse.aladin;
        let mut hits: Vec<(ObjectRef, RecordOrigin)> = match &self.spec.root {
            QueryRoot::Scan => {
                // A scan narrowed to one source by its first stage lists only
                // that source; the stage itself still runs below.
                let sources = match self.spec.ops.first() {
                    Some(QueryOp::FromSource(source)) => {
                        aladin.database(source)?;
                        vec![source.as_str()]
                    }
                    _ => aladin.source_names(),
                };
                let mut out = Vec::new();
                for source in sources {
                    for object in aladin.objects_of(source)? {
                        out.push((object, RecordOrigin::Scan));
                    }
                }
                out
            }
            QueryRoot::Search { text, top_k } => caches
                .search
                .search(text, *top_k)
                .into_iter()
                .map(|h| (h.object, RecordOrigin::Search { score: h.score }))
                .collect(),
            QueryRoot::Accession { source, accession } => {
                vec![(
                    self.warehouse.find_object(source, accession)?,
                    RecordOrigin::Lookup,
                )]
            }
        };

        for op in &self.spec.ops {
            match op {
                QueryOp::FromSource(source) => {
                    // Surface typos instead of silently returning nothing.
                    let _ = aladin.database(source)?;
                    hits.retain(|(o, _)| &o.source == source);
                }
                QueryOp::Filter(filter) => {
                    let mut kept = Vec::with_capacity(hits.len());
                    for (object, origin) in hits {
                        let attributes = attributes_for(aladin, caches, &object)?;
                        if filter.matches(&attributes) {
                            kept.push((object, origin));
                        }
                    }
                    hits = kept;
                }
                QueryOp::FollowLinks { kind, depth } => {
                    let seeds = hits.into_iter().map(|(object, _)| object);
                    hits = walk_links(&caches.adjacency, seeds, *depth, |k| match kind {
                        Some(wanted) => k == *wanted,
                        None => k != LinkKind::Duplicate,
                    });
                }
            }
        }
        Ok(hits)
    }

    /// Serve a scan-rooted, single-source, filter-only pipeline through the
    /// optimized relational executor instead of walking the whole object
    /// population. Requires an equality filter on the accession column: its
    /// value probes the catalog's cached hash index, which keys on *rendered*
    /// values — exactly the comparison [`AttrFilter::matches`] performs — and
    /// every filter is then re-evaluated against [`attributes_for`] precisely
    /// like the slow path, so the semantics (including duplicate-accession
    /// multiplicity and the rendered-string equality of `equals`) are
    /// identical, just reached in `O(matches)` instead of `O(table)`.
    /// Returns `None` (falling back to the in-memory reference path)
    /// whenever the pipeline is not of that shape or anything errors.
    fn try_relational_fast_path(
        &self,
        caches: &AccessCaches,
    ) -> Option<Vec<(ObjectRef, RecordOrigin)>> {
        if !matches!(self.spec.root, QueryRoot::Scan) {
            return None;
        }
        let mut source: Option<&str> = None;
        let mut filters: Vec<&AttrFilter> = Vec::new();
        for op in &self.spec.ops {
            match op {
                QueryOp::FromSource(s) => {
                    // Two different sources empty the result; let the slow
                    // path handle that (and unknown-source errors).
                    if source.is_some_and(|cur| cur != s) {
                        return None;
                    }
                    source = Some(s);
                }
                QueryOp::Filter(f) => filters.push(f),
                QueryOp::FollowLinks { .. } => return None,
            }
        }
        let source = source?;
        let aladin = &self.warehouse.aladin;
        let structure = aladin.metadata().structure(source)?;
        let [primary] = structure.primary_relations.as_slice() else {
            return None;
        };
        // The anchor: an accession point lookup the hash index can serve.
        let anchor = filters.iter().find(|f| {
            f.op == FilterOp::Equals && f.column.eq_ignore_ascii_case(&primary.accession_column)
        })?;
        let db = aladin.database(source).ok()?;
        let index = db
            .hash_index(&primary.table, &primary.accession_column)
            .ok()?;
        // One hit per matching row, like the slow path's per-row scan; all
        // rows under the key share one object (its accession is the rendered
        // value, i.e. the key), so the attributes and the filter verdict are
        // computed once.
        let matches = index.lookup(&anchor.value).len();
        if matches == 0 {
            return Some(Vec::new());
        }
        let object = ObjectRef::new(source, primary.table.clone(), anchor.value.clone());
        let attributes = attributes_for(aladin, caches, &object).ok()?;
        if !filters.iter().all(|f| f.matches(&attributes)) {
            return Some(Vec::new());
        }
        Some(vec![(object, RecordOrigin::Scan); matches])
    }

    fn page(&self, hits: &[(ObjectRef, RecordOrigin)]) -> std::ops::Range<usize> {
        let start = self.spec.offset.min(hits.len());
        let end = match self.spec.limit {
            Some(n) => start.saturating_add(n).min(hits.len()),
            None => hits.len(),
        };
        start..end
    }

    /// Execute and materialize every result.
    pub fn fetch(&self) -> AladinResult<Vec<ObjectRecord>> {
        let caches = self.warehouse.caches()?;
        let hits = self.resolve(caches)?;
        let range = self.page(&hits);
        materialize(
            &self.warehouse.aladin,
            caches,
            &hits[range],
            &self.spec.annotations,
        )
    }

    /// Execute and count the results (no materialization; offset/limit still
    /// apply).
    pub fn count(&self) -> AladinResult<usize> {
        let hits = self.resolve(self.warehouse.caches()?)?;
        Ok(self.page(&hits).len())
    }

    /// Execute and return a paginated cursor: the matching objects are pinned
    /// once, then materialized page by page as the cursor is consumed — the
    /// serving shape for heavy traffic, where a client walks pages without
    /// the warehouse re-running the query.
    pub fn cursor(&self, page_size: usize) -> AladinResult<ObjectCursor<'w>> {
        let caches = self.warehouse.caches()?;
        let hits = self.resolve(caches)?;
        let range = self.page(&hits);
        Ok(ObjectCursor {
            aladin: &self.warehouse.aladin,
            caches,
            hits: hits[range].to_vec(),
            annotations: self.spec.annotations.clone(),
            page_size: page_size.max(1),
            position: 0,
        })
    }

    /// Compile the query to a relstore [`LogicalPlan`] for inspection or
    /// repeated execution. Only the relational subset compiles: a scan or
    /// accession root confined to one source, attribute filters, at most one
    /// annotation join, offset and limit. Search roots and link traversals
    /// are not relational operators and are reported as
    /// [`AladinError::Discovery`] errors.
    pub fn plan(&self) -> AladinResult<LogicalPlan> {
        self.compile().map(|(_, plan)| plan)
    }

    /// The `EXPLAIN` view of this query: compile it ([`ObjectQuery::plan`]),
    /// run the plan through the rule-based optimizer against the query's
    /// source, and pretty-print the optimized plan. Point lookups show up as
    /// `IndexScan` nodes, pushed-down filters sit directly on their scans.
    /// When the static analyzer ([`ObjectQuery::analyze`]) reports
    /// diagnostics, they are appended as an `Analysis:` section.
    pub fn explain(&self) -> AladinResult<String> {
        let (source, plan) = self.compile()?;
        let db = self.warehouse.database(&source)?;
        let mut out = aladin_relstore::optimize::optimize(db, &plan).explain();
        let section = aladin_relstore::analyze::analyze(db, &plan).explain_section();
        if !section.is_empty() {
            out.push_str(&section);
        }
        Ok(out)
    }

    /// Statically analyze the compiled plan against the query's source:
    /// schema and type validation, predicate satisfiability, and plan lints,
    /// without running the query. Queries that do not compile to a relational
    /// plan (search roots, link traversals) report the same errors as
    /// [`ObjectQuery::plan`].
    pub fn analyze(&self) -> AladinResult<aladin_relstore::analyze::Analysis> {
        let (source, plan) = self.compile()?;
        let db = self.warehouse.database(&source)?;
        Ok(aladin_relstore::analyze::analyze(db, &plan))
    }

    /// Shared body of [`ObjectQuery::plan`] and [`ObjectQuery::explain`]:
    /// the single source the plan runs against, plus the compiled plan.
    fn compile(&self) -> AladinResult<(String, LogicalPlan)> {
        let aladin = &self.warehouse.aladin;

        // Determine the single source the plan runs against.
        let (source, accession) = match &self.spec.root {
            QueryRoot::Accession { source, accession } => (source.clone(), Some(accession.clone())),
            QueryRoot::Scan => {
                let from = self.spec.ops.iter().find_map(|op| match op {
                    QueryOp::FromSource(s) => Some(s.clone()),
                    _ => None,
                });
                match from {
                    Some(s) => (s, None),
                    None => {
                        return Err(AladinError::Discovery(
                            "plan() requires a single source: add .from_source(..) or start from an accession".into(),
                        ))
                    }
                }
            }
            QueryRoot::Search { .. } => return Err(AladinError::Discovery(
                "plan() cannot compile a search root: ranked search is not a relational operator"
                    .into(),
            )),
        };
        if self
            .spec
            .ops
            .iter()
            .any(|op| matches!(op, QueryOp::FollowLinks { .. }))
        {
            return Err(AladinError::Discovery(
                "plan() cannot compile follow_links: link traversal is not a relational operator"
                    .into(),
            ));
        }
        if self.spec.annotations.len() > 1 {
            return Err(AladinError::Discovery(
                "plan() supports at most one join_annotation table".into(),
            ));
        }

        let structure = aladin
            .metadata()
            .structure(&source)
            .ok_or_else(|| AladinError::UnknownSource(source.clone()))?;
        let primary = match structure.primary_relations.as_slice() {
            [one] => one,
            [] => {
                return Err(AladinError::Discovery(format!(
                    "source '{source}' has no primary relation to plan over"
                )))
            }
            _ => {
                return Err(AladinError::Discovery(format!(
                    "source '{source}' has several primary relations; plan() needs exactly one"
                )))
            }
        };

        let mut plan = match self.spec.annotations.first() {
            Some(table) => build_join_path_plan(aladin, &source, table)?,
            None => LogicalPlan::scan(primary.table.clone()),
        };
        let mut predicate: Option<Expr> = accession
            .map(|acc| Expr::col(primary.accession_column.clone()).eq(Expr::lit(Value::text(acc))));
        for op in &self.spec.ops {
            if let QueryOp::Filter(filter) = op {
                let e = filter.to_expr()?;
                predicate = Some(match predicate {
                    Some(p) => p.and(e),
                    None => e,
                });
            }
        }
        if let Some(predicate) = predicate {
            plan = plan.filter(predicate);
        }
        // Deterministic order so offset/limit paginate stably when the plan
        // is re-executed.
        plan = plan.sort(vec![SortKey {
            column: primary.accession_column.clone(),
            ascending: true,
        }]);
        if self.spec.offset > 0 {
            plan = plan.offset(self.spec.offset);
        }
        if let Some(limit) = self.spec.limit {
            plan = plan.limit(limit);
        }
        Ok((source, plan))
    }
}

/// Breadth-first over the adjacency from `seeds` up to `depth` hops,
/// following the links whose kind passes `follow`: every object is reached
/// once, seeds excluded, in discovery order (seed order, then hop distance,
/// then link score).
fn walk_links(
    adjacency: &LinkAdjacency,
    seeds: impl IntoIterator<Item = ObjectRef>,
    depth: usize,
    follow: impl Fn(LinkKind) -> bool,
) -> Vec<(ObjectRef, RecordOrigin)> {
    let mut seen: HashSet<ObjectRef> = HashSet::new();
    let mut queue: VecDeque<(ObjectRef, usize)> = VecDeque::new();
    for seed in seeds {
        seen.insert(seed.clone());
        queue.push_back((seed, 0));
    }
    let mut out = Vec::new();
    while let Some((current, d)) = queue.pop_front() {
        if d >= depth {
            continue;
        }
        for n in adjacency.neighbours(&current) {
            if !follow(n.kind) {
                continue;
            }
            if seen.insert(n.object.clone()) {
                out.push((
                    n.object.clone(),
                    RecordOrigin::Linked {
                        via: current.clone(),
                        kind: n.kind,
                        depth: d + 1,
                    },
                ));
                queue.push_back((n.object.clone(), d + 1));
            }
        }
    }
    out
}

/// Attributes of an object's primary row, via the cached row index when the
/// object names its primary relation exactly, resolved like a scan otherwise.
fn attributes_for(
    aladin: &Aladin,
    caches: &AccessCaches,
    object: &ObjectRef,
) -> AladinResult<Vec<(String, String)>> {
    if let Some(row) = caches.row_of(&object.source, &object.table, &object.accession) {
        let table = aladin.database(&object.source)?.table(&object.table)?;
        return Ok(row_values(table, row));
    }
    let primary = caches.primary_row(aladin, object)?;
    Ok(row_values(primary.table, primary.row))
}

/// Materialize records for a slice of resolved hits, annotation joins read
/// from the cached annotation index.
fn materialize(
    aladin: &Aladin,
    caches: &AccessCaches,
    hits: &[(ObjectRef, RecordOrigin)],
    annotations: &[String],
) -> AladinResult<Vec<ObjectRecord>> {
    let mut out = Vec::with_capacity(hits.len());
    for (object, origin) in hits {
        let attributes = attributes_for(aladin, caches, object)?;
        let mut annotation = Vec::new();
        for table in annotations {
            annotation.extend(caches.annotation(aladin, object, Some(table))?);
        }
        out.push(ObjectRecord {
            object: object.clone(),
            origin: origin.clone(),
            attributes,
            annotation,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/// A paginated cursor over the results of an [`ObjectQuery`]. The matching
/// objects are pinned when the cursor is created; iteration materializes one
/// page of [`ObjectRecord`]s at a time, so page boundaries are stable no
/// matter how the cursor is consumed.
pub struct ObjectCursor<'w> {
    aladin: &'w Aladin,
    caches: &'w AccessCaches,
    hits: Vec<(ObjectRef, RecordOrigin)>,
    annotations: Vec<String>,
    page_size: usize,
    position: usize,
}

impl ObjectCursor<'_> {
    /// Total number of results across all pages.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the cursor has no results at all.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }
}

impl Iterator for ObjectCursor<'_> {
    type Item = AladinResult<Vec<ObjectRecord>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.position >= self.hits.len() {
            return None;
        }
        let end = (self.position + self.page_size).min(self.hits.len());
        let slice = &self.hits[self.position..end];
        self.position = end;
        Some(materialize(
            self.aladin,
            self.caches,
            slice,
            &self.annotations,
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{AladinConfig, FaultInjection};
    use aladin_relstore::{ColumnDef, TableSchema};

    /// Two small sources: three proteins (P10001 and P10002 with one DR
    /// cross-reference row each) and three structures (1ABC, 2DEF, 3GHI).
    pub(crate) fn warehouse() -> Warehouse {
        Warehouse::from_aladin(pipeline())
    }

    /// The integrated pipeline behind [`warehouse`].
    fn pipeline() -> Aladin {
        let config = AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        };
        let mut aladin = Aladin::new(config);

        let mut protkb = Database::new("protkb");
        protkb
            .create_table(
                "protkb_entry",
                TableSchema::of(vec![
                    ColumnDef::int("entry_id"),
                    ColumnDef::text("ac"),
                    ColumnDef::text("de"),
                ]),
            )
            .unwrap();
        protkb
            .create_table(
                "protkb_dr",
                TableSchema::of(vec![
                    ColumnDef::int("dr_id"),
                    ColumnDef::int("entry_id"),
                    ColumnDef::text("value"),
                ]),
            )
            .unwrap();
        for (i, desc) in [
            "serine kinase enzyme",
            "sugar transporter protein",
            "ribosome assembly factor",
        ]
        .iter()
        .enumerate()
        {
            protkb
                .insert(
                    "protkb_entry",
                    vec![
                        Value::Int(i as i64 + 1),
                        Value::text(format!("P1000{}", i + 1)),
                        Value::text(*desc),
                    ],
                )
                .unwrap();
        }
        for (id, entry, v) in [(1, 1, "STRUCTDB; 1ABC"), (2, 2, "STRUCTDB; 2DEF")] {
            protkb
                .insert(
                    "protkb_dr",
                    vec![Value::Int(id), Value::Int(entry), Value::text(v)],
                )
                .unwrap();
        }
        aladin.add_database(protkb).unwrap();

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
            ("1ABC", "kinase structure"),
            ("2DEF", "transporter structure"),
            ("3GHI", "unrelated structure"),
        ] {
            structdb
                .insert("structures", vec![Value::text(acc), Value::text(title)])
                .unwrap();
        }
        aladin.add_database(structdb).unwrap();
        aladin
    }

    /// A third source of two ontology terms, one about kinases.
    fn ontodb() -> Database {
        let mut db = Database::new("ontodb");
        db.create_table(
            "terms",
            TableSchema::of(vec![ColumnDef::text("term_id"), ColumnDef::text("name")]),
        )
        .unwrap();
        db.insert(
            "terms",
            vec![Value::text("GO:1"), Value::text("kinase activity")],
        )
        .unwrap();
        db.insert("terms", vec![Value::text("GO:2"), Value::text("transport")])
            .unwrap();
        db
    }

    #[test]
    fn all_three_modes_are_reachable() {
        let w = warehouse();
        // Browse.
        let obj = w.find_object("protkb", "P10001").unwrap();
        let view = w.view(&obj).unwrap();
        assert!(view.attributes.iter().any(|(c, _)| c == "de"));
        assert!(!w.reachable(&obj, 1).unwrap().is_empty());
        // Search.
        let hits = w.search_hits("kinase", 10).unwrap();
        assert!(hits.iter().any(|h| h.object.accession == "P10001"));
        // Query.
        let table = w
            .sql(
                "protkb",
                "SELECT ac FROM protkb_entry ORDER BY ac LIMIT 1 OFFSET 1",
            )
            .unwrap();
        assert_eq!(table.cell(0, "ac").unwrap().render(), "P10002");
        let pairs = w.cross_source_objects("protkb", "structdb").unwrap();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn scan_root_lists_every_primary_object() {
        let w = warehouse();
        let all = w.scan().fetch().unwrap();
        assert_eq!(all.len(), 6); // 3 proteins + 3 structures
        assert!(all.iter().all(|r| r.origin == RecordOrigin::Scan));
        assert!(all.iter().all(|r| !r.attributes.is_empty()));
        assert_eq!(w.scan().from_source("structdb").count().unwrap(), 3);
    }

    #[test]
    fn filters_compose_with_scan() {
        let w = warehouse();
        let kinases = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("de", "kinase"))
            .fetch()
            .unwrap();
        assert_eq!(kinases.len(), 1);
        assert_eq!(kinases[0].object.accession, "P10001");

        let like = w
            .scan()
            .filter(AttrFilter::like("ac", "P1%"))
            .count()
            .unwrap();
        assert_eq!(like, 3);
        assert_eq!(
            w.scan()
                .filter(AttrFilter::equals("structure_id", "3GHI"))
                .count()
                .unwrap(),
            1
        );
        // Unknown sources are reported, not silently empty.
        assert!(w.scan().from_source("nope").fetch().is_err());
    }

    #[test]
    fn search_root_composes_with_follow_links() {
        let w = warehouse();
        let records = w
            .search("kinase")
            .from_source("protkb")
            .follow_links(Some(LinkKind::ExplicitCrossRef), 1)
            .fetch()
            .unwrap();
        assert!(!records.is_empty());
        assert_eq!(records[0].object.accession, "1ABC");
        match &records[0].origin {
            RecordOrigin::Linked { via, kind, depth } => {
                assert_eq!(via.accession, "P10001");
                assert_eq!(*kind, LinkKind::ExplicitCrossRef);
                assert_eq!(*depth, 1);
            }
            other => panic!("unexpected origin {other:?}"),
        }
    }

    #[test]
    fn accession_root_joins_annotation() {
        let w = warehouse();
        let records = w
            .accession("protkb", "P10001")
            .join_annotation("protkb_dr")
            .fetch()
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].origin, RecordOrigin::Lookup);
        assert_eq!(records[0].annotation.len(), 1);
        assert_eq!(records[0].annotation[0].table, "protkb_dr");
        assert_eq!(records[0].attr("de"), Some("serine kinase enzyme"));
        assert!(w.accession("protkb", "NOPE").fetch().is_err());
    }

    #[test]
    fn offset_limit_and_cursor_pages_agree_with_fetch() {
        let w = warehouse();
        let all = w.scan().fetch().unwrap();
        // The second input's `offset + limit` overflows usize: it pages like
        // an unbounded limit.
        for (offset, limit, expected) in [(2, 2, 2..4), (1, usize::MAX, 1..6)] {
            let page = w.scan().offset(offset).limit(limit);
            assert_eq!(page.fetch().unwrap().as_slice(), &all[expected.clone()]);
            assert_eq!(page.count().unwrap(), expected.len());
            assert_eq!(page.cursor(4).unwrap().len(), expected.len());
        }

        let mut cursor = w.scan().cursor(4).unwrap();
        assert_eq!(cursor.len(), 6);
        assert!(!cursor.is_empty());
        let first = cursor.next().unwrap().unwrap();
        let second = cursor.next().unwrap().unwrap();
        assert!(cursor.next().is_none());
        assert_eq!(first.len(), 4);
        assert_eq!(second.len(), 2);
        let paged: Vec<ObjectRecord> = first.into_iter().chain(second).collect();
        assert_eq!(paged, all);
    }

    #[test]
    fn fetch_and_compiled_plan_agree_on_filter_semantics() {
        let w = warehouse();
        let db = w.database("protkb").unwrap();

        // LIKE and contains are case-insensitive on both paths.
        for filter in [
            AttrFilter::like("de", "%KINASE%"),
            AttrFilter::contains("de", "KiNaSe"),
        ] {
            let query = w.scan().from_source("protkb").filter(filter);
            let fetched = query.fetch().unwrap();
            assert_eq!(fetched.len(), 1, "in-memory path");
            let compiled = aladin_relstore::exec::execute(db, &query.plan().unwrap()).unwrap();
            assert_eq!(compiled.row_count(), 1, "compiled path");
        }

        // equals against an integer column: the literal is inferred, so the
        // compiled comparison hits the Int value just like the rendered
        // comparison does in memory.
        let query = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("entry_id", "1"));
        assert_eq!(query.fetch().unwrap().len(), 1);
        let compiled = aladin_relstore::exec::execute(db, &query.plan().unwrap()).unwrap();
        assert_eq!(compiled.row_count(), 1);

        // A contains value holding LIKE wildcards cannot compile faithfully.
        let err = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("de", "100%"))
            .plan()
            .unwrap_err();
        assert!(err.to_string().contains("wildcards"), "{err}");
    }

    #[test]
    fn find_object_errors_name_the_missing_source_or_object() {
        let mut aladin = pipeline();
        let mut numbers = Database::new("numbers");
        numbers
            .create_table(
                "pairs",
                TableSchema::of(vec![ColumnDef::int("a"), ColumnDef::int("b")]),
            )
            .unwrap();
        numbers
            .insert("pairs", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        aladin.add_database(numbers).unwrap();
        let w = Warehouse::from_aladin(aladin);
        let structure = w.metadata().structure("numbers").unwrap();
        assert!(structure.primary_relations.is_empty());

        let error = |source: &str, accession: &str| {
            w.find_object(source, accession).unwrap_err().to_string()
        };
        assert_eq!(error("missing", "P10001"), "unknown source: missing");
        assert_eq!(error("numbers", "1"), "unknown object: numbers:1");
        assert_eq!(error("protkb", "NOPE99"), "unknown object: protkb:NOPE99");
    }

    #[test]
    fn find_object_prefers_primary_relation_order() {
        let w = warehouse();
        // Every lookup resolves to the declared primary table, repeatably.
        for _ in 0..10 {
            let o = w.find_object("protkb", "P10001").unwrap();
            assert_eq!(o.table, "protkb_entry");
        }
    }

    #[test]
    fn plan_compiles_the_relational_subset() {
        let w = warehouse();
        let plan = w
            .scan()
            .from_source("structdb")
            .filter(AttrFilter::like("title", "%structure%"))
            .offset(1)
            .limit(1)
            .plan()
            .unwrap();
        // The compiled plan executes against the source and paginates.
        let table = aladin_relstore::exec::execute(w.database("structdb").unwrap(), &plan).unwrap();
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.cell(0, "structure_id").unwrap().render(), "2DEF");

        // Accession roots compile to an accession filter.
        let plan = w.accession("structdb", "3GHI").plan().unwrap();
        let table = aladin_relstore::exec::execute(w.database("structdb").unwrap(), &plan).unwrap();
        assert_eq!(table.row_count(), 1);

        // Non-relational shapes are reported.
        assert!(w.search("kinase").plan().is_err());
        assert!(w.scan().plan().is_err()); // no single source
        assert!(w
            .scan()
            .from_source("protkb")
            .follow_links(None, 1)
            .plan()
            .is_err());
    }

    #[test]
    fn explain_snapshots_show_index_scans_and_pushdown() {
        let w = warehouse();

        // Accession point lookup compiles to a bare IndexScan under the
        // stable pagination sort.
        let explained = w.accession("protkb", "P10001").explain().unwrap();
        assert_eq!(
            explained,
            "Sort ac ASC\n  IndexScan protkb_entry.ac = 'P10001'\n"
        );

        // Filter + limit: the equality filter reaches the scan as an
        // IndexScan and the limit fuses with the pagination sort.
        let explained = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("ac", "P10002"))
            .limit(1)
            .explain()
            .unwrap();
        assert_eq!(
            explained,
            "Limit 1\n  Sort ac ASC\n    IndexScan protkb_entry.ac = 'P10002'\n"
        );

        // A non-equality filter stays a pushed-down predicate over the scan.
        let explained = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::like("de", "%kinase%"))
            .limit(2)
            .explain()
            .unwrap();
        assert_eq!(
            explained,
            "Limit 2\n  Sort ac ASC\n    Filter (de LIKE '%kinase%')\n      Scan protkb_entry\n"
        );

        // Non-relational shapes are reported, like plan().
        assert!(w.search("kinase").explain().is_err());
    }

    #[test]
    fn object_queries_are_statically_analyzed() {
        let w = warehouse();

        // Every relational query shape above analyzes clean: the analyzer
        // must not second-guess valid plans.
        assert!(w
            .accession("protkb", "P10001")
            .analyze()
            .unwrap()
            .is_clean());
        assert!(w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("ac", "P10002"))
            .limit(1)
            .analyze()
            .unwrap()
            .is_clean());

        // A filter on an unknown attribute is an error diagnostic with a
        // suggestion, and the same diagnostics surface in explain().
        let bad = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("acc", "P"));
        let analysis = bad.analyze().unwrap();
        assert!(analysis.has_errors());
        let rendered = analysis.render();
        assert!(rendered.contains("error[E102]"), "{rendered}");
        assert!(rendered.contains("did you mean 'ac'?"), "{rendered}");
        let explained = bad.explain().unwrap();
        assert!(explained.contains("Analysis:"), "{explained}");
        assert!(explained.contains("error[E102]"), "{explained}");

        // Non-relational shapes are reported, like plan().
        assert!(w.search("kinase").analyze().is_err());
    }

    #[test]
    fn relational_fast_path_agrees_with_reference_semantics() {
        let w = warehouse();

        // Equality on the accession column: served via IndexScan.
        let fast = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("ac", "P10001"))
            .fetch()
            .unwrap();
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].object.accession, "P10001");
        assert_eq!(fast[0].origin, RecordOrigin::Scan);
        assert!(fast[0].attr("de").unwrap().contains("kinase"));

        // Generic filters and counts agree with the in-memory path's
        // documented semantics.
        assert_eq!(
            w.scan()
                .from_source("protkb")
                .filter(AttrFilter::contains("de", "KiNaSe"))
                .count()
                .unwrap(),
            1
        );
        // Unknown filter columns match nothing (not an error).
        assert_eq!(
            w.scan()
                .from_source("protkb")
                .filter(AttrFilter::equals("no_such_column", "x"))
                .count()
                .unwrap(),
            0
        );

        // Cursors over an index-eligible query paginate normally.
        let mut cursor = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("ac", "P10003"))
            .cursor(10)
            .unwrap();
        assert_eq!(cursor.len(), 1);
        let page = cursor.next().unwrap().unwrap();
        assert_eq!(page[0].object.accession, "P10003");

        // Filters staged around from_source behave identically.
        assert_eq!(
            w.scan()
                .filter(AttrFilter::like("ac", "P1%"))
                .from_source("protkb")
                .count()
                .unwrap(),
            3
        );

        // The index anchor keeps the reference path's exact rendered-string
        // equality: case-sensitive, no trimming, no numeric normalization.
        for miss in ["p10001", " P10001", "P10001 "] {
            assert_eq!(
                w.scan()
                    .from_source("protkb")
                    .filter(AttrFilter::equals("ac", miss))
                    .count()
                    .unwrap(),
                0,
                "'{miss}' must not match 'P10001'"
            );
        }

        // An anchor combined with a failing secondary filter yields nothing;
        // with a passing one, the single object.
        let anchored = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::equals("ac", "P10001"));
        assert_eq!(
            anchored
                .clone()
                .filter(AttrFilter::equals("de", "nope"))
                .count()
                .unwrap(),
            0
        );
        assert_eq!(
            anchored
                .filter(AttrFilter::contains("de", "kinase"))
                .count()
                .unwrap(),
            1
        );
    }

    #[test]
    fn query_specs_are_owned_reusable_and_fingerprinted() {
        let w = warehouse();

        // A spec built without a warehouse executes identically to the
        // equivalently chained query.
        let spec = QuerySpec::scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("de", "kinase"))
            .limit(5);
        let via_spec = w.query(spec.clone()).fetch().unwrap();
        let chained = w
            .scan()
            .from_source("protkb")
            .filter(AttrFilter::contains("de", "kinase"))
            .limit(5);
        assert_eq!(chained.spec(), &spec);
        assert_eq!(via_spec, chained.fetch().unwrap());

        // Fingerprints are stable, equality-faithful, and sensitive to every
        // component of the spec.
        assert_eq!(spec.fingerprint(), spec.clone().fingerprint());
        for other in [
            QuerySpec::scan()
                .from_source("protkb")
                .filter(AttrFilter::contains("de", "kinase")), // no limit
            spec.clone().offset(1),
            spec.clone().join_annotation("protkb_dr"),
            QuerySpec::search("kinase"),
            QuerySpec::search("kinase").search_limit(10),
            QuerySpec::accession("protkb", "P10001"),
        ] {
            assert_ne!(spec.fingerprint(), other.fingerprint(), "{other:?}");
        }
        // Op order matters (stages apply in chain order).
        let a = QuerySpec::scan()
            .from_source("protkb")
            .follow_links(None, 1);
        let b = QuerySpec::scan()
            .follow_links(None, 1)
            .from_source("protkb");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Run `f`, which must panic with a formatted message, and return it.
    fn panic_message<T>(f: impl FnOnce() -> T) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .expect("the call must panic");
        *payload
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    #[test]
    fn poisoned_mid_construction_cache_is_discarded_and_rebuilt() {
        let mut aladin = pipeline();
        aladin.add_database(ontodb()).unwrap();
        aladin.set_faults(FaultInjection {
            panic_cache_build: vec!["protkb".into()],
            ..Default::default()
        });
        let w = Warehouse::from_aladin(aladin);

        // The armed build panics on first use. The second access panics with
        // the same message: the build ran again instead of serving a
        // half-built cell.
        let first = panic_message(|| w.search_hits("kinase", 5));
        assert!(
            first.contains("cache build panics on source 'protkb'"),
            "{first}"
        );
        assert_eq!(panic_message(|| w.scan().count()), first);

        // Disarmed, the same pipeline serves every access mode, including
        // the source added before the fault was armed.
        let mut aladin = w.into_aladin();
        aladin.set_faults(FaultInjection::default());
        let w = Warehouse::from_aladin(aladin);
        let hits = w.search_hits("kinase", 10).unwrap();
        assert!(hits.iter().any(|h| h.object.source == "ontodb"));
        assert!(hits.iter().any(|h| h.object.accession == "P10001"));
        assert_eq!(w.scan().from_source("ontodb").count().unwrap(), 2);
        let obj = w.find_object("protkb", "P10001").unwrap();
        assert!(!w.view(&obj).unwrap().attributes.is_empty());
        assert!(!w.reachable(&obj, 1).unwrap().is_empty());
    }

    #[test]
    fn caches_rebuild_only_when_generation_moves() {
        // A warehouse over generation N keeps answering as N after its
        // pipeline moves on; only a new warehouse sees the added source.
        let mut aladin = pipeline();
        let held = Warehouse::from_aladin(aladin.clone());
        held.warm().unwrap();
        let g = held.metadata().generation();
        aladin.add_database(ontodb()).unwrap();
        assert!(aladin.metadata().generation() > g);

        assert_eq!(held.metadata().generation(), g);
        assert_eq!(held.source_names(), vec!["protkb", "structdb"]);
        let hits = held.search_hits("kinase", 10).unwrap();
        assert!(hits.iter().all(|h| h.object.source != "ontodb"));
        assert_eq!(held.scan().count().unwrap(), 6);

        let fresh = Warehouse::from_aladin(aladin);
        let hits = fresh.search_hits("kinase", 10).unwrap();
        assert!(hits.iter().any(|h| h.object.source == "ontodb"));
        assert_eq!(fresh.scan().count().unwrap(), 8);
    }
}
