//! The data-access layer: one composable interface over browsing, searching
//! and querying the integrated warehouse (paper, Section 4.6).
//!
//! # The [`Warehouse`] facade
//!
//! All read access goes through [`Warehouse`], a read-only view of one
//! integrated pipeline that builds its caches (search index, link-adjacency
//! map, accession row indexes, annotation indexes) once, on first use. Integrate through
//! [`crate::pipeline::Aladin`], then wrap it with
//! [`Warehouse::from_aladin`]. The paper's three access modes map onto it
//! directly:
//!
//! * **Browsing** — [`Warehouse::find_object`], [`Warehouse::view`] (the four
//!   neighbour kinds of Section 4.6) and [`Warehouse::reachable`].
//! * **Search** — [`Warehouse::search_hits`] and its source/field-partition
//!   variants, ranked by the `aladin-textmine` inverted index.
//! * **Querying** — [`Warehouse::sql`] over the imported schemata,
//!   [`Warehouse::join_path`] along discovered paths, and
//!   [`Warehouse::cross_source_objects`] following discovered links.
//!
//! # Composable queries
//!
//! The modes compose through [`ObjectQuery`]: seed from a scan
//! ([`Warehouse::scan`]), a keyword search ([`Warehouse::search`]) or an
//! accession lookup ([`Warehouse::accession`]), then chain filters, link
//! traversals and annotation joins, and terminate with a materialized fetch,
//! a paginated [`ObjectCursor`], or a compiled relstore plan:
//!
//! ```no_run
//! # use aladin_core::access::{AttrFilter, Warehouse};
//! # use aladin_core::metadata::LinkKind;
//! # use aladin_core::pipeline::Aladin;
//! # let warehouse = Warehouse::from_aladin(Aladin::with_defaults());
//! let pages = warehouse
//!     .search("serine kinase")                       // ranked seeds
//!     .follow_links(Some(LinkKind::ExplicitCrossRef), 1)
//!     .from_source("structdb")                       // keep linked structures
//!     .filter(AttrFilter::contains("title", "kinase"))
//!     .join_annotation("chains")
//!     .cursor(25)?;                                  // stream in pages of 25
//! # for page in pages { page?; }
//! # Ok::<(), aladin_core::AladinError>(())
//! ```
//!
//! The `browse`, `search` and `query` modules hold the routines the facade
//! runs for each mode, plus the result types it returns ([`ObjectView`],
//! [`ObjectHit`]) and the [`SearchIndex`] it caches.

pub mod browse;
pub(crate) mod query;
pub mod search;
pub mod warehouse;

pub use browse::{AnnotationRow, ObjectView};
pub use search::{ObjectHit, SearchIndex};
pub use warehouse::{
    AttrFilter, ObjectCursor, ObjectQuery, ObjectRecord, QuerySpec, RecordOrigin, Warehouse,
};
