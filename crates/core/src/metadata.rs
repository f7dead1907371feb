//! The central metadata repository.
//!
//! "The process of discovering new structures and links produces much metadata
//! that is stored in a central repository \[which\] contains not only known and
//! discovered schemata, but also information about primary and secondary
//! relations, statistical metadata, and sample data to improve discovery
//! efficiency. Finally, a large part of storage space will be consumed by the
//! discovered links on the object level." (paper, Section 3)

use aladin_relstore::stats::ColumnStats;
use aladin_schema_match::ind::InclusionDependency;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

/// A reference to a primary object in the warehouse.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef {
    /// Data source (database) name.
    pub source: String,
    /// Table holding the object (a primary relation).
    pub table: String,
    /// Accession (public identifier) of the object.
    pub accession: String,
}

impl ObjectRef {
    /// Convenience constructor.
    pub fn new(
        source: impl Into<String>,
        table: impl Into<String>,
        accession: impl Into<String>,
    ) -> ObjectRef {
        ObjectRef {
            source: source.into(),
            table: table.into(),
            accession: accession.into(),
        }
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.source, self.accession)
    }
}

/// The kind of a discovered object-level link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkKind {
    /// An explicit cross-reference found in the data.
    ExplicitCrossRef,
    /// An implicit link based on sequence homology.
    SequenceSimilarity,
    /// An implicit link based on text similarity of annotation fields.
    TextSimilarity,
    /// An implicit link based on a shared controlled-vocabulary term.
    SharedTerm,
    /// A duplicate link: the two objects describe the same real-world object.
    Duplicate,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::ExplicitCrossRef => "explicit",
            LinkKind::SequenceSimilarity => "sequence",
            LinkKind::TextSimilarity => "text",
            LinkKind::SharedTerm => "shared-term",
            LinkKind::Duplicate => "duplicate",
        };
        f.write_str(s)
    }
}

/// A discovered object-level link between two primary objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The referencing / first object.
    pub from: ObjectRef,
    /// The referenced / second object.
    pub to: ObjectRef,
    /// How the link was discovered.
    pub kind: LinkKind,
    /// Confidence score in `[0, 1]` (1.0 for exact explicit references).
    pub score: f64,
    /// Human-readable evidence (matched value, alignment identity, ...).
    pub evidence: String,
}

/// A detected primary relation of a source.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimaryRelation {
    /// Table name.
    pub table: String,
    /// The accession-number column.
    pub accession_column: String,
    /// In-degree of the table in the relationship graph (the quantity the
    /// selection heuristic maximizes).
    pub in_degree: usize,
}

/// A secondary relation: annotation of primary objects, reachable via a path
/// of relationships.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondaryRelation {
    /// Table name.
    pub table: String,
    /// The primary relation this table annotates.
    pub primary_table: String,
    /// Path of table names from the primary relation to this table
    /// (inclusive on both ends).
    pub path: Vec<String>,
}

/// A detected unique attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueColumn {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Whether uniqueness was declared in the data dictionary (vs. detected
    /// by scanning).
    pub declared: bool,
}

/// An accession-number candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessionCandidate {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Average value length (ties between candidates of the same table are
    /// broken in favour of the longer average).
    pub avg_length: f64,
}

/// Everything ALADIN has discovered about the internal structure of one
/// source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceStructure {
    /// Source name.
    pub source: String,
    /// Detected or declared unique attributes.
    pub unique_columns: Vec<UniqueColumn>,
    /// Accession-number candidates (at most one per table).
    pub accession_candidates: Vec<AccessionCandidate>,
    /// Declared and guessed relationships (inclusion dependencies).
    pub relationships: Vec<InclusionDependency>,
    /// Selected primary relation(s).
    pub primary_relations: Vec<PrimaryRelation>,
    /// Secondary relations with their paths.
    pub secondary_relations: Vec<SecondaryRelation>,
    /// Column statistics (the reusable statistical metadata).
    pub column_stats: Vec<ColumnStats>,
}

impl SourceStructure {
    /// The statistics of one column, if profiled.
    pub fn stats(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.column_stats
            .iter()
            .find(|s| s.table.eq_ignore_ascii_case(table) && s.column.eq_ignore_ascii_case(column))
    }

    /// Whether the given table is one of the primary relations.
    pub fn is_primary(&self, table: &str) -> bool {
        self.primary_relations
            .iter()
            .any(|p| p.table.eq_ignore_ascii_case(table))
    }

    /// The secondary-relation record for a table, if any.
    pub fn secondary(&self, table: &str) -> Option<&SecondaryRelation> {
        self.secondary_relations
            .iter()
            .find(|s| s.table.eq_ignore_ascii_case(table))
    }
}

/// Wall-clock timing of one step of the integration process for one source,
/// optionally broken down to the pair of sources it compared.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTiming {
    /// Source the step ran for (the source being integrated).
    pub source: String,
    /// Step name ("import", "structure discovery", ...).
    pub step: String,
    /// For pairwise steps (link discovery, duplicate detection): the
    /// already-integrated source this measurement compared against. `None`
    /// for source-local steps and for per-source aggregates.
    pub pair: Option<String>,
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
    /// Number of output items produced (rows, relationships, links, ...).
    pub output_count: usize,
    /// Attribute or candidate pairs compared (the pruning/blocking metric;
    /// 0 where the step has no notion of compared pairs).
    pub pairs_compared: usize,
}

impl StepTiming {
    /// A source-local step timing (no pair).
    pub fn local(source: impl Into<String>, step: impl Into<String>, elapsed: Duration) -> Self {
        StepTiming {
            source: source.into(),
            step: step.into(),
            pair: None,
            elapsed,
            output_count: 0,
            pairs_compared: 0,
        }
    }

    /// The `(source, step, pair)` identity of this measurement, used by the
    /// determinism tests to compare runs without comparing wall-clock values.
    pub fn key(&self) -> (&str, &str, Option<&str>) {
        (&self.source, &self.step, self.pair.as_deref())
    }
}

/// A contained failure of one pairwise discovery job: the pair was skipped
/// (its links and duplicates were not produced) but the integration run went
/// on. Produced by panic isolation and fault injection in the pipeline and
/// kept in the repository so operators can see which pairs need a re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairFailure {
    /// The source that was being integrated.
    pub source: String,
    /// The already-integrated source the failed job compared against.
    pub pair: String,
    /// The pipeline step that failed ("link/duplicate discovery").
    pub step: String,
    /// The rendered error or panic message.
    pub error: String,
}

impl fmt::Display for PairFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: {} failed: {}",
            self.source, self.pair, self.step, self.error
        )
    }
}

/// A per-step, per-pair metrics report over the whole integration run — the
/// aggregate view of every recorded [`StepTiming`]. Built by
/// [`MetadataRepository::metrics`] and surfaced through `Aladin::metrics` /
/// `Warehouse::metrics`; the `exp_pipeline` experiment binary reads its
/// numbers and formats `BENCH_pipeline.json` by hand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Every recorded measurement, in recording order.
    pub timings: Vec<StepTiming>,
    /// Every contained pairwise-job failure, in recording order.
    pub failures: Vec<PairFailure>,
}

impl PipelineMetrics {
    /// Total elapsed time across all measurements.
    pub fn total_elapsed(&self) -> Duration {
        self.timings.iter().map(|t| t.elapsed).sum()
    }

    /// Total elapsed time of one step across all sources and pairs.
    pub fn step_elapsed(&self, step: &str) -> Duration {
        self.timings
            .iter()
            .filter(|t| t.step == step)
            .map(|t| t.elapsed)
            .sum()
    }

    /// Total elapsed time spent integrating one source (all its steps).
    pub fn source_elapsed(&self, source: &str) -> Duration {
        self.timings
            .iter()
            .filter(|t| t.source == source)
            .map(|t| t.elapsed)
            .sum()
    }

    /// Distinct step names, in first-recorded order.
    pub fn step_names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.timings {
            if !out.contains(&t.step.as_str()) {
                out.push(&t.step);
            }
        }
        out
    }

    /// The pairwise measurements (those carrying a pair), for one step.
    pub fn pair_timings<'a>(&'a self, step: &'a str) -> impl Iterator<Item = &'a StepTiming> + 'a {
        self.timings
            .iter()
            .filter(move |t| t.step == step && t.pair.is_some())
    }

    /// Total attribute/candidate pairs compared across all measurements.
    pub fn total_pairs_compared(&self) -> usize {
        self.timings.iter().map(|t| t.pairs_compared).sum()
    }
}

/// One end of a link as seen from a given object: the object on the other
/// side, how the link was discovered, and its confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbour {
    /// The object on the other side of the link.
    pub object: ObjectRef,
    /// How the link was discovered.
    pub kind: LinkKind,
    /// Confidence score of the link.
    pub score: f64,
}

/// A prebuilt adjacency map over every stored link (including duplicates),
/// indexed by object. Building it once is `O(links)`; afterwards every
/// neighbourhood lookup is `O(1)` instead of a scan over the whole link set —
/// each [`crate::access::Warehouse`] builds one, once, and answers every
/// neighbourhood from it.
#[derive(Debug, Clone, Default)]
pub struct LinkAdjacency {
    map: HashMap<ObjectRef, Vec<Neighbour>>,
}

impl LinkAdjacency {
    /// Neighbours of an object, best (highest-scoring) first; empty when the
    /// object has no links.
    pub fn neighbours(&self, object: &ObjectRef) -> &[Neighbour] {
        self.map.get(object).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The metadata repository.
#[derive(Debug, Clone, Default)]
pub struct MetadataRepository {
    structures: BTreeMap<String, SourceStructure>,
    links: Vec<Link>,
    duplicates: Vec<Link>,
    timings: Vec<StepTiming>,
    failures: Vec<PairFailure>,
    /// Monotone counter bumped by every structural mutation; it names the
    /// warehouse versions the serving layer publishes.
    generation: u64,
}

impl MetadataRepository {
    /// Create an empty repository.
    pub fn new() -> MetadataRepository {
        MetadataRepository::default()
    }

    /// The current generation: bumped by every structural mutation. The
    /// serving layer keys its published snapshots and cached results on it,
    /// so no result outlives the version it was computed on.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fast-forward the generation counter to at least `generation`, never
    /// backwards. Used by cold-start recovery: a restarted server re-derives
    /// its metadata from recovered sources, which resets the counter, but
    /// published generation markers on disk must stay monotone across the
    /// restart.
    pub fn fast_forward_generation(&mut self, generation: u64) {
        self.generation = self.generation.max(generation);
    }

    /// Register (or replace) the structure of a source.
    pub fn put_structure(&mut self, structure: SourceStructure) {
        self.generation += 1;
        self.structures.insert(structure.source.clone(), structure);
    }

    /// The structure of a source, if registered.
    pub fn structure(&self, source: &str) -> Option<&SourceStructure> {
        self.structures.get(source)
    }

    /// All registered structures in source-name order.
    pub fn structures(&self) -> impl Iterator<Item = &SourceStructure> {
        self.structures.values()
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.structures.len()
    }

    /// Remove a source's structure, its links and its duplicates (used on
    /// refresh).
    pub fn remove_source(&mut self, source: &str) {
        self.generation += 1;
        self.structures.remove(source);
        self.links
            .retain(|l| l.from.source != source && l.to.source != source);
        self.duplicates
            .retain(|l| l.from.source != source && l.to.source != source);
        // Pairwise measurements referencing the removed source describe
        // discoveries that were just purged; keeping them would double-count
        // the pair once the source is re-added.
        self.timings
            .retain(|t| t.source != source && t.pair.as_deref() != Some(source));
        self.failures
            .retain(|f| f.source != source && f.pair != source);
    }

    /// Store discovered object-level links.
    pub fn add_links(&mut self, links: impl IntoIterator<Item = Link>) {
        self.generation += 1;
        self.links.extend(links);
    }

    /// Store discovered duplicate links.
    pub fn add_duplicates(&mut self, duplicates: impl IntoIterator<Item = Link>) {
        self.generation += 1;
        self.duplicates.extend(duplicates);
    }

    /// All stored links (excluding duplicates).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All stored duplicate links.
    pub fn duplicates(&self) -> &[Link] {
        &self.duplicates
    }

    /// Build the adjacency map over every stored link and duplicate, in both
    /// directions. Each object's neighbour list is sorted by descending score
    /// (ties broken by neighbour identity, then kind) so traversal order is
    /// deterministic and best links come first.
    pub fn build_adjacency(&self) -> LinkAdjacency {
        let mut map: HashMap<ObjectRef, Vec<Neighbour>> = HashMap::new();
        for link in self.links.iter().chain(self.duplicates.iter()) {
            map.entry(link.from.clone()).or_default().push(Neighbour {
                object: link.to.clone(),
                kind: link.kind,
                score: link.score,
            });
            map.entry(link.to.clone()).or_default().push(Neighbour {
                object: link.from.clone(),
                kind: link.kind,
                score: link.score,
            });
        }
        for neighbours in map.values_mut() {
            neighbours.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.object.cmp(&b.object))
                    .then_with(|| a.kind.cmp(&b.kind))
            });
        }
        LinkAdjacency { map }
    }

    /// Record a step timing.
    pub fn add_timing(&mut self, timing: StepTiming) {
        self.timings.push(timing);
    }

    /// All recorded timings.
    pub fn timings(&self) -> &[StepTiming] {
        &self.timings
    }

    /// Record a contained pairwise-job failure.
    pub fn add_failure(&mut self, failure: PairFailure) {
        self.failures.push(failure);
    }

    /// All contained pairwise-job failures.
    pub fn failures(&self) -> &[PairFailure] {
        &self.failures
    }

    /// The per-step, per-pair metrics report over every recorded timing.
    pub fn metrics(&self) -> PipelineMetrics {
        PipelineMetrics {
            timings: self.timings.clone(),
            failures: self.failures.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(from_acc: &str, to_acc: &str, kind: LinkKind) -> Link {
        Link {
            from: ObjectRef::new("protkb", "protkb_entry", from_acc),
            to: ObjectRef::new("structdb", "structures", to_acc),
            kind,
            score: 1.0,
            evidence: "test".into(),
        }
    }

    #[test]
    fn object_ref_display() {
        let o = ObjectRef::new("protkb", "protkb_entry", "P10000");
        assert_eq!(o.to_string(), "protkb:P10000");
    }

    #[test]
    fn repository_stores_and_filters() {
        let mut repo = MetadataRepository::new();
        repo.put_structure(SourceStructure {
            source: "protkb".into(),
            ..Default::default()
        });
        repo.put_structure(SourceStructure {
            source: "structdb".into(),
            ..Default::default()
        });
        assert_eq!(repo.source_count(), 2);
        assert!(repo.structure("protkb").is_some());
        assert!(repo.structure("nope").is_none());

        repo.add_links(vec![link("P1", "1ABC", LinkKind::ExplicitCrossRef)]);
        repo.add_duplicates(vec![link("P1", "1ABC", LinkKind::Duplicate)]);
        assert_eq!(repo.links().len(), 1);
        assert_eq!(repo.duplicates().len(), 1);

        let adjacency = repo.build_adjacency();
        let obj = ObjectRef::new("protkb", "protkb_entry", "P1");
        assert_eq!(adjacency.neighbours(&obj).len(), 2);
        let other = ObjectRef::new("protkb", "protkb_entry", "P9");
        assert!(adjacency.neighbours(&other).is_empty());
    }

    #[test]
    fn removing_a_source_drops_its_links() {
        let mut repo = MetadataRepository::new();
        repo.put_structure(SourceStructure {
            source: "structdb".into(),
            ..Default::default()
        });
        repo.add_links(vec![link("P1", "1ABC", LinkKind::ExplicitCrossRef)]);
        repo.add_timing(StepTiming {
            source: "structdb".into(),
            step: "link discovery".into(),
            pair: Some("protkb".into()),
            elapsed: Duration::from_millis(5),
            output_count: 1,
            pairs_compared: 3,
        });
        // A pairwise measurement of another source *against* structdb: its
        // discoveries are purged with structdb, so the timing must go too.
        repo.add_timing(StepTiming {
            source: "protkb".into(),
            step: "duplicate detection".into(),
            pair: Some("structdb".into()),
            elapsed: Duration::from_millis(2),
            output_count: 0,
            pairs_compared: 1,
        });
        repo.add_timing(StepTiming::local(
            "protkb",
            "structure discovery",
            Duration::from_millis(1),
        ));
        repo.remove_source("structdb");
        assert!(repo.structure("structdb").is_none());
        assert!(repo.links().is_empty());
        // Only protkb's source-local measurement survives.
        assert_eq!(repo.timings().len(), 1);
        assert_eq!(
            repo.timings()[0].key(),
            ("protkb", "structure discovery", None)
        );
    }

    #[test]
    fn metrics_aggregate_per_step_and_per_pair() {
        let mut repo = MetadataRepository::new();
        repo.add_timing(StepTiming {
            output_count: 4,
            ..StepTiming::local("protkb", "structure discovery", Duration::from_millis(2))
        });
        repo.add_timing(StepTiming {
            source: "structdb".into(),
            step: "link discovery".into(),
            pair: Some("protkb".into()),
            elapsed: Duration::from_millis(7),
            output_count: 12,
            pairs_compared: 9,
        });
        repo.add_timing(StepTiming {
            source: "structdb".into(),
            step: "duplicate detection".into(),
            pair: Some("protkb".into()),
            elapsed: Duration::from_millis(1),
            output_count: 0,
            pairs_compared: 5,
        });

        let metrics = repo.metrics();
        assert_eq!(metrics.total_elapsed(), Duration::from_millis(10));
        assert_eq!(
            metrics.step_elapsed("link discovery"),
            Duration::from_millis(7)
        );
        assert_eq!(metrics.source_elapsed("structdb"), Duration::from_millis(8));
        assert_eq!(
            metrics.step_names(),
            vec![
                "structure discovery",
                "link discovery",
                "duplicate detection"
            ]
        );
        assert_eq!(metrics.pair_timings("link discovery").count(), 1);
        assert_eq!(metrics.pair_timings("structure discovery").count(), 0);
        assert_eq!(metrics.total_pairs_compared(), 14);
        assert_eq!(
            metrics.timings[1].key(),
            ("structdb", "link discovery", Some("protkb"))
        );
    }

    #[test]
    fn source_structure_lookups() {
        let s = SourceStructure {
            source: "protkb".into(),
            primary_relations: vec![PrimaryRelation {
                table: "protkb_entry".into(),
                accession_column: "ac".into(),
                in_degree: 3,
            }],
            secondary_relations: vec![SecondaryRelation {
                table: "protkb_kw".into(),
                primary_table: "protkb_entry".into(),
                path: vec!["protkb_entry".into(), "protkb_kw".into()],
            }],
            ..Default::default()
        };
        assert!(s.is_primary("PROTKB_ENTRY"));
        assert!(!s.is_primary("protkb_kw"));
        assert!(s.secondary("protkb_kw").is_some());
        assert!(s.stats("protkb_entry", "ac").is_none());
    }

    #[test]
    fn generation_tracks_every_mutation() {
        let mut repo = MetadataRepository::new();
        let g0 = repo.generation();
        repo.put_structure(SourceStructure {
            source: "protkb".into(),
            ..Default::default()
        });
        assert!(repo.generation() > g0);
        let g1 = repo.generation();
        repo.add_links(vec![link("P1", "1ABC", LinkKind::ExplicitCrossRef)]);
        assert!(repo.generation() > g1);
        let g2 = repo.generation();
        repo.add_duplicates(vec![link("P1", "1ABC", LinkKind::Duplicate)]);
        assert!(repo.generation() > g2);
        let g3 = repo.generation();
        repo.remove_source("protkb");
        assert!(repo.generation() > g3);
        // Read-only calls do not bump.
        let g4 = repo.generation();
        let _ = repo.links();
        let _ = repo.build_adjacency();
        assert_eq!(repo.generation(), g4);
    }

    #[test]
    fn adjacency_indexes_both_directions_and_sorts_by_score() {
        let mut repo = MetadataRepository::new();
        let mut weak = link("P1", "1ABC", LinkKind::SharedTerm);
        weak.score = 0.2;
        repo.add_links(vec![link("P1", "2DEF", LinkKind::ExplicitCrossRef), weak]);
        repo.add_duplicates(vec![link("P1", "1ABC", LinkKind::Duplicate)]);
        let adjacency = repo.build_adjacency();

        let p1 = ObjectRef::new("protkb", "protkb_entry", "P1");
        let neighbours = adjacency.neighbours(&p1);
        assert_eq!(neighbours.len(), 3);
        // Highest score first; the 0.2 shared-term link is last.
        assert_eq!(neighbours[2].kind, LinkKind::SharedTerm);
        assert!(neighbours[0].score >= neighbours[1].score);

        // The reverse direction exists too, and unknown objects are empty.
        let back = ObjectRef::new("structdb", "structures", "2DEF");
        assert_eq!(adjacency.neighbours(&back).len(), 1);
        assert_eq!(adjacency.neighbours(&back)[0].object, p1);
        let both = ObjectRef::new("structdb", "structures", "1ABC");
        assert_eq!(adjacency.neighbours(&both).len(), 2);
        let nobody = ObjectRef::new("protkb", "protkb_entry", "P9");
        assert!(adjacency.neighbours(&nobody).is_empty());
    }

    #[test]
    fn pair_failures_are_recorded_surfaced_and_purged_with_their_sources() {
        let mut repo = MetadataRepository::new();
        repo.add_failure(PairFailure {
            source: "structdb".into(),
            pair: "protkb".into(),
            step: "link/duplicate discovery".into(),
            error: "job panicked".into(),
        });
        repo.add_failure(PairFailure {
            source: "genedb".into(),
            pair: "ontodb".into(),
            step: "link/duplicate discovery".into(),
            error: "injected".into(),
        });
        assert_eq!(repo.failures().len(), 2);
        assert!(repo.failures()[0]
            .to_string()
            .contains("structdb vs protkb"));

        let metrics = repo.metrics();
        assert_eq!(metrics.failures.len(), 2);

        // Removing either side of a pair purges its failure record.
        repo.remove_source("protkb");
        assert_eq!(repo.failures().len(), 1);
        repo.remove_source("genedb");
        assert!(repo.failures().is_empty());
    }

    #[test]
    fn link_kind_display() {
        assert_eq!(LinkKind::ExplicitCrossRef.to_string(), "explicit");
        assert_eq!(LinkKind::Duplicate.to_string(), "duplicate");
        assert_eq!(LinkKind::SequenceSimilarity.to_string(), "sequence");
    }
}
