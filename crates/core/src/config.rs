//! Configuration of the ALADIN discovery heuristics that experiments ablate
//! or callers tune; a rule with one value in use is a private constant
//! beside the heuristic that applies it.

/// How primary relations are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimarySelection {
    /// Exactly one primary relation per source: the accession-carrying table
    /// with the highest in-degree (the paper's default heuristic).
    Single,
    /// Allow several primary relations: every accession-carrying table whose
    /// in-degree exceeds the average in-degree of the source (the EnsEmbl
    /// extension sketched in Section 4.2).
    Multiple,
}

/// Text-similarity measure used for duplicate scoring (ablated in E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicateMeasure {
    /// Normalized Levenshtein distance over concatenated annotation.
    EditDistance,
    /// Q-gram (trigram) similarity over concatenated annotation.
    QGram,
    /// TF-IDF cosine over concatenated annotation.
    TfIdf,
}

/// How duplicate candidate pairs are generated before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicateCandidates {
    /// Nearest neighbours in TF-IDF space: every object is compared against
    /// every document of both sources (quadratic in the number of objects).
    Exhaustive,
    /// Blocking / sorted-neighbourhood keys (accession prefix plus normalised
    /// name tokens): only objects sharing a candidate key or adjacent in the
    /// sorted key order are compared, which is near-linear in the matches.
    Blocked,
}

/// Pruning switches for link discovery (ablated in E5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruningConfig {
    /// Skip purely numeric attributes as link sources ("to avoid
    /// misinterpretation of surrogate keys").
    pub exclude_numeric: bool,
    /// Skip attributes with fewer distinct values than
    /// [`AladinConfig::min_distinct_values`] ("attributes with few distinct
    /// values should be excluded from being a link source").
    pub exclude_low_cardinality: bool,
    /// Only consider accession columns of primary relations as link targets
    /// (the paper's main pruning assumption).
    pub targets_primary_only: bool,
    /// Use pattern-profile statistics to skip attribute pairs whose value
    /// shapes are incompatible.
    pub use_statistics: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig {
            exclude_numeric: true,
            exclude_low_cardinality: true,
            targets_primary_only: true,
            use_statistics: true,
        }
    }
}

impl PruningConfig {
    /// Everything off: the exhaustive all-pairs comparison of Section 6.2.
    pub fn none() -> PruningConfig {
        PruningConfig {
            exclude_numeric: false,
            exclude_low_cardinality: false,
            targets_primary_only: false,
            use_statistics: false,
        }
    }
}

/// Error-handling policy of a batch integration
/// ([`crate::pipeline::Aladin::add_databases_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchErrorPolicy {
    /// The first failing source aborts the whole batch and the warehouse is
    /// left exactly as before the call (all-or-nothing).
    FailFast,
    /// A failing source is quarantined: the rest of the batch is integrated
    /// and the per-source outcomes are reported.
    ContinueOnError,
}

/// Deterministic fault injection for the integration pipeline, used by the
/// fault-tolerance test harness. All fields are plain data (source names and
/// source pairs), so the config stays comparable; an empty injection (the
/// default) is completely inert.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultInjection {
    /// Per-source analysis (steps 1–3) of these sources fails with a
    /// discovery error.
    pub fail_analysis: Vec<String>,
    /// Per-source analysis of these sources panics inside its job.
    pub panic_analysis: Vec<String>,
    /// Pairwise link/duplicate jobs over these (unordered) source pairs fail
    /// with a discovery error.
    pub fail_pairs: Vec<(String, String)>,
    /// Pairwise link/duplicate jobs over these (unordered) source pairs
    /// panic inside their job.
    pub panic_pairs: Vec<(String, String)>,
    /// Building the warehouse access caches panics while processing these
    /// sources, midway through the build. Exercises that a panicking build
    /// leaves a `Warehouse` without caches, so its next access builds again,
    /// and that the serving layer then publishes nothing.
    pub panic_cache_build: Vec<String>,
}

impl FaultInjection {
    /// True when `pairs` contains `(a, b)` in either order.
    pub fn pair_listed(pairs: &[(String, String)], a: &str, b: &str) -> bool {
        pairs
            .iter()
            .any(|(x, y)| (x == a && y == b) || (x == b && y == a))
    }
}

/// Configuration of the discovery heuristics, with the paper's thresholds as
/// defaults.
///
/// Fixed rules are not here: the accession candidate's coverage, non-digit
/// and whitespace tests (`accession`), the explicit-link match fraction
/// (`links::explicit`), the per-pair cap on implicit links
/// (`links::implicit`) and the refresh change threshold
/// ([`crate::pipeline::Aladin::refresh_source`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AladinConfig {
    // -- accession candidate detection (Section 4.2) --
    /// Minimum value length for an accession candidate (paper: 4, the PDB
    /// accession length).
    pub accession_min_length: usize,
    /// Maximum relative length spread of accession values (paper: 20 %).
    pub accession_max_length_spread: f64,
    /// Maximum value length for an accession candidate. The paper gives only a
    /// lower bound; the upper bound excludes sequence and free-text fields
    /// that would otherwise pass the uniqueness/length-spread tests. Ablated
    /// in experiment E3.
    pub accession_max_length: usize,

    // -- primary relation selection --
    /// Single vs. multiple primary relations.
    pub primary_selection: PrimarySelection,

    // -- link discovery --
    /// Pruning switches.
    pub pruning: PruningConfig,
    /// Minimum number of matching values for an attribute pair to be treated
    /// as a cross-reference attribute.
    pub link_min_matches: usize,
    /// Minimum distinct values for a link-source attribute (with
    /// `exclude_low_cardinality`).
    pub min_distinct_values: usize,
    /// Minimum normalized similarity for a sequence-homology link.
    pub sequence_link_threshold: f64,
    /// Minimum TF-IDF cosine for a text-similarity link.
    pub text_link_threshold: f64,
    /// Maximum number of objects annotated with a term for the term to be
    /// used for shared-term links (very common terms link everything).
    pub shared_term_max_objects: usize,

    // -- duplicate detection --
    /// Similarity threshold above which two objects are flagged duplicates.
    pub duplicate_threshold: f64,
    /// Text measure used in duplicate scoring.
    pub duplicate_measure: DuplicateMeasure,
    /// Number of nearest neighbours considered per object during duplicate
    /// candidate generation (the [`DuplicateCandidates::Exhaustive`] mode).
    pub duplicate_candidates: usize,
    /// How candidate pairs are generated before scoring.
    pub duplicate_candidate_mode: DuplicateCandidates,
    /// Maximum number of objects sharing one blocking key before the block is
    /// skipped as non-discriminative (mirrors `shared_term_max_objects`: a
    /// token carried by everything would otherwise re-create the quadratic
    /// all-vs-all comparison).
    pub duplicate_block_cap: usize,
    /// Sorted-neighbourhood window: every object is also compared against its
    /// neighbours within this distance in the normalised-text sort order
    /// (0 disables the window pass).
    pub duplicate_window: usize,

    // -- execution --
    /// Worker threads for per-source analysis (steps 1–3) and pairwise
    /// link/duplicate discovery (steps 4–5). `0` uses the machine's available
    /// parallelism; `1` runs fully sequentially. Results are identical for
    /// every worker count: pair outcomes are merged in a deterministic order
    /// (source name, then pair, then row).
    pub workers: usize,

    // -- fault tolerance --
    /// Error-handling policy of batch integrations; `FailFast` keeps the
    /// historical all-or-nothing behaviour.
    pub batch_policy: BatchErrorPolicy,
    /// Malformed records tolerated (and quarantined) per source during
    /// import; `0` fails the source on the first malformed record.
    pub import_error_budget: usize,
    /// Deterministic fault injection for tests and the fault harness; inert
    /// by default.
    pub faults: FaultInjection,

    // -- durability --
    /// Data directory for the durable warehouse. When set, the pipeline
    /// persists per-source snapshots, each source's discovered links and
    /// duplicates, and a pipeline event log there
    /// ([`crate::pipeline::Aladin::open`] recovers from it), and the serving
    /// layer publishes its generation marker there
    /// ([`crate::serve::Server::resume`]). `None` (the default) keeps the
    /// historical fully-in-memory behaviour.
    pub data_dir: Option<std::path::PathBuf>,
}

impl Default for AladinConfig {
    fn default() -> Self {
        AladinConfig {
            accession_min_length: 4,
            accession_max_length_spread: 0.2,
            accession_max_length: 32,
            primary_selection: PrimarySelection::Single,
            pruning: PruningConfig::default(),
            link_min_matches: 2,
            min_distinct_values: 3,
            sequence_link_threshold: 0.5,
            text_link_threshold: 0.35,
            shared_term_max_objects: 50,
            duplicate_threshold: 0.55,
            duplicate_measure: DuplicateMeasure::TfIdf,
            duplicate_candidates: 5,
            duplicate_candidate_mode: DuplicateCandidates::Blocked,
            duplicate_block_cap: 64,
            duplicate_window: 8,
            workers: 0,
            batch_policy: BatchErrorPolicy::FailFast,
            import_error_budget: 0,
            faults: FaultInjection::default(),
            data_dir: None,
        }
    }
}

impl AladinConfig {
    /// The default configuration with multi-primary detection enabled.
    pub fn with_multiple_primaries() -> AladinConfig {
        AladinConfig {
            primary_selection: PrimarySelection::Multiple,
            ..Default::default()
        }
    }

    /// The default configuration with the exhaustive (all-vs-all nearest
    /// neighbour) duplicate candidate generation, as used before blocking
    /// was introduced; kept for the bench comparison and regression tests.
    pub fn with_exhaustive_duplicates() -> AladinConfig {
        AladinConfig {
            duplicate_candidate_mode: DuplicateCandidates::Exhaustive,
            ..Default::default()
        }
    }

    /// This configuration with the given worker count.
    pub fn with_workers(mut self, workers: usize) -> AladinConfig {
        self.workers = workers;
        self
    }

    /// This configuration with the given batch error policy.
    pub fn with_batch_policy(mut self, policy: BatchErrorPolicy) -> AladinConfig {
        self.batch_policy = policy;
        self
    }

    /// This configuration with the given import error budget.
    pub fn with_import_error_budget(mut self, budget: usize) -> AladinConfig {
        self.import_error_budget = budget;
        self
    }

    /// This configuration with a data directory for durable persistence.
    pub fn with_data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> AladinConfig {
        self.data_dir = Some(dir.into());
        self
    }

    /// The import options implied by this configuration: its error budget,
    /// with [`aladin_import::RetryPolicy::default`] for fetched sources.
    pub fn import_options(&self) -> aladin_import::ImportOptions {
        aladin_import::ImportOptions::tolerant(self.import_error_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AladinConfig::default();
        assert_eq!(c.accession_min_length, 4);
        assert!((c.accession_max_length_spread - 0.2).abs() < 1e-9);
        assert_eq!(c.primary_selection, PrimarySelection::Single);
        assert!(c.pruning.exclude_numeric);
        assert!(c.pruning.targets_primary_only);
    }

    #[test]
    fn pruning_none_disables_everything() {
        let p = PruningConfig::none();
        assert!(!p.exclude_numeric);
        assert!(!p.exclude_low_cardinality);
        assert!(!p.targets_primary_only);
        assert!(!p.use_statistics);
    }

    #[test]
    fn multi_primary_preset() {
        assert_eq!(
            AladinConfig::with_multiple_primaries().primary_selection,
            PrimarySelection::Multiple
        );
    }

    #[test]
    fn duplicate_and_worker_presets() {
        let c = AladinConfig::default();
        assert_eq!(c.duplicate_candidate_mode, DuplicateCandidates::Blocked);
        assert_eq!(c.workers, 0);
        assert!(c.duplicate_block_cap > 0);
        assert_eq!(
            AladinConfig::with_exhaustive_duplicates().duplicate_candidate_mode,
            DuplicateCandidates::Exhaustive
        );
        assert_eq!(AladinConfig::default().with_workers(4).workers, 4);
    }

    #[test]
    fn fault_tolerance_defaults_are_strict_and_inert() {
        let c = AladinConfig::default();
        assert_eq!(c.batch_policy, BatchErrorPolicy::FailFast);
        assert_eq!(c.import_error_budget, 0);
        assert_eq!(c.faults, FaultInjection::default());
        let opts = c.import_options();
        assert_eq!(opts.error_budget, 0);
        assert_eq!(opts.retry.max_attempts, 3);

        let tolerant = c
            .with_batch_policy(BatchErrorPolicy::ContinueOnError)
            .with_import_error_budget(5);
        assert_eq!(tolerant.batch_policy, BatchErrorPolicy::ContinueOnError);
        assert_eq!(tolerant.import_options().error_budget, 5);
    }

    #[test]
    fn fault_injection_pair_matching_is_unordered() {
        let pairs = vec![("a".to_string(), "b".to_string())];
        assert!(FaultInjection::pair_listed(&pairs, "a", "b"));
        assert!(FaultInjection::pair_listed(&pairs, "b", "a"));
        assert!(!FaultInjection::pair_listed(&pairs, "a", "c"));
    }
}
