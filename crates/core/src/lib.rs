//! # retrozilla — semi-automated extraction of targeted data from Web pages
//!
//! A from-scratch Rust reproduction of the Retrozilla system
//! (Estiévenart, Meurisse, Hainaut, Thiran — *Semi-Automated Extraction
//! of Targeted Data from Web Pages*, IEEE ICDE 2006 Workshops).
//!
//! The pipeline (paper Figure 1):
//!
//! 1. **Clustering** — pages of a site are grouped into page clusters
//!    (`retroweb-cluster`);
//! 2. **Semantic analysis** — for each cluster, a working sample is
//!    analysed with a human (or [`oracle::SimulatedUser`]) in the loop to
//!    produce **mapping rules** ([`model::MappingRule`]): candidate rule
//!    building ([`candidate`]), rule checking ([`check`]), iterative
//!    refinement ([`refine`]) and recording ([`repository`]);
//! 3. **Extraction** — the rules drive an extraction processor
//!    ([`extract`]) producing an XML document plus an XML Schema, with
//!    optional a-posteriori aggregation into nested structures.
//!
//! Extensions the paper lists as future work, implemented here:
//! failure detection and semi-automated repair ([`maintain`]) and
//! sub-text-node post-processing ([`post`]).
//!
//! ## Rule execution: compile → cache → execute
//!
//! Rule application is the system-wide hot path — one rule set, many
//! thousands of pages — so every pipeline layer runs mapping rules
//! through the `retroweb-xpath` compiled IR rather than re-walking
//! XPath ASTs per page:
//!
//! - **compile** — [`MappingRule::compile`] lowers a rule's location
//!   alternatives to [`model::CompiledRule`];
//!   [`repository::ClusterRules::compile`] does a whole cluster
//!   ([`repository::CompiledCluster`]), deriving its XML Schema once;
//! - **cache** — [`store::ClusterStore::compiled`] builds each
//!   cluster's compiled form at most once, shares it as an `Arc`, and
//!   invalidates it when the cluster is re-recorded;
//! - **execute** — [`extract`] (sequential and parallel), [`check`]
//!   (`check_rule` / `check_rule_full`, hence the whole [`refine`] loop)
//!   and [`maintain`] (`detect_failures`, `repair_rules`) apply the
//!   compiled rules with one `retroweb_xpath::Executor` per page.
//!
//! ## One extraction surface: the sink driver
//!
//! Every cluster-level entry point takes a
//! [`repository::CompiledCluster`]; compiling is the caller's explicit
//! step. Extraction output flows through [`sink::ExtractionSink`]:
//! [`extract::extract_cluster_parallel_compiled_to`] is the one sink
//! driver, behind both served extract endpoints. It pushes one
//! [`sink::PageRecord`] per page as it completes, receiving worker
//! output round-robin from one bounded channel per worker (inline at
//! `threads = 1`), so any sink sees the deterministic sequential order
//! from O(threads) memory. [`extract::extract_cluster_html`] (the driver
//! on the calling thread) and [`extract::extract_cluster_compiled`]
//! (over parsed pages) collect into the classic
//! [`extract::ExtractionResult`]; [`extract::extract_page_compiled`] is
//! the page primitive. Shipped sinks: [`sink::XmlWriterSink`] (streamed
//! §4 XML, byte-identical to the materialised document),
//! [`sink::JsonLinesSink`] (NDJSON feed), [`sink::CollectSink`] (the
//! classic result) and [`sink::CountingSink`] (dry-run tallies).
//!
//! The tree-walking interpreter remains the single-page reference path
//! ([`MappingRule::select`] / [`MappingRule::extract_values`]), and the
//! differential test suites hold the two engines equal through the
//! oracles [`extract::extract_cluster_interpreted`] and
//! [`extract::extract_page_compiled_per_rule`], which stay off the
//! crate root.
//!
//! ```
//! use retrozilla::builder::{build_rule, ScenarioConfig};
//! use retrozilla::oracle::SimulatedUser;
//! use retrozilla::sample::sample_from_pages;
//! use retroweb_sitegen::paper::paper_working_sample;
//!
//! // The paper's worked example: the `runtime` component over the
//! // four-page imdb-movies working sample (Tables 1 and 3).
//! let sample = sample_from_pages(paper_working_sample());
//! let mut user = SimulatedUser::new();
//! let report = build_rule("runtime", &sample, &mut user, &ScenarioConfig::default()).unwrap();
//! assert!(report.ok);
//! assert!(!report.initial_table.all_correct()); // Table 1: wrong + void rows
//! assert!(report.final_table.all_correct());    // Table 3: all correct
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod candidate;
pub mod check;
pub mod extract;
pub mod lint;
pub mod maintain;
pub mod metrics;
pub mod model;
pub mod oracle;
pub mod post;
pub mod refine;
pub mod repository;
pub mod sample;
pub mod schema_guided;
pub mod sink;
pub mod store;
pub mod wal;

pub use builder::{build_rule, build_rules, ComponentReport, ScenarioConfig};
pub use check::{check_rule, classify, CheckRow, CheckTable, Outcome};
pub use extract::{
    extract_cluster_compiled, extract_cluster_html, extract_cluster_parallel_compiled_to,
    extract_page_compiled, ExtractionResult, FailureKind, RuleFailure,
};
pub use lint::{ClusterLint, RuleDiagnostic};
// The analyzer's stable diagnostic-code list and severity scale, so the
// service's per-code lint counters never drift from the linter itself.
pub use maintain::{detect_failures, repair_rules, RepairMethod, RepairReport};
pub use metrics::{page_counts, value_counts, Counts, Prf};
pub use model::{CompiledRule, ComponentName, Format, MappingRule, Multiplicity, Optionality};
pub use oracle::{Instance, InteractionStats, SimulatedUser, User};
pub use post::PostProcess;
pub use refine::{refine_rule, RefineConfig, RefineOutcome};
pub use repository::{
    ClusterRules, CompiledCluster, RepositoryError, RepositoryStats, StructureNode,
    XPathParseContext,
};
pub use retroweb_xpath::analyze::CODES as LINT_CODES;
pub use retroweb_xpath::Severity as LintSeverity;
pub use sample::{sample_from_pages, working_sample, SamplePage};
pub use schema_guided::{
    build_with_guide, Conformance, GuideComponent, GuidedComponentResult, SchemaGuide,
};
pub use sink::{
    ClusterHeader, CollectSink, CountingSink, ExtractionSink, ExtractionStats, JsonLinesSink,
    PageRecord, XmlWriterSink, OUTPUT_ENCODING,
};
pub use store::{shard_for, ClusterStore, RepositorySnapshot, ShardedRepository};
pub use wal::{
    layout_dir, read_layout, replay, DurableRepository, FsStep, Replay, ShardManifest, Wal, WalOp,
    WalStats,
};
