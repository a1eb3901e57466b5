//! The rule repository (§3.5).
//!
//! "Once the candidate rule has been validated … it is recorded in a rule
//! repository. This repository will be used by external agents, for
//! instance by the XML extractor." Per cluster it stores the validated
//! rules plus the optional *enhanced structure* (§4's a-posteriori
//! aggregation). This module holds what is recorded — [`ClusterRules`],
//! its compiled form [`CompiledCluster`] and its repository JSON shape;
//! the store itself is [`crate::store::ShardedRepository`], persisted
//! through [`crate::wal`].
//!
//! The store is also where rule **compilation** is cached: the
//! external agents of §3.5 apply a cluster's rules to thousands of
//! pages, so [`ClusterStore::compiled`](crate::store::ClusterStore::compiled)
//! lowers each rule's XPaths to the `retroweb-xpath` IR exactly once per
//! recorded rule set and every extraction entry point shares the `Arc`.
//! Re-recording a cluster invalidates its cached compilation.

use crate::lint::ClusterLint;
use crate::model::{CompiledRule, ComponentName, Format, MappingRule, Multiplicity, Optionality};
use crate::post::PostProcess;
use retroweb_json::Json;
use retroweb_xml::ClusterSchema;
use retroweb_xpath::FusedPlan;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// A node of the enhanced (aggregated) structure: either a leaf
/// component reference or a named group of nodes (§4: "the leaf
/// components comments and rating could be embedded into a higher level
/// component called users-opinion").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureNode {
    Component(String),
    Group { name: String, children: Vec<StructureNode> },
}

impl StructureNode {
    /// Names of all components referenced under this node.
    pub fn component_names(&self) -> Vec<String> {
        match self {
            StructureNode::Component(name) => vec![name.clone()],
            StructureNode::Group { children, .. } => {
                children.iter().flat_map(|c| c.component_names()).collect()
            }
        }
    }
}

/// Everything recorded for one page cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterRules {
    /// Cluster name — becomes the XML root element (e.g. `imdb-movies`).
    pub cluster: String,
    /// Per-page element name (e.g. `imdb-movie`).
    pub page_element: String,
    pub rules: Vec<MappingRule>,
    /// Enhanced structure; `None` means the default three-level layout.
    pub structure: Option<Vec<StructureNode>>,
}

impl ClusterRules {
    pub fn new(cluster: &str, page_element: &str) -> ClusterRules {
        ClusterRules {
            cluster: cluster.to_string(),
            page_element: page_element.to_string(),
            rules: Vec::new(),
            structure: None,
        }
    }

    pub fn rule(&self, component: &str) -> Option<&MappingRule> {
        self.rules.iter().find(|r| r.name.as_str() == component)
    }

    pub fn rule_mut(&mut self, component: &str) -> Option<&mut MappingRule> {
        self.rules.iter_mut().find(|r| r.name.as_str() == component)
    }

    /// Serialise this cluster to its repository JSON shape (one entry of
    /// the repository document array).
    pub fn to_json(&self) -> Json {
        cluster_to_json(self)
    }

    /// Parse one cluster from its repository JSON shape. Errors carry
    /// the cluster name and offending key where known.
    pub fn from_json(json: &Json) -> Result<ClusterRules, RepositoryError> {
        cluster_from_json(json)
    }

    /// Lower every rule's location XPaths to the compiled IR and derive
    /// the cluster schema, producing the shareable execution form.
    /// Identical location expressions across the cluster's rules are
    /// interned to one shared program, and all locations are merged into
    /// the cluster's [`FusedPlan`] for one-pass page extraction.
    pub fn compile(&self) -> CompiledCluster {
        let mut interner = HashMap::new();
        let rules: Vec<CompiledRule> =
            self.rules.iter().map(|r| CompiledRule::with_interner(r, &mut interner)).collect();
        let fused = FusedPlan::build(
            &rules.iter().flat_map(|r| r.locations().iter().cloned()).collect::<Vec<_>>(),
        );
        let lint = crate::lint::lint_cluster(self, &fused);
        CompiledCluster {
            cluster: self.cluster.clone(),
            page_element: self.page_element.clone(),
            structure: self.structure.clone(),
            schema: crate::extract::cluster_schema(self),
            rules,
            fused,
            lint,
        }
    }

    /// Run the rule linter over this cluster: per-location analyzer
    /// findings plus the cluster-level dead-alternative and
    /// unfused-fallback checks (see [`crate::lint`]). Compiles the
    /// cluster to cross-reference the fused plan; callers holding a
    /// [`CompiledCluster`] should read its cached
    /// [`lint`](CompiledCluster::lint) instead.
    pub fn lint(&self) -> ClusterLint {
        self.compile().lint
    }
}

/// A cluster's rule set in execution form: every location XPath lowered
/// to a [`retroweb_xpath::CompiledXPath`], plus the derived XML Schema.
/// Immutable and `Send + Sync` — the extraction driver shares one
/// across worker threads, and the store caches one per cluster.
#[derive(Debug)]
pub struct CompiledCluster {
    pub cluster: String,
    pub page_element: String,
    pub structure: Option<Vec<StructureNode>>,
    pub schema: ClusterSchema,
    pub rules: Vec<CompiledRule>,
    /// Every rule's location alternatives merged into one shared-prefix
    /// traversal plan, flattened in rule order (rule 0's alternatives
    /// first). Built here so it rides the compiled-cluster cache: a hot
    /// reload that invalidates the compilation rebuilds the plan too.
    fused: FusedPlan,
    /// The cluster's lint findings, computed once at compile time so
    /// `GET /clusters/{name}/lint` and the `/metrics` severity gauges
    /// never re-run the analyzer (and are invalidated with the
    /// compilation on hot reload).
    lint: ClusterLint,
}

impl CompiledCluster {
    pub fn rule(&self, component: &str) -> Option<&CompiledRule> {
        self.rules.iter().find(|r| r.name.as_str() == component)
    }

    /// The cluster's one-pass extraction plan (see
    /// [`retroweb_xpath::fuse`]).
    pub fn fused(&self) -> &FusedPlan {
        &self.fused
    }

    /// The cluster's cached lint findings (see [`crate::lint`]).
    pub fn lint(&self) -> &ClusterLint {
        &self.lint
    }
}

/// Repository load/parse errors, carrying enough context (file path,
/// cluster name, offending JSON key) that a rejected document — e.g. a
/// service `PUT /clusters/{name}` body — is diagnosable from the
/// message alone.
#[derive(Clone, Debug, PartialEq)]
pub struct RepositoryError {
    /// What went wrong, e.g. `bad optionality 'sometimes'`.
    pub message: String,
    /// File the repository was being read from, when known.
    pub path: Option<std::path::PathBuf>,
    /// Cluster being parsed when the error occurred, when known.
    pub cluster: Option<String>,
    /// Dotted path of the offending JSON key, e.g. `rules[1].optionality`.
    pub key: Option<String>,
    /// The rejected XPath location text and failure byte offset, when
    /// the error is an XPath parse failure — the service surfaces it as
    /// a structured `parse-error` diagnostic instead of a bare message.
    /// Boxed to keep the error (and every `Result` carrying it) small.
    pub xpath: Option<Box<XPathParseContext>>,
}

/// The XPath text and byte offset of a location that failed to parse,
/// attached to [`RepositoryError`] for structured `parse-error`
/// diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct XPathParseContext {
    /// The rejected XPath location text, verbatim from the JSON body.
    pub text: String,
    /// Byte offset of the failure within [`text`](Self::text).
    pub offset: usize,
}

impl RepositoryError {
    pub(crate) fn new(msg: impl Into<String>) -> RepositoryError {
        RepositoryError { message: msg.into(), path: None, cluster: None, key: None, xpath: None }
    }

    /// Attach the rejected XPath text and failure offset (parse errors).
    fn at_xpath(mut self, xpath: &str, offset: usize) -> RepositoryError {
        self.xpath = Some(Box::new(XPathParseContext { text: xpath.to_string(), offset }));
        self
    }

    pub(crate) fn with_path(mut self, path: &Path) -> RepositoryError {
        self.path = Some(path.to_path_buf());
        self
    }

    fn in_cluster(mut self, cluster: &str) -> RepositoryError {
        if self.cluster.is_none() {
            self.cluster = Some(cluster.to_string());
        }
        self
    }

    fn for_key(mut self, key: impl Into<String>) -> RepositoryError {
        if self.key.is_none() {
            self.key = Some(key.into());
        }
        self
    }

    /// Prepend a path segment to the offending-key trail (`rules[3]` +
    /// `optionality` → `rules[3].optionality`).
    pub(crate) fn prefix_key(mut self, prefix: impl Into<String>) -> RepositoryError {
        let prefix = prefix.into();
        self.key = Some(match self.key.take() {
            Some(k) => format!("{prefix}.{k}"),
            None => prefix,
        });
        self
    }
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule repository error: {}", self.message)?;
        let mut context = Vec::new();
        if let Some(cluster) = &self.cluster {
            context.push(format!("cluster '{cluster}'"));
        }
        if let Some(key) = &self.key {
            context.push(format!("key '{key}'"));
        }
        if let Some(path) = &self.path {
            context.push(format!("file '{}'", path.display()));
        }
        if !context.is_empty() {
            write!(f, " ({})", context.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for RepositoryError {}

/// Point-in-time snapshot of the repository's cache counters, for the
/// service `/metrics` endpoint and capacity planning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepositoryStats {
    /// Recorded clusters at snapshot time.
    pub clusters: usize,
    /// Compiled clusters currently cached. Coherence invariant: never
    /// exceeds `clusters` — a removed cluster's compilation is dropped
    /// with it, so cache entries can't reference dead clusters.
    pub compiled_cache_entries: usize,
    /// `compiled()` calls answered from the cache.
    pub compiled_cache_hits: u64,
    /// `compiled()` calls that had to build (cache misses on known clusters).
    pub compiled_cache_builds: u64,
    /// Cached compilations dropped by `record`/`remove` (hot reloads).
    pub compiled_cache_invalidations: u64,
    /// Fused one-pass plans currently cached (one per compiled cluster).
    pub fused_plans: usize,
    /// Location paths merged into fused plans, across cached clusters.
    pub fused_paths: usize,
    /// Location paths executing per-rule because their shape is
    /// unfusible.
    pub fused_fallback_paths: usize,
    /// Cached clusters with at least one fallback path — a rule set
    /// that (partly) defeats the planner.
    pub fused_fallback_clusters: usize,
    /// Steps across all fused paths, before prefix sharing.
    pub fused_steps_total: usize,
    /// Steps answered by an existing trie node — axis walks saved per
    /// page by fusion.
    pub fused_steps_shared: usize,
    /// Error-level lint findings across cached clusters.
    pub lint_errors: usize,
    /// Warn-level lint findings across cached clusters.
    pub lint_warnings: usize,
    /// Info-level lint findings across cached clusters.
    pub lint_infos: usize,
    /// Cached clusters carrying at least one error-level finding — rule
    /// sets a strict-lint server would have rejected.
    pub lint_error_clusters: usize,
}

impl RepositoryStats {
    /// Fold another snapshot into this one — how per-shard gauges are
    /// summed into a store-wide aggregate.
    pub fn accumulate(&mut self, other: &RepositoryStats) {
        self.clusters += other.clusters;
        self.compiled_cache_entries += other.compiled_cache_entries;
        self.compiled_cache_hits += other.compiled_cache_hits;
        self.compiled_cache_builds += other.compiled_cache_builds;
        self.compiled_cache_invalidations += other.compiled_cache_invalidations;
        self.fused_plans += other.fused_plans;
        self.fused_paths += other.fused_paths;
        self.fused_fallback_paths += other.fused_fallback_paths;
        self.fused_fallback_clusters += other.fused_fallback_clusters;
        self.fused_steps_total += other.fused_steps_total;
        self.fused_steps_shared += other.fused_steps_shared;
        self.lint_errors += other.lint_errors;
        self.lint_warnings += other.lint_warnings;
        self.lint_infos += other.lint_infos;
        self.lint_error_clusters += other.lint_error_clusters;
    }

    /// Fold one cached cluster's fusion counters into the snapshot.
    pub(crate) fn observe_fused_plan(&mut self, stats: &retroweb_xpath::FuseStats) {
        self.fused_plans += 1;
        self.fused_paths += stats.paths_fused;
        self.fused_fallback_paths += stats.paths_fallback;
        if stats.paths_fallback > 0 {
            self.fused_fallback_clusters += 1;
        }
        self.fused_steps_total += stats.steps_total;
        self.fused_steps_shared += stats.steps_shared;
    }

    /// Fold one cached cluster's lint findings into the snapshot.
    pub(crate) fn observe_lint(&mut self, lint: &ClusterLint) {
        self.lint_errors += lint.errors();
        self.lint_warnings += lint.warnings();
        self.lint_infos += lint.infos();
        if lint.has_errors() {
            self.lint_error_clusters += 1;
        }
    }
}

// ---- (de)serialisation ---------------------------------------------------

pub(crate) fn cluster_to_json(c: &ClusterRules) -> Json {
    let mut obj = Json::object(vec![
        ("cluster".into(), Json::from(c.cluster.as_str())),
        ("page-element".into(), Json::from(c.page_element.as_str())),
        ("rules".into(), Json::Array(c.rules.iter().map(rule_to_json).collect())),
    ]);
    if let Some(structure) = &c.structure {
        obj.set("structure", Json::Array(structure.iter().map(structure_to_json).collect()));
    }
    obj
}

pub fn rule_to_json(rule: &MappingRule) -> Json {
    Json::object(vec![
        ("name".into(), Json::from(rule.name.as_str())),
        ("optionality".into(), Json::from(rule.optionality.to_string())),
        ("multiplicity".into(), Json::from(rule.multiplicity.to_string())),
        ("format".into(), Json::from(rule.format.to_string())),
        (
            "locations".into(),
            Json::Array(rule.locations.iter().map(|l| Json::from(l.to_string())).collect()),
        ),
        ("post".into(), Json::Array(rule.post.iter().map(post_to_json).collect())),
    ])
}

fn post_to_json(p: &PostProcess) -> Json {
    match p {
        PostProcess::StripPrefix(s) => Json::object(vec![
            ("kind".into(), Json::from(p.kind())),
            ("value".into(), Json::from(s.as_str())),
        ]),
        PostProcess::StripSuffix(s) => Json::object(vec![
            ("kind".into(), Json::from(p.kind())),
            ("value".into(), Json::from(s.as_str())),
        ]),
        PostProcess::Between { before, after } => Json::object(vec![
            ("kind".into(), Json::from(p.kind())),
            ("before".into(), Json::from(before.as_str())),
            ("after".into(), Json::from(after.as_str())),
        ]),
        PostProcess::SplitList(s) => Json::object(vec![
            ("kind".into(), Json::from(p.kind())),
            ("value".into(), Json::from(s.as_str())),
        ]),
    }
}

fn structure_to_json(node: &StructureNode) -> Json {
    match node {
        StructureNode::Component(name) => Json::from(name.as_str()),
        StructureNode::Group { name, children } => Json::object(vec![
            ("group".into(), Json::from(name.as_str())),
            ("children".into(), Json::Array(children.iter().map(structure_to_json).collect())),
        ]),
    }
}

pub(crate) fn cluster_from_json(json: &Json) -> Result<ClusterRules, RepositoryError> {
    let cluster = str_field(json, "cluster")?;
    let in_cluster = |e: RepositoryError| e.in_cluster(&cluster);
    let page_element = str_field(json, "page-element").map_err(in_cluster)?;
    let rules_json = json
        .get("rules")
        .and_then(Json::as_array)
        .ok_or_else(|| RepositoryError::new("missing 'rules' array").for_key("rules"))
        .map_err(in_cluster)?;
    let rules = rules_json
        .iter()
        .enumerate()
        .map(|(i, r)| {
            rule_from_json(r).map_err(|e| e.prefix_key(format!("rules[{i}]")).in_cluster(&cluster))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let structure = match json.get("structure").and_then(Json::as_array) {
        Some(items) => Some(
            items
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    structure_from_json(s)
                        .map_err(|e| e.prefix_key(format!("structure[{i}]")).in_cluster(&cluster))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        None => None,
    };
    Ok(ClusterRules { cluster, page_element, rules, structure })
}

pub fn rule_from_json(json: &Json) -> Result<MappingRule, RepositoryError> {
    let name = ComponentName::new(&str_field(json, "name")?)
        .map_err(|e| RepositoryError::new(e.to_string()).for_key("name"))?;
    let optionality = match str_field(json, "optionality")?.as_str() {
        "mandatory" => Optionality::Mandatory,
        "optional" => Optionality::Optional,
        other => {
            return Err(
                RepositoryError::new(format!("bad optionality '{other}'")).for_key("optionality")
            )
        }
    };
    let multiplicity = match str_field(json, "multiplicity")?.as_str() {
        "single-valued" => Multiplicity::SingleValued,
        "multivalued" => Multiplicity::Multivalued,
        other => {
            return Err(
                RepositoryError::new(format!("bad multiplicity '{other}'")).for_key("multiplicity")
            )
        }
    };
    let format = match str_field(json, "format")?.as_str() {
        "text" => Format::Text,
        "mixed" => Format::Mixed,
        other => {
            return Err(RepositoryError::new(format!("bad format '{other}'")).for_key("format"))
        }
    };
    let locations = json
        .get("locations")
        .and_then(Json::as_array)
        .ok_or_else(|| RepositoryError::new("missing 'locations'").for_key("locations"))?
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let key = || format!("locations[{i}]");
            let text = l
                .as_str()
                .ok_or_else(|| RepositoryError::new("location must be a string").for_key(key()))?;
            retroweb_xpath::parse(text).map_err(|e| {
                RepositoryError::new(format!("bad location '{text}': {e}"))
                    .for_key(key())
                    .at_xpath(text, e.offset())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let post = json
        .get("post")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .enumerate()
        .map(|(i, p)| post_from_json(p).map_err(|e| e.prefix_key(format!("post[{i}]"))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MappingRule { name, optionality, multiplicity, format, locations, post })
}

fn post_from_json(json: &Json) -> Result<PostProcess, RepositoryError> {
    let kind = str_field(json, "kind")?;
    match kind.as_str() {
        "strip-prefix" => Ok(PostProcess::StripPrefix(str_field(json, "value")?)),
        "strip-suffix" => Ok(PostProcess::StripSuffix(str_field(json, "value")?)),
        "between" => Ok(PostProcess::Between {
            before: str_field(json, "before")?,
            after: str_field(json, "after")?,
        }),
        "split-list" => Ok(PostProcess::SplitList(str_field(json, "value")?)),
        other => {
            Err(RepositoryError::new(format!("unknown post-processor '{other}'")).for_key("kind"))
        }
    }
}

fn structure_from_json(json: &Json) -> Result<StructureNode, RepositoryError> {
    if let Some(name) = json.as_str() {
        return Ok(StructureNode::Component(name.to_string()));
    }
    let name = str_field(json, "group")?;
    let children = json
        .get("children")
        .and_then(Json::as_array)
        .ok_or_else(|| RepositoryError::new("group missing 'children'").for_key("children"))?
        .iter()
        .enumerate()
        .map(|(i, c)| structure_from_json(c).map_err(|e| e.prefix_key(format!("children[{i}]"))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StructureNode::Group { name, children })
}

fn str_field(json: &Json, key: &str) -> Result<String, RepositoryError> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| RepositoryError::new(format!("missing string field '{key}'")).for_key(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ClusterStore, RepositorySnapshot, ShardedRepository};
    use retroweb_html::Document;
    use retroweb_xpath::parse as xparse;
    use std::sync::Arc;

    fn sample_cluster() -> ClusterRules {
        let mut rules = ClusterRules::new("imdb-movies", "imdb-movie");
        rules.rules.push(MappingRule {
            name: ComponentName::new("runtime").unwrap(),
            optionality: Optionality::Optional,
            multiplicity: Multiplicity::SingleValued,
            format: Format::Text,
            locations: vec![
                xparse("/HTML[1]/BODY[1]/TABLE[1]/TR/TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]").unwrap(),
            ],
            post: vec![PostProcess::StripSuffix("min".into())],
        });
        rules.rules.push(MappingRule {
            name: ComponentName::new("genre").unwrap(),
            optionality: Optionality::Mandatory,
            multiplicity: Multiplicity::Multivalued,
            format: Format::Text,
            locations: vec![xparse("//UL[1]/LI[position() >= 1]/text()").unwrap()],
            post: vec![],
        });
        rules.structure = Some(vec![
            StructureNode::Component("runtime".into()),
            StructureNode::Group {
                name: "classification".into(),
                children: vec![StructureNode::Component("genre".into())],
            },
        ]);
        rules
    }

    /// A one-shard store holding the sample cluster — the embedded
    /// configuration.
    fn sample_store() -> ShardedRepository {
        let repo = ShardedRepository::new(1);
        repo.record(sample_cluster());
        repo
    }

    fn sample_snapshot() -> RepositorySnapshot {
        std::iter::once(sample_cluster()).collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("retrozilla-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn json_round_trip() {
        let text = sample_store().snapshot().to_json().to_string_pretty();
        let parsed = retroweb_json::parse(&text).unwrap();
        let restored = RepositorySnapshot::from_json(&parsed).unwrap();
        assert_eq!(restored.get("imdb-movies"), Some(&sample_cluster()));
    }

    #[test]
    fn file_round_trip() {
        let dir = temp_dir("repo-test");
        let path = dir.join("rules.json");
        sample_store().snapshot().save(&path).unwrap();
        let restored = RepositorySnapshot::load(&path).unwrap();
        assert_eq!(restored.get("imdb-movies"), Some(&sample_cluster()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_replaces() {
        let repo = sample_store();
        let mut altered = sample_cluster();
        altered.rules.pop();
        repo.record(altered.clone());
        assert_eq!(repo.get("imdb-movies"), Some(altered));
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn structure_component_names() {
        let cluster = sample_cluster();
        let names: Vec<String> =
            cluster.structure.as_ref().unwrap().iter().flat_map(|n| n.component_names()).collect();
        assert_eq!(names, vec!["runtime", "genre"]);
    }

    #[test]
    fn bad_documents_rejected() {
        for text in [
            "{}",
            "[{\"cluster\":\"c\"}]",
            "[{\"cluster\":\"c\",\"page-element\":\"p\",\"rules\":[{\"name\":\"1bad\",\"optionality\":\"mandatory\",\"multiplicity\":\"single-valued\",\"format\":\"text\",\"locations\":[]}]}]",
            "[{\"cluster\":\"c\",\"page-element\":\"p\",\"rules\":[{\"name\":\"ok\",\"optionality\":\"sometimes\",\"multiplicity\":\"single-valued\",\"format\":\"text\",\"locations\":[]}]}]",
        ] {
            let json = retroweb_json::parse(text).unwrap();
            assert!(RepositorySnapshot::from_json(&json).is_err(), "{text}");
        }
    }

    #[test]
    fn repository_extract_runs_compiled_rules() {
        let repo = sample_store();
        let page = "<html><body><table><tr><td> Runtime: </td><td> 104 min </td></tr></table>\
                    <ul><li>Drama</li><li>Comedy</li></ul></body></html>";
        let pages = vec![("u1".to_string(), retroweb_html::parse(page))];
        let compiled = repo.compiled("imdb-movies").expect("known cluster");
        let result = crate::extract::extract_cluster_compiled(&compiled, &pages);
        let text = result.xml.to_string_with(0);
        assert!(text.contains("<runtime>104</runtime>"), "{text}");
        assert!(text.contains("<genre>Drama</genre>"), "{text}");
        // Identical output to a freshly compiled, uncached rule set.
        let direct = crate::extract::extract_cluster_compiled(&sample_cluster().compile(), &pages);
        assert_eq!(direct.xml.to_string_with(0), text);
        assert!(repo.compiled("unknown").is_none());

        let html_pages = vec![("u1".to_string(), page.to_string())];
        let mut sink = crate::sink::CollectSink::new();
        crate::extract::extract_cluster_parallel_compiled_to(&compiled, &html_pages, 2, &mut sink)
            .unwrap();
        assert_eq!(sink.into_result().xml.to_string_with(0), text);
    }

    #[test]
    fn repository_streaming_entry_points_match_materialised() {
        let repo = sample_store();
        let page = "<html><body><table><tr><td> Runtime: </td><td> 104 min </td></tr></table>\
                    <ul><li>Drama</li><li>Comedy</li></ul></body></html>";
        let html_pages: Vec<(String, String)> =
            (0..6).map(|i| (format!("u{i}"), page.to_string())).collect();
        let parsed: Vec<(String, Document)> =
            html_pages.iter().map(|(u, h)| (u.clone(), retroweb_html::parse(h))).collect();
        let compiled = repo.compiled("imdb-movies").expect("known cluster");
        let want = crate::extract::extract_cluster_compiled(&compiled, &parsed);

        // Inline (one thread) and across workers.
        for threads in [1, 3] {
            let mut sink = crate::sink::XmlWriterSink::new(Vec::new());
            let stats = crate::extract::extract_cluster_parallel_compiled_to(
                &compiled,
                &html_pages,
                threads,
                &mut sink,
            )
            .unwrap();
            assert_eq!(stats.pages, 6);
            let got = String::from_utf8(sink.into_inner()).unwrap();
            assert_eq!(got, want.xml.to_string_with(2), "threads={threads}");
        }

        // Unknown clusters have no compiled rules to stream from.
        assert!(repo.compiled("nope").is_none());
    }

    #[test]
    fn stats_track_cache_traffic() {
        let repo = sample_store();
        assert_eq!(repo.stats(), RepositoryStats { clusters: 1, ..Default::default() });
        repo.compiled("imdb-movies").unwrap(); // build
        repo.compiled("imdb-movies").unwrap(); // hit
        repo.compiled("imdb-movies").unwrap(); // hit
        repo.record(sample_cluster()); // invalidation
        repo.compiled("imdb-movies").unwrap(); // build
        let stats = repo.stats();
        assert_eq!(stats.compiled_cache_builds, 2);
        assert_eq!(stats.compiled_cache_hits, 2);
        assert_eq!(stats.compiled_cache_invalidations, 1);
    }

    #[test]
    fn remove_drops_cluster_and_compilation() {
        let repo = sample_store();
        repo.compiled("imdb-movies").unwrap();
        assert!(repo.remove("imdb-movies"));
        assert!(!repo.remove("imdb-movies"));
        assert!(repo.get("imdb-movies").is_none());
        assert!(repo.compiled("imdb-movies").is_none());
        assert_eq!(repo.stats().compiled_cache_invalidations, 1);
    }

    #[test]
    fn errors_carry_cluster_key_and_path_context() {
        let text = "[{\"cluster\":\"c1\",\"page-element\":\"p\",\"rules\":[{\"name\":\"ok\",\"optionality\":\"sometimes\",\"multiplicity\":\"single-valued\",\"format\":\"text\",\"locations\":[]}]}]";
        let json = retroweb_json::parse(text).unwrap();
        let err = RepositorySnapshot::from_json(&json).unwrap_err();
        assert_eq!(err.cluster.as_deref(), Some("c1"));
        assert_eq!(err.key.as_deref(), Some("[0].rules[0].optionality"));
        let shown = err.to_string();
        assert!(shown.contains("bad optionality 'sometimes'"), "{shown}");
        assert!(shown.contains("cluster 'c1'"), "{shown}");

        // Bad location and bad post-processor keys are pinpointed too.
        for (doc, want_key) in [
            (
                "{\"cluster\":\"c\",\"page-element\":\"p\",\"rules\":[{\"name\":\"ok\",\"optionality\":\"optional\",\"multiplicity\":\"single-valued\",\"format\":\"text\",\"locations\":[\"//(\"]}]}",
                "rules[0].locations[0]",
            ),
            (
                "{\"cluster\":\"c\",\"page-element\":\"p\",\"rules\":[{\"name\":\"ok\",\"optionality\":\"optional\",\"multiplicity\":\"single-valued\",\"format\":\"text\",\"locations\":[],\"post\":[{\"kind\":\"shout\"}]}]}",
                "rules[0].post[0].kind",
            ),
        ] {
            let err = ClusterRules::from_json(&retroweb_json::parse(doc).unwrap()).unwrap_err();
            assert_eq!(err.key.as_deref(), Some(want_key), "{err}");
            assert_eq!(err.cluster.as_deref(), Some("c"));
        }

        // Nested structure errors keep the full child-index trail.
        let doc = "{\"cluster\":\"c\",\"page-element\":\"p\",\"rules\":[],\
                   \"structure\":[{\"group\":\"g\",\"children\":[\"ok\",{\"group\":\"h\"}]}]}";
        let err = ClusterRules::from_json(&retroweb_json::parse(doc).unwrap()).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("structure[0].children[1].children"), "{err}");

        // Load failures name the file.
        let missing = std::env::temp_dir().join("retrozilla-no-such-repo.json");
        let err = RepositorySnapshot::load(&missing).unwrap_err();
        assert_eq!(err.path.as_deref(), Some(missing.as_path()));
        assert!(err.to_string().contains("retrozilla-no-such-repo.json"));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = temp_dir("atomic-save");
        let path = dir.join("rules.json");
        // Seed the target with garbage a torn write would corrupt further.
        std::fs::write(&path, "not json").unwrap();
        sample_snapshot().save(&path).unwrap();
        let restored = RepositorySnapshot::load(&path).unwrap();
        assert_eq!(restored.get("imdb-movies"), Some(&sample_cluster()));
        // No temp droppings in the directory.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "rules.json")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_fsyncs_file_then_renames_then_fsyncs_directory() {
        use crate::wal::FsStep;
        let dir = temp_dir("fsync-seq");
        let path = dir.join("rules.json");
        let mut steps = Vec::new();
        sample_snapshot().save_with_observer(&path, &mut |s| steps.push(s)).unwrap();
        // The durability contract is the *order*: data is on disk before
        // the rename makes it visible, and the directory entry is synced
        // after — otherwise the rename itself can be lost on power
        // failure even though the temp file's data survived.
        assert_eq!(
            steps,
            vec![FsStep::WriteTemp, FsStep::SyncFile, FsStep::Rename, FsStep::SyncDir]
        );
        let restored = RepositorySnapshot::load(&path).unwrap();
        assert_eq!(restored.get("imdb-movies"), Some(&sample_cluster()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_entries_gauge_tracks_cache_coherently() {
        let repo = sample_store();
        assert_eq!(repo.stats().compiled_cache_entries, 0, "nothing compiled yet");
        repo.compiled("imdb-movies").unwrap();
        let stats = repo.stats();
        assert_eq!(stats.compiled_cache_entries, 1);
        assert!(stats.compiled_cache_entries <= stats.clusters);
        // DELETE coherence: removing the cluster drops its compilation,
        // so the cache can never hold an entry for a dead cluster.
        repo.remove("imdb-movies");
        let stats = repo.stats();
        assert_eq!(stats.clusters, 0);
        assert_eq!(stats.compiled_cache_entries, 0);
    }

    #[test]
    fn concurrent_saves_never_tear_the_file() {
        let dir = temp_dir("concurrent-save");
        let path = dir.join("rules.json");
        let repo = Arc::new(sample_store());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let repo = Arc::clone(&repo);
                let path = path.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        repo.snapshot().save(&path).unwrap();
                    }
                });
            }
        });
        // Whichever rename won, the file is a complete document.
        let restored = RepositorySnapshot::load(&path).unwrap();
        assert_eq!(restored.get("imdb-movies"), Some(&sample_cluster()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_cluster_json_round_trip() {
        let repo = sample_store();
        let json = repo.cluster_json("imdb-movies").expect("known cluster");
        assert_eq!(json, sample_cluster().to_json());
        assert_eq!(ClusterRules::from_json(&json).unwrap(), sample_cluster());
        assert!(repo.cluster_json("unknown").is_none());
    }

    #[test]
    fn serialization_runs_on_a_snapshot_not_under_the_lock() {
        // A snapshot is point-in-time: mutations after it land
        // immediately and never change what it serialises.
        let repo = sample_store();
        let snap = repo.snapshot();
        let mut altered = sample_cluster();
        altered.cluster = "other".into();
        repo.record(altered);
        assert!(repo.remove("imdb-movies"));
        assert_eq!(snap.cluster_names(), vec!["imdb-movies"]);
        assert_eq!(snap.get("imdb-movies"), Some(&sample_cluster()));
        assert_eq!(snap.to_json().as_array().unwrap().len(), 1);
        assert_eq!(repo.cluster_names(), vec!["other"]);

        // Saves hammering the disk while a writer hammers the store:
        // every mutation completes and the final file is some complete
        // snapshot.
        let dir = temp_dir("snap-save");
        let path = dir.join("rules.json");
        let repo = Arc::new(ShardedRepository::new(1));
        for i in 0..40 {
            let mut c = sample_cluster();
            c.cluster = format!("c{i:02}");
            repo.record(c);
        }
        std::thread::scope(|scope| {
            let saver = Arc::clone(&repo);
            let save_path = path.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    saver.snapshot().save(&save_path).unwrap();
                }
            });
            let writer = Arc::clone(&repo);
            scope.spawn(move || {
                for round in 0..200 {
                    let mut c = sample_cluster();
                    c.cluster = format!("c{:02}", round % 40);
                    writer.record(c);
                }
            });
        });
        let restored = RepositorySnapshot::load(&path).unwrap();
        assert!(restored.len() <= 40);
        std::fs::remove_dir_all(&dir).ok();
    }
}
