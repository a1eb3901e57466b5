//! The extraction processor (§4).
//!
//! "The output of the analysis process can be understood as a primitive
//! three-level XML structure made of a root element representing the page
//! cluster, a second level element for each page of the cluster and a
//! leaf element for each page component" — optionally reshaped by the
//! enhanced structure recorded in the repository (iterative aggregation),
//! and accompanied by an XML Schema whose cardinalities come from the
//! optionality/multiplicity properties.
//!
//! Extraction also performs the failure detection §7 sketches: a missing
//! mandatory component, or several nodes for a single-valued one, is
//! reported as a [`RuleFailure`].
//!
//! All cluster-level entry points run the **compiled** rule path: the
//! rule set is lowered once ([`ClusterRules::compile`], cached by
//! the store) and applied to every page through a per-page
//! [`Executor`], instead of re-walking each rule's AST per page.
//!
//! Output goes through the [`crate::sink::ExtractionSink`] seam: the
//! `*_to` drivers push each page's [`crate::sink::PageRecord`] as it
//! completes (the parallel driver receives worker output over one
//! bounded channel per worker, round-robin in page order, so emission
//! order is deterministic and buffering stays O(threads)); the classic
//! [`extract_cluster`] / [`extract_cluster_parallel`] entry points are
//! thin wrappers driving a [`CollectSink`].

use crate::model::{Format, MappingRule, Multiplicity, Optionality};
use crate::repository::{ClusterRules, CompiledCluster, StructureNode};
use crate::sink::{ClusterHeader, CollectSink, ExtractionSink, ExtractionStats, PageRecord};
use retroweb_html::{parse, Document, NodeId};
use retroweb_xml::{ClusterSchema, SchemaNode, XmlDocument, XmlElement};
use retroweb_xpath::{
    normalize_space, string_value_cow, EvalError, Executor, NodeRef, ScratchPool,
};
use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc;

/// The §7 failure conditions, detected during extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// "a mandatory component cannot be found in one page"
    MandatoryMissing,
    /// "the extraction of a single-valued text component returns more
    /// than one node"
    MultipleForSingleValued,
}

impl FailureKind {
    /// Stable wire name, shared by the service drift report and the
    /// NDJSON failure lines.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::MandatoryMissing => "mandatory-missing",
            FailureKind::MultipleForSingleValued => "multiple-for-single-valued",
        }
    }
}

/// One detected failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleFailure {
    pub uri: String,
    pub component: String,
    pub kind: FailureKind,
}

/// Extraction output: the XML document, its schema, and any failures.
#[derive(Clone, Debug)]
pub struct ExtractionResult {
    pub xml: XmlDocument,
    pub schema: ClusterSchema,
    pub failures: Vec<RuleFailure>,
}

/// Extract one page's component values through a compiled rule set:
/// component → values. The cluster's [`retroweb_xpath::FusedPlan`] runs
/// every rule's location alternatives in **one DOM traversal** (shared
/// anchor prefixes are walked once per page); unfusible locations fall
/// back to per-rule execution inside the same call. One [`Executor`]
/// (document-order rank + scratch buffers + predicate memo) is shared
/// by everything applied to the page.
pub fn extract_page_compiled(
    rules: &CompiledCluster,
    uri: &str,
    doc: &Document,
    failures: &mut Vec<RuleFailure>,
) -> BTreeMap<String, Vec<String>> {
    extract_page_fused(rules, uri, &Executor::new(doc), failures)
}

/// Baseline variant of [`extract_page_compiled`] executing the rules
/// one by one, each re-walking the document ([`CompiledRule::select`](crate::model::CompiledRule::select)).
/// Kept as the differential oracle for the fused path and as the
/// benchmark baseline fusion is measured against.
pub fn extract_page_compiled_per_rule(
    rules: &CompiledCluster,
    uri: &str,
    doc: &Document,
    failures: &mut Vec<RuleFailure>,
) -> BTreeMap<String, Vec<String>> {
    let exec = Executor::new(doc);
    let mut out = BTreeMap::new();
    for rule in &rules.rules {
        let nodes = rule.select(&exec).unwrap_or_default();
        let values = rule_page_values(
            rule.name.as_str(),
            rule.optionality,
            rule.multiplicity,
            &rule.post,
            &nodes,
            doc,
            uri,
            failures,
        );
        if !values.is_empty() {
            out.insert(rule.name.as_str().to_string(), values);
        }
    }
    out
}

/// One-pass page extraction against an existing executor (the driver
/// loops hand executors a recycled [`ScratchPool`]). The fused plan
/// yields one `select_refs`-equivalent result per location, flattened
/// in rule order; this replays [`CompiledRule::select`](crate::model::CompiledRule::select)'s
/// alternative semantics per rule — alternatives in order, errors
/// propagate, first non-empty (attribute-filtered) result wins.
fn extract_page_fused(
    rules: &CompiledCluster,
    uri: &str,
    exec: &Executor<'_>,
    failures: &mut Vec<RuleFailure>,
) -> BTreeMap<String, Vec<String>> {
    let doc = exec.document();
    let mut selected = rules.fused().execute(exec).into_iter();
    let mut out = BTreeMap::new();
    for rule in &rules.rules {
        let mut outcome: Result<Vec<NodeId>, EvalError> = Ok(Vec::new());
        let mut decided = false;
        for _ in rule.locations() {
            let res = selected.next().expect("one fused result per location");
            if decided {
                continue;
            }
            match res {
                Err(e) => {
                    outcome = Err(e);
                    decided = true;
                }
                Ok(refs) => {
                    let hits: Vec<NodeId> =
                        refs.into_iter().filter(|r| !r.is_attr()).map(|r| r.id).collect();
                    if !hits.is_empty() {
                        outcome = Ok(hits);
                        decided = true;
                    }
                }
            }
        }
        let nodes = outcome.unwrap_or_default();
        let values = rule_page_values(
            rule.name.as_str(),
            rule.optionality,
            rule.multiplicity,
            &rule.post,
            &nodes,
            doc,
            uri,
            failures,
        );
        if !values.is_empty() {
            out.insert(rule.name.as_str().to_string(), values);
        }
    }
    out
}

/// Per-rule value processing shared by the compiled and interpreted
/// extraction loops: §7 failure detection, single-valued truncation,
/// post-processing, mandatory-missing check. Keeping it in one place
/// means the interpreted baseline can only differ from the production
/// path in *engine* behaviour, which the differential tests pin down.
#[allow(clippy::too_many_arguments)]
fn rule_page_values(
    component: &str,
    optionality: Optionality,
    multiplicity: Multiplicity,
    post: &[crate::post::PostProcess],
    nodes: &[retroweb_html::NodeId],
    doc: &Document,
    uri: &str,
    failures: &mut Vec<RuleFailure>,
) -> Vec<String> {
    if multiplicity == Multiplicity::SingleValued && nodes.len() > 1 {
        failures.push(RuleFailure {
            uri: uri.to_string(),
            component: component.to_string(),
            kind: FailureKind::MultipleForSingleValued,
        });
    }
    let mut values: Vec<String> = nodes
        .iter()
        .map(|&n| normalize_space(&string_value_cow(doc, NodeRef::node(n))))
        .filter(|v| !v.is_empty())
        .collect();
    if multiplicity == Multiplicity::SingleValued {
        values.truncate(1);
    }
    for p in post {
        values = p.apply(values);
    }
    if values.is_empty() && optionality == Optionality::Mandatory {
        failures.push(RuleFailure {
            uri: uri.to_string(),
            component: component.to_string(),
            kind: FailureKind::MandatoryMissing,
        });
    }
    values
}

/// Reference implementation of whole-cluster extraction through the
/// tree-walking interpreter (per-page AST evaluation, the
/// pre-compilation architecture). Kept as the executable baseline for
/// benchmarks and the differential test holding it equal to
/// [`extract_cluster`]; production callers use the compiled paths.
pub fn extract_cluster_interpreted(
    rules: &ClusterRules,
    pages: &[(String, Document)],
) -> ExtractionResult {
    let mut failures = Vec::new();
    let mut root = XmlElement::new(&rules.cluster);
    for (uri, doc) in pages {
        let mut values = BTreeMap::new();
        for rule in &rules.rules {
            let nodes = rule.select(doc).unwrap_or_default();
            let vals = rule_page_values(
                rule.name.as_str(),
                rule.optionality,
                rule.multiplicity,
                &rule.post,
                &nodes,
                doc,
                uri,
                &mut failures,
            );
            if !vals.is_empty() {
                values.insert(rule.name.as_str().to_string(), vals);
            }
        }
        root.push_element(page_element_parts(
            &rules.page_element,
            rules.structure.as_deref(),
            rules.rules.iter().map(|r| r.name.as_str()),
            uri,
            &values,
        ));
    }
    ExtractionResult {
        xml: XmlDocument::new(root).with_encoding("ISO-8859-1"),
        schema: cluster_schema(rules),
        failures,
    }
}

/// One page's extracted values and its §7 failures.
type PageValues = (BTreeMap<String, Vec<String>>, Vec<RuleFailure>);

/// Page results each parallel worker may complete ahead of the sink.
const WORKER_BACKLOG: usize = 4;

/// Extract one parsed page through an executor that borrows `pool`'s
/// warmed scratch buffers and hands them back for the next page (the
/// doc-order rank stays per-document inside the executor).
fn extract_pooled(
    rules: &CompiledCluster,
    uri: &str,
    doc: &Document,
    pool: &mut ScratchPool,
) -> PageValues {
    let exec = Executor::with_pool(doc, std::mem::take(pool));
    let mut failures = Vec::new();
    let values = extract_page_fused(rules, uri, &exec, &mut failures);
    *pool = exec.into_pool();
    (values, failures)
}

/// Hand one completed page to a sink: the page record, then each of the
/// page's §7 failures.
fn emit_page(
    sink: &mut dyn ExtractionSink,
    uri: &str,
    (values, failures): PageValues,
    stats: &mut ExtractionStats,
) -> io::Result<()> {
    stats.pages += 1;
    stats.failures += failures.len();
    sink.page(uri, &PageRecord::new(values))?;
    for f in &failures {
        sink.failure(f)?;
    }
    Ok(())
}

/// Sequential streaming driver: extract every page through an already
/// compiled rule set, pushing each page's record into `sink` the moment
/// it completes. The first record reaches the sink before the second
/// page is even looked at — memory stays O(page).
pub fn extract_cluster_compiled_to(
    rules: &CompiledCluster,
    pages: &[(String, Document)],
    sink: &mut dyn ExtractionSink,
) -> io::Result<ExtractionStats> {
    sink.begin_cluster(&ClusterHeader::of(rules))?;
    let mut stats = ExtractionStats::default();
    // One scratch pool for the whole drive: each page's executor starts
    // with the previous page's warmed buffers.
    let mut pool = ScratchPool::default();
    for (uri, doc) in pages {
        let page = extract_pooled(rules, uri, doc, &mut pool);
        emit_page(sink, uri, page, &mut stats)?;
    }
    sink.end_cluster()?;
    Ok(stats)
}

/// Extract a whole cluster through an already compiled rule set.
pub fn extract_cluster_compiled(
    rules: &CompiledCluster,
    pages: &[(String, Document)],
) -> ExtractionResult {
    let mut sink = CollectSink::new();
    extract_cluster_compiled_to(rules, pages, &mut sink).expect("CollectSink never fails");
    sink.into_result()
}

/// Extract a whole cluster to XML + XSD. The rule set is compiled once
/// and applied to every page.
pub fn extract_cluster(rules: &ClusterRules, pages: &[(String, Document)]) -> ExtractionResult {
    extract_cluster_compiled(&rules.compile(), pages)
}

/// Extract from raw HTML strings (parses then delegates).
pub fn extract_cluster_html(rules: &ClusterRules, pages: &[(String, String)]) -> ExtractionResult {
    let parsed: Vec<(String, Document)> =
        pages.iter().map(|(uri, html)| (uri.clone(), parse(html))).collect();
    extract_cluster(rules, &parsed)
}

/// Parallel streaming driver: pages are parsed and extracted across
/// `threads` scoped workers, each with its own per-page [`Executor`]
/// over the shared `CompiledCluster`. Worker `w` takes pages `w`,
/// `w + threads`, … and sends each result down its own bounded
/// channel; the calling thread receives page `i` from worker
/// `i % threads` and feeds `sink`, so pages reach the sink in input
/// order with no reordering.
///
/// Output is therefore byte-identical to the sequential driver for any
/// sink, while at most `threads × (WORKER_BACKLOG + 1)` page records
/// exist outside the sink at any instant, independent of batch size —
/// the property that lets a service stream megapage batches from
/// bounded memory.
///
/// A sink error aborts the drive: the receivers are dropped, so every
/// worker's next send fails and the remaining pages are abandoned; the
/// error is returned without `end_cluster`. A worker panic hangs up its
/// channel, which ends the drive, and is re-raised here.
pub fn extract_cluster_parallel_compiled_to(
    rules: &CompiledCluster,
    pages: &[(String, String)],
    threads: usize,
    sink: &mut dyn ExtractionSink,
) -> io::Result<ExtractionStats> {
    let threads = threads.max(1).min(pages.len().max(1));
    sink.begin_cluster(&ClusterHeader::of(rules))?;
    let mut stats = ExtractionStats::default();
    if threads == 1 {
        let mut pool = ScratchPool::default();
        for (uri, html) in pages {
            let page = extract_pooled(rules, uri, &parse(html), &mut pool);
            emit_page(sink, uri, page, &mut stats)?;
        }
        sink.end_cluster()?;
        return Ok(stats);
    }

    std::thread::scope(|scope| -> io::Result<()> {
        let receivers: Vec<mpsc::Receiver<PageValues>> = (0..threads)
            .map(|w| {
                let (tx, rx) = mpsc::sync_channel(WORKER_BACKLOG);
                scope.spawn(move || {
                    let mut pool = ScratchPool::default();
                    for (uri, html) in pages.iter().skip(w).step_by(threads) {
                        // The parsed page is dropped before a send can block.
                        let page = extract_pooled(rules, uri, &parse(html), &mut pool);
                        if tx.send(page).is_err() {
                            break; // receiver gone: the sink failed
                        }
                    }
                });
                rx
            })
            .collect();
        for (i, (uri, _)) in pages.iter().enumerate() {
            // A hang-up before the worker's last page means it panicked;
            // the scope re-raises that panic once every worker is joined.
            let Ok(page) = receivers[i % threads].recv() else { break };
            emit_page(sink, uri, page, &mut stats)?;
        }
        Ok(())
    })?;
    sink.end_cluster()?;
    Ok(stats)
}

/// Parallel streaming driver over uncompiled rules (compiles once).
pub fn extract_cluster_parallel_to(
    rules: &ClusterRules,
    pages: &[(String, String)],
    threads: usize,
    sink: &mut dyn ExtractionSink,
) -> io::Result<ExtractionStats> {
    extract_cluster_parallel_compiled_to(&rules.compile(), pages, threads, sink)
}

/// Parallel extraction through an already compiled (shared) rule set,
/// materialised as the classic [`ExtractionResult`].
pub fn extract_cluster_parallel_compiled(
    rules: &CompiledCluster,
    pages: &[(String, String)],
    threads: usize,
) -> ExtractionResult {
    let mut sink = CollectSink::new();
    extract_cluster_parallel_compiled_to(rules, pages, threads, &mut sink)
        .expect("CollectSink never fails");
    sink.into_result()
}

/// Parallel extraction, compiling the rule set once up front. Useful for
/// the data-migration workload of the intro.
pub fn extract_cluster_parallel(
    rules: &ClusterRules,
    pages: &[(String, String)],
    threads: usize,
) -> ExtractionResult {
    extract_cluster_parallel_compiled(&rules.compile(), pages, threads)
}

/// Shared page-element assembly for the compiled and interpreted paths
/// (and, via [`ClusterHeader::page_xml`], every XML-producing sink).
pub(crate) fn page_element_parts<'n>(
    page_name: &str,
    structure: Option<&[StructureNode]>,
    rule_names: impl Iterator<Item = &'n str>,
    uri: &str,
    values: &BTreeMap<String, Vec<String>>,
) -> XmlElement {
    let mut page_el = XmlElement::new(page_name).with_attr("uri", uri);
    match structure {
        None => {
            // Default three-level structure: leaf elements in rule order.
            for name in rule_names {
                push_component(&mut page_el, name, values);
            }
        }
        Some(structure) => {
            for node in structure {
                push_structure(&mut page_el, node, values);
            }
        }
    }
    page_el
}

fn push_component(parent: &mut XmlElement, name: &str, values: &BTreeMap<String, Vec<String>>) {
    if let Some(vals) = values.get(name) {
        for v in vals {
            parent.push_element(XmlElement::new(name).with_text(v));
        }
    }
}

fn push_structure(
    parent: &mut XmlElement,
    node: &StructureNode,
    values: &BTreeMap<String, Vec<String>>,
) {
    match node {
        StructureNode::Component(name) => push_component(parent, name, values),
        StructureNode::Group { name, children } => {
            let mut group = XmlElement::new(name);
            for child in children {
                push_structure(&mut group, child, values);
            }
            // Empty groups (all members absent) are omitted.
            if !group.children.is_empty() {
                parent.push_element(group);
            }
        }
    }
}

/// Derive the cluster's XML Schema from its rules (+ structure).
pub fn cluster_schema(rules: &ClusterRules) -> ClusterSchema {
    let components: Vec<SchemaNode> = match &rules.structure {
        None => rules.rules.iter().map(leaf_schema).collect(),
        Some(structure) => structure.iter().map(|n| structure_schema(rules, n)).collect(),
    };
    ClusterSchema::new(&rules.cluster, &rules.page_element, components)
}

fn leaf_schema(rule: &MappingRule) -> SchemaNode {
    SchemaNode::leaf(
        rule.name.as_str(),
        rule.optionality == Optionality::Optional,
        rule.multiplicity == Multiplicity::Multivalued,
        rule.format == Format::Mixed,
    )
}

fn structure_schema(rules: &ClusterRules, node: &StructureNode) -> SchemaNode {
    match node {
        StructureNode::Component(name) => match rules.rule(name) {
            Some(rule) => leaf_schema(rule),
            // A structure entry without a rule: emit an optional string leaf.
            None => SchemaNode::leaf(name, true, false, false),
        },
        StructureNode::Group { name, children } => {
            SchemaNode::group(name, children.iter().map(|c| structure_schema(rules, c)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ComponentName;
    use retroweb_xpath::parse as xparse;

    fn runtime_rule(optionality: Optionality) -> MappingRule {
        MappingRule {
            name: ComponentName::new("runtime").unwrap(),
            optionality,
            multiplicity: Multiplicity::SingleValued,
            format: Format::Text,
            locations: vec![xparse(
                "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]",
            )
            .unwrap()],
            post: vec![],
        }
    }

    fn genre_rule() -> MappingRule {
        MappingRule {
            name: ComponentName::new("genre").unwrap(),
            optionality: Optionality::Mandatory,
            multiplicity: Multiplicity::Multivalued,
            format: Format::Text,
            locations: vec![xparse("//UL[1]/LI[position() >= 1]/text()").unwrap()],
            post: vec![],
        }
    }

    const PAGE: &str =
        "<html><body><table><tr><td><b>Runtime:</b></td><td> 108 min </td></tr></table>\
        <ul><li>Drama</li><li>Comedy</li></ul></body></html>";

    fn cluster() -> ClusterRules {
        let mut c = ClusterRules::new("imdb-movies", "imdb-movie");
        c.rules.push(runtime_rule(Optionality::Mandatory));
        c.rules.push(genre_rule());
        c
    }

    #[test]
    fn three_level_structure() {
        let result = extract_cluster_html(&cluster(), &[("u1".into(), PAGE.into())]);
        let text = result.xml.to_string_with(0);
        assert!(text.contains("<imdb-movies>"));
        assert!(text.contains("<imdb-movie uri=\"u1\">"));
        assert!(text.contains("<runtime>108 min</runtime>"));
        assert!(text.contains("<genre>Drama</genre>"));
        assert!(text.contains("<genre>Comedy</genre>"));
        assert!(result.failures.is_empty());
    }

    #[test]
    fn aggregation_nests_components() {
        let mut c = cluster();
        c.structure = Some(vec![
            StructureNode::Component("runtime".into()),
            StructureNode::Group {
                name: "classification".into(),
                children: vec![StructureNode::Component("genre".into())],
            },
        ]);
        let result = extract_cluster_html(&c, &[("u1".into(), PAGE.into())]);
        let text = result.xml.to_string_with(2);
        let cls_pos = text.find("<classification>").unwrap();
        let genre_pos = text.find("<genre>").unwrap();
        assert!(genre_pos > cls_pos);
        // Schema nests too.
        let xsd = result.schema.to_xsd().to_string_with(2);
        assert!(xsd.contains("classification"));
    }

    #[test]
    fn mandatory_missing_detected() {
        let page_without =
            "<html><body><p>no facts</p><ul><li>Drama</li><li>X</li></ul></body></html>";
        let result = extract_cluster_html(&cluster(), &[("u2".into(), page_without.into())]);
        assert!(result.failures.iter().any(|f| f.component == "runtime"
            && f.kind == FailureKind::MandatoryMissing
            && f.uri == "u2"));
    }

    #[test]
    fn optional_missing_not_a_failure() {
        let mut c = ClusterRules::new("m", "p");
        c.rules.push(runtime_rule(Optionality::Optional));
        let page_without = "<html><body><p>no facts</p></body></html>";
        let result = extract_cluster_html(&c, &[("u".into(), page_without.into())]);
        assert!(result.failures.is_empty());
        assert!(!result.xml.to_string_with(0).contains("<runtime>"));
    }

    #[test]
    fn multiple_for_single_valued_detected() {
        let mut c = ClusterRules::new("m", "p");
        c.rules.push(MappingRule {
            locations: vec![xparse("//LI/text()").unwrap()],
            ..runtime_rule(Optionality::Mandatory)
        });
        let page = "<html><body><ul><li>90 min</li><li>95 min</li></ul></body></html>";
        let result = extract_cluster_html(&c, &[("u".into(), page.into())]);
        assert!(result.failures.iter().any(|f| f.kind == FailureKind::MultipleForSingleValued));
        // The value emitted is the first match.
        assert!(result.xml.to_string_with(0).contains("<runtime>90 min</runtime>"));
    }

    #[test]
    fn schema_cardinalities_follow_rules() {
        let mut c = cluster();
        c.rules[0].optionality = Optionality::Optional;
        let xsd = cluster_schema(&c).to_xsd().to_string_with(2);
        assert!(xsd.contains("name=\"runtime\" minOccurs=\"0\""));
        assert!(xsd.contains("name=\"genre\" maxOccurs=\"unbounded\""));
    }

    #[test]
    fn interpreted_matches_compiled() {
        // The reference (interpreter) extraction and the compiled path
        // must be byte-identical, failures included.
        let mut c = cluster();
        c.structure = Some(vec![
            StructureNode::Component("runtime".into()),
            StructureNode::Group {
                name: "classification".into(),
                children: vec![StructureNode::Component("genre".into())],
            },
        ]);
        let pages: Vec<(String, retroweb_html::Document)> =
            [PAGE, "<html><body><p>no facts</p><ul><li>Drama</li></ul></body></html>"]
                .iter()
                .enumerate()
                .map(|(i, html)| (format!("u{i}"), retroweb_html::parse(html)))
                .collect();
        let interpreted = extract_cluster_interpreted(&c, &pages);
        let compiled = extract_cluster(&c, &pages);
        assert_eq!(interpreted.xml.to_string_with(2), compiled.xml.to_string_with(2));
        assert_eq!(interpreted.failures, compiled.failures);
        assert_eq!(
            interpreted.schema.to_xsd().to_string_with(2),
            compiled.schema.to_xsd().to_string_with(2)
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let pages: Vec<(String, String)> =
            (0..12).map(|i| (format!("u{i}"), PAGE.to_string())).collect();
        let seq = extract_cluster_html(&cluster(), &pages);
        let par = extract_cluster_parallel(&cluster(), &pages, 4);
        assert_eq!(seq.xml.to_string_with(0), par.xml.to_string_with(0));
        assert_eq!(seq.failures, par.failures);
    }

    /// Pages that vary per index, so any reordering bug changes bytes.
    fn varied_pages(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                (
                    format!("u{i}"),
                    format!(
                        "<html><body><table><tr><td><b>Runtime:</b></td><td> {} min </td></tr>\
                         </table><ul><li>G{i}</li><li>H{i}</li></ul></body></html>",
                        60 + i
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn streaming_xml_sink_matches_materialised_document() {
        let c = cluster();
        // Strides that divide the batch, leave a remainder, outnumber
        // the pages, and collapse to the inline single-thread path.
        for (n, threads) in [(40, 1), (40, 3), (40, 8), (5, 8), (1, 4)] {
            let pages = varied_pages(n);
            let want = extract_cluster_html(&c, &pages).xml.to_string_with(2);
            let mut sink = crate::sink::XmlWriterSink::new(Vec::new());
            let stats = extract_cluster_parallel_to(&c, &pages, threads, &mut sink).unwrap();
            assert_eq!(stats.pages, n);
            let got = String::from_utf8(sink.into_inner()).unwrap();
            assert_eq!(got, want, "pages={n} threads={threads}");
        }
        // Sequential driver over parsed documents too.
        let pages = varied_pages(40);
        let want = extract_cluster_html(&c, &pages).xml.to_string_with(2);
        let parsed: Vec<(String, retroweb_html::Document)> =
            pages.iter().map(|(u, h)| (u.clone(), retroweb_html::parse(h))).collect();
        let mut sink = crate::sink::XmlWriterSink::new(Vec::new());
        extract_cluster_compiled_to(&c.compile(), &parsed, &mut sink).unwrap();
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), want);
    }

    #[test]
    fn parallel_driver_reports_failures_in_page_order() {
        // Odd pages are missing the mandatory runtime component.
        let pages: Vec<(String, String)> = (0..16)
            .map(|i| {
                let html = if i % 2 == 1 {
                    format!("<html><body><ul><li>G{i}</li></ul></body></html>")
                } else {
                    PAGE.to_string()
                };
                (format!("u{i}"), html)
            })
            .collect();
        let mut sink = crate::sink::CollectSink::new();
        let stats = extract_cluster_parallel_to(&cluster(), &pages, 4, &mut sink).unwrap();
        let result = sink.into_result();
        assert_eq!(stats.failures, 8);
        assert_eq!(result.failures.len(), 8);
        let uris: Vec<&str> = result.failures.iter().map(|f| f.uri.as_str()).collect();
        assert_eq!(uris, ["u1", "u3", "u5", "u7", "u9", "u11", "u13", "u15"]);
        assert_eq!(
            result.xml.to_string_with(2),
            extract_cluster_html(&cluster(), &pages).xml.to_string_with(2)
        );
    }

    /// A sink that fails after a fixed number of pages: the parallel
    /// drive must abort promptly (no hang, no end_cluster) and return
    /// the error.
    struct FailingSink {
        pages: usize,
        fail_after: usize,
        ended: bool,
    }

    impl crate::sink::ExtractionSink for FailingSink {
        fn begin_cluster(&mut self, _h: &crate::sink::ClusterHeader) -> std::io::Result<()> {
            Ok(())
        }
        fn page(&mut self, _uri: &str, _r: &crate::sink::PageRecord) -> std::io::Result<()> {
            self.pages += 1;
            if self.pages > self.fail_after {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone"));
            }
            Ok(())
        }
        fn failure(&mut self, _f: &RuleFailure) -> std::io::Result<()> {
            Ok(())
        }
        fn end_cluster(&mut self) -> std::io::Result<()> {
            self.ended = true;
            Ok(())
        }
    }

    #[test]
    fn sink_error_aborts_parallel_drive() {
        let pages = varied_pages(200);
        let mut sink = FailingSink { pages: 0, fail_after: 5, ended: false };
        let err = extract_cluster_parallel_to(&cluster(), &pages, 4, &mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert!(!sink.ended, "end_cluster must not run after an error");
        assert!(sink.pages <= 7, "drive kept pushing after the error: {}", sink.pages);
    }

    #[test]
    fn counting_sink_dry_run_over_repository_drive() {
        let pages = varied_pages(10);
        let parsed: Vec<(String, retroweb_html::Document)> =
            pages.iter().map(|(u, h)| (u.clone(), retroweb_html::parse(h))).collect();
        let mut count = crate::sink::CountingSink::new();
        let stats = extract_cluster_compiled_to(&cluster().compile(), &parsed, &mut count).unwrap();
        assert_eq!(count.pages, 10);
        assert_eq!(count.pages_with_values, 10);
        // runtime + two genres per page.
        assert_eq!(count.values, 30);
        assert_eq!(count.failures, stats.failures);
    }
}
