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
//! Every cluster-level entry point takes a [`CompiledCluster`]:
//! compiling ([`ClusterRules::compile`], cached by the store) is the
//! caller's explicit step, and the compiled rules are applied to every
//! page through a per-page [`Executor`] instead of re-walking each
//! rule's AST per page.
//!
//! The production surface is one driver and two conveniences over it:
//!
//! - [`extract_cluster_parallel_compiled_to`] is the one sink driver. It
//!   parses and extracts HTML pages across `threads` workers (inline at
//!   `threads = 1`) and pushes each page's [`PageRecord`] into an
//!   [`ExtractionSink`] in input order, from O(threads) memory. Both
//!   served extract endpoints run it.
//! - [`extract_cluster_html`] is that driver at `threads = 1` into a
//!   [`CollectSink`]; [`extract_cluster_compiled`] collects over pages
//!   that are already parsed.
//! - [`extract_page_compiled`] is the page primitive the §7 detectors
//!   ([`crate::maintain`]) run.
//!
//! [`extract_cluster_interpreted`] and [`extract_page_compiled_per_rule`]
//! are the reference oracles the differential suites and benchmark
//! baselines compare the fused path against; production never calls
//! them.

use crate::model::{node_values, Format, MappingRule, Multiplicity, Optionality};
use crate::repository::{ClusterRules, CompiledCluster, StructureNode};
use crate::sink::{
    ClusterHeader, CollectSink, ExtractionSink, ExtractionStats, PageRecord, OUTPUT_ENCODING,
};
use retroweb_html::{parse, Document, NodeId};
use retroweb_xml::{ClusterSchema, SchemaNode, XmlDocument, XmlElement};
use retroweb_xpath::{Engine, EvalError, Executor, ScratchPool};
use std::borrow::Borrow;
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
/// (document-order rank + label index + scratch buffers) is shared by
/// everything applied to the page.
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
    let mut values = node_values(doc, nodes);
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
/// [`extract_cluster_compiled`]; production callers use the compiled
/// paths.
pub fn extract_cluster_interpreted(
    rules: &ClusterRules,
    pages: &[(String, Document)],
) -> ExtractionResult {
    let mut failures = Vec::new();
    let mut root = XmlElement::new(&rules.cluster);
    for (uri, doc) in pages {
        let engine = Engine::new(doc);
        let mut values = BTreeMap::new();
        for rule in &rules.rules {
            let nodes = select_interpreted(&engine, rule).unwrap_or_default();
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
        xml: XmlDocument::new(root).with_encoding(OUTPUT_ENCODING),
        schema: cluster_schema(rules),
        failures,
    }
}

/// [`CompiledRule::select`](crate::model::CompiledRule::select)'s
/// alternative semantics on the interpreter: alternatives in order,
/// errors propagate, first non-empty result wins.
fn select_interpreted(engine: &Engine<'_>, rule: &MappingRule) -> Result<Vec<NodeId>, EvalError> {
    for location in &rule.locations {
        let nodes = engine.select(location, engine.document().root())?;
        if !nodes.is_empty() {
            return Ok(nodes);
        }
    }
    Ok(Vec::new())
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

/// The one sequential loop: extract each page through an executor that
/// starts with the previous page's warmed scratch buffers, pushing each
/// page's record into `sink` the moment it completes — memory stays
/// O(page). HTML input yields owned parsed pages, parsed input borrows.
fn extract_sequential<'p, D: Borrow<Document>>(
    rules: &CompiledCluster,
    pages: impl Iterator<Item = (&'p str, D)>,
    sink: &mut dyn ExtractionSink,
) -> io::Result<ExtractionStats> {
    sink.begin_cluster(&ClusterHeader::of(rules))?;
    let mut stats = ExtractionStats::default();
    let mut pool = ScratchPool::default();
    for (uri, doc) in pages {
        let page = extract_pooled(rules, uri, doc.borrow(), &mut pool);
        emit_page(sink, uri, page, &mut stats)?;
    }
    sink.end_cluster()?;
    Ok(stats)
}

/// Run `drive` into a [`CollectSink`] and return the materialised result.
fn collect(
    drive: impl FnOnce(&mut CollectSink) -> io::Result<ExtractionStats>,
) -> ExtractionResult {
    let mut sink = CollectSink::new();
    drive(&mut sink).expect("CollectSink never fails");
    sink.into_result()
}

/// Extract a whole cluster of parsed pages to XML + XSD.
pub fn extract_cluster_compiled(
    rules: &CompiledCluster,
    pages: &[(String, Document)],
) -> ExtractionResult {
    collect(|sink| {
        extract_sequential(rules, pages.iter().map(|(uri, doc)| (uri.as_str(), doc)), sink)
    })
}

/// Extract a whole cluster from raw HTML strings to XML + XSD: the sink
/// driver on the calling thread, collected.
pub fn extract_cluster_html(
    rules: &CompiledCluster,
    pages: &[(String, String)],
) -> ExtractionResult {
    collect(|sink| extract_cluster_parallel_compiled_to(rules, pages, 1, sink))
}

/// The extraction driver: pages are parsed and extracted across
/// `threads` scoped workers, each with its own per-page [`Executor`]
/// over the shared `CompiledCluster`. Worker `w` takes pages `w`,
/// `w + threads`, … and sends each result down its own bounded
/// channel; the calling thread receives page `i` from worker
/// `i % threads` and feeds `sink`, so pages reach the sink in input
/// order with no reordering. At `threads = 1` the pages are extracted
/// inline on the calling thread, with no worker spawned.
///
/// Output is therefore byte-identical for any thread count and any
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
    if threads == 1 {
        let parsed = pages.iter().map(|(uri, html)| (uri.as_str(), parse(html)));
        return extract_sequential(rules, parsed, sink);
    }

    sink.begin_cluster(&ClusterHeader::of(rules))?;
    let mut stats = ExtractionStats::default();
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
        let result = extract_cluster_html(&cluster().compile(), &[("u1".into(), PAGE.into())]);
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
        let result = extract_cluster_html(&c.compile(), &[("u1".into(), PAGE.into())]);
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
        let result =
            extract_cluster_html(&cluster().compile(), &[("u2".into(), page_without.into())]);
        assert!(result.failures.iter().any(|f| f.component == "runtime"
            && f.kind == FailureKind::MandatoryMissing
            && f.uri == "u2"));
    }

    #[test]
    fn optional_missing_not_a_failure() {
        let mut c = ClusterRules::new("m", "p");
        c.rules.push(runtime_rule(Optionality::Optional));
        let page_without = "<html><body><p>no facts</p></body></html>";
        let result = extract_cluster_html(&c.compile(), &[("u".into(), page_without.into())]);
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
        let result = extract_cluster_html(&c.compile(), &[("u".into(), page.into())]);
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
        let compiled = extract_cluster_compiled(&c.compile(), &pages);
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
        let compiled = cluster().compile();
        let seq = extract_cluster_html(&compiled, &pages);
        let mut sink = CollectSink::new();
        extract_cluster_parallel_compiled_to(&compiled, &pages, 4, &mut sink).unwrap();
        let par = sink.into_result();
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
        let c = cluster().compile();
        // Strides that divide the batch, leave a remainder, outnumber
        // the pages, and collapse to the inline single-thread path; and
        // every small batch at two and three workers.
        let small = (2..=3).flat_map(|threads| (1..=5).map(move |n| (n, threads)));
        for (n, threads) in [(40, 1), (40, 3), (40, 8), (5, 8), (1, 4)].into_iter().chain(small) {
            let pages = varied_pages(n);
            let want = extract_cluster_html(&c, &pages).xml.to_string_with(2);
            let mut sink = crate::sink::XmlWriterSink::new(Vec::new());
            let stats =
                extract_cluster_parallel_compiled_to(&c, &pages, threads, &mut sink).unwrap();
            assert_eq!(stats.pages, n);
            let got = String::from_utf8(sink.into_inner()).unwrap();
            assert_eq!(got, want, "pages={n} threads={threads}");
        }
        // The sequential loop over parsed documents too.
        let pages = varied_pages(40);
        let want = extract_cluster_html(&c, &pages).xml.to_string_with(2);
        let parsed: Vec<(String, retroweb_html::Document)> =
            pages.iter().map(|(u, h)| (u.clone(), retroweb_html::parse(h))).collect();
        let mut sink = crate::sink::XmlWriterSink::new(Vec::new());
        extract_sequential(&c, parsed.iter().map(|(u, d)| (u.as_str(), d)), &mut sink).unwrap();
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
        let compiled = cluster().compile();
        let mut sink = crate::sink::CollectSink::new();
        let stats = extract_cluster_parallel_compiled_to(&compiled, &pages, 4, &mut sink).unwrap();
        let result = sink.into_result();
        assert_eq!(stats.failures, 8);
        assert_eq!(result.failures.len(), 8);
        let uris: Vec<&str> = result.failures.iter().map(|f| f.uri.as_str()).collect();
        assert_eq!(uris, ["u1", "u3", "u5", "u7", "u9", "u11", "u13", "u15"]);
        assert_eq!(
            result.xml.to_string_with(2),
            extract_cluster_html(&compiled, &pages).xml.to_string_with(2)
        );
    }

    /// A sink that fails on the page after `fail_after`: the parallel
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
        let c = cluster().compile();
        for threads in 2..=3 {
            for n in (1..=5).chain([40]) {
                let pages = varied_pages(n);
                let mut fail_afters = vec![0, 1, threads - 1, threads, n - 1];
                fail_afters.retain(|&k| k < n);
                fail_afters.sort_unstable();
                fail_afters.dedup();
                for fail_after in fail_afters {
                    let row = format!("threads={threads} pages={n} fail_after={fail_after}");
                    let mut sink = FailingSink { pages: 0, fail_after, ended: false };
                    let err = extract_cluster_parallel_compiled_to(&c, &pages, threads, &mut sink)
                        .unwrap_err();
                    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "{row}");
                    assert!(!sink.ended, "{row}: end_cluster ran after an error");
                    assert_eq!(sink.pages, fail_after + 1, "{row}: pages the sink saw");
                }
            }
        }
    }

    /// A sink that panics on page `panic_at` (0-based).
    struct PanickingSink {
        pages: usize,
        panic_at: usize,
    }

    impl crate::sink::ExtractionSink for PanickingSink {
        fn begin_cluster(&mut self, _h: &crate::sink::ClusterHeader) -> std::io::Result<()> {
            Ok(())
        }
        fn page(&mut self, _uri: &str, _r: &crate::sink::PageRecord) -> std::io::Result<()> {
            if self.pages == self.panic_at {
                panic!("sink panicked on page {}", self.panic_at);
            }
            self.pages += 1;
            Ok(())
        }
        fn failure(&mut self, _f: &RuleFailure) -> std::io::Result<()> {
            Ok(())
        }
        fn end_cluster(&mut self) -> std::io::Result<()> {
            unreachable!("end_cluster after a panicking page")
        }
    }

    /// A sink panic unwinds out of the drive within a deadline: dropping
    /// the receivers releases workers blocked on a full channel, so the
    /// scope can join them and re-raise. A hang here means a blocked
    /// worker kept the scope alive.
    #[test]
    fn sink_panic_unwinds_out_of_parallel_drive() {
        for threads in 1..=3 {
            for n in [4, 40] {
                let mut panic_ats = vec![0, 1, threads, n - 1];
                panic_ats.sort_unstable();
                panic_ats.dedup();
                for panic_at in panic_ats {
                    let row = format!("threads={threads} pages={n} panic_at={panic_at}");
                    let (done, outcome) = mpsc::channel();
                    std::thread::spawn(move || {
                        let (c, pages) = (cluster().compile(), varied_pages(n));
                        let mut sink = PanickingSink { pages: 0, panic_at };
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            extract_cluster_parallel_compiled_to(&c, &pages, threads, &mut sink)
                        }));
                        let payload = run.err().and_then(|p| p.downcast::<String>().ok());
                        let _ = done.send(payload.map(|p| *p));
                    });
                    let payload = outcome
                        .recv_timeout(std::time::Duration::from_secs(20))
                        .unwrap_or_else(|_| panic!("{row}: the drive hung after a sink panic"));
                    assert_eq!(
                        payload.as_deref(),
                        Some(format!("sink panicked on page {panic_at}").as_str()),
                        "{row}"
                    );
                }
            }
        }
    }

    #[test]
    fn counting_sink_dry_run_over_repository_drive() {
        let pages = varied_pages(10);
        let mut count = crate::sink::CountingSink::new();
        let stats =
            extract_cluster_parallel_compiled_to(&cluster().compile(), &pages, 1, &mut count)
                .unwrap();
        assert_eq!(count.pages, 10);
        assert_eq!(count.pages_with_values, 10);
        // runtime + two genres per page.
        assert_eq!(count.values, 30);
        assert_eq!(count.failures, stats.failures);
    }
}
