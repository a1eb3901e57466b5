//! Sink-based extraction output (the streaming redesign of §4's
//! extraction processor).
//!
//! The paper describes extraction as producing one three-level XML
//! document per cluster. Real consumers of this family of wrapper
//! systems — continuous monitoring pipelines, large-scale feed
//! ingestion — consume extraction output as a *stream of per-page
//! records*, and materialising an [`XmlDocument`] per batch costs
//! O(batch) memory before the first byte reaches them. This module
//! inverts the output path: the extraction drivers push each page's
//! record into an [`ExtractionSink`] the moment the page completes, and
//! the sink decides what the output *is* — streamed XML, NDJSON lines,
//! an in-memory [`ExtractionResult`], or bare counters.
//!
//! Shipped sinks:
//!
//! | Sink | Output |
//! |---|---|
//! | [`XmlWriterSink`] | indented XML streamed to any [`io::Write`], byte-identical to [`XmlDocument::to_string_with`] |
//! | [`JsonLinesSink`] | NDJSON — one JSON object per line per page/failure, plus a summary line |
//! | [`CollectSink`] | rebuilds the classic [`ExtractionResult`] (back-compat) |
//! | [`CountingSink`] | pages/values/failures tallies for check-style dry runs |

use crate::extract::{page_element_parts, ExtractionResult, RuleFailure};
use crate::repository::{CompiledCluster, StructureNode};
use retroweb_json::Json;
use retroweb_xml::{ClusterSchema, XmlDocument, XmlElement, XmlStreamWriter};
use std::collections::BTreeMap;
use std::io;

/// The encoding every extraction document declares (the paper's Figure 5
/// documents are ISO-8859-1; see `XmlDocument::with_encoding`).
pub const OUTPUT_ENCODING: &str = "ISO-8859-1";

/// One extracted page: component name → values, in component order.
/// This is the unit the drivers hand to a sink as each page completes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageRecord {
    pub values: BTreeMap<String, Vec<String>>,
}

impl PageRecord {
    pub fn new(values: BTreeMap<String, Vec<String>>) -> PageRecord {
        PageRecord { values }
    }

    /// Total extracted values across all components.
    pub fn value_count(&self) -> usize {
        self.values.values().map(Vec::len).sum()
    }
}

/// The cluster-level facts a sink may need, captured once at
/// [`ExtractionSink::begin_cluster`]: naming, the enhanced structure,
/// the component (rule) order for the default three-level layout, and
/// the derived XML Schema. Cheap to clone relative to a batch, so sinks
/// that outlive the borrow (all of them) just clone what they keep.
#[derive(Clone, Debug)]
pub struct ClusterHeader {
    /// Cluster name — the XML root element.
    pub cluster: String,
    /// Per-page element name.
    pub page_element: String,
    /// Enhanced structure; `None` means the default three-level layout.
    pub structure: Option<Vec<StructureNode>>,
    /// Component names in rule order (leaf emission order when no
    /// enhanced structure is recorded).
    pub components: Vec<String>,
    /// The cluster's derived XML Schema.
    pub schema: ClusterSchema,
}

impl ClusterHeader {
    /// Snapshot the sink-relevant parts of a compiled rule set.
    pub fn of(rules: &CompiledCluster) -> ClusterHeader {
        ClusterHeader {
            cluster: rules.cluster.clone(),
            page_element: rules.page_element.clone(),
            structure: rules.structure.clone(),
            components: rules.rules.iter().map(|r| r.name.as_str().to_string()).collect(),
            schema: rules.schema.clone(),
        }
    }

    /// Assemble one page's XML element from its record — the same
    /// assembly (structure honouring, leaf order, empty-group omission)
    /// the classic document builder runs.
    pub fn page_xml(&self, uri: &str, record: &PageRecord) -> XmlElement {
        page_element_parts(
            &self.page_element,
            self.structure.as_deref(),
            self.components.iter().map(String::as_str),
            uri,
            &record.values,
        )
    }
}

/// Where extraction output goes, one record at a time.
///
/// # Call-order contract
///
/// A driver makes exactly one pass:
///
/// 1. [`begin_cluster`](ExtractionSink::begin_cluster) — once, before
///    anything else;
/// 2. per page, **in input page order**:
///    [`page`](ExtractionSink::page) once, then
///    [`failure`](ExtractionSink::failure) once per §7 failure that
///    page produced (in rule order);
/// 3. [`end_cluster`](ExtractionSink::end_cluster) — once, last.
///
/// **Parallel ordering guarantee:** the parallel driver
/// (`extract_cluster_parallel_to`) deals pages out to worker threads in
/// strides and receives each worker's results over its own bounded
/// channel, in page order, so a sink observes exactly the sequence
/// above — identical to the sequential driver, byte-for-byte for writer
/// sinks — while the output buffered ahead of the sink at any instant
/// stays O(threads), independent of batch size.
///
/// Errors abort the drive: the driver stops submitting work and returns
/// the error without calling `end_cluster`.
pub trait ExtractionSink {
    fn begin_cluster(&mut self, header: &ClusterHeader) -> io::Result<()>;
    fn page(&mut self, uri: &str, record: &PageRecord) -> io::Result<()>;
    fn failure(&mut self, failure: &RuleFailure) -> io::Result<()>;
    fn end_cluster(&mut self) -> io::Result<()>;
}

/// What a drive produced, independent of the sink: page and §7 failure
/// counts. Returned by every `*_to` driver so callers (e.g. the service
/// metrics) don't need a counting wrapper around their real sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    pub pages: usize,
    pub failures: usize,
}

// ---- XmlWriterSink --------------------------------------------------------

/// Streams the §4 XML document to any [`io::Write`], one page element at
/// a time — byte-identical to `ExtractionResult::xml.to_string_with(n)`
/// for the same input (a property test holds this over arbitrary nested
/// structure groups). Memory stays O(page), not O(batch).
#[derive(Debug)]
pub struct XmlWriterSink<W: io::Write> {
    writer: XmlStreamWriter<W>,
    header: Option<ClusterHeader>,
}

impl<W: io::Write> XmlWriterSink<W> {
    /// A sink writing with the service's indent width (2).
    pub fn new(out: W) -> XmlWriterSink<W> {
        XmlWriterSink::with_indent(out, 2)
    }

    /// A sink writing with the given indent width (0 reproduces the
    /// paper's Figure 5 flat layout).
    pub fn with_indent(out: W, indent: usize) -> XmlWriterSink<W> {
        XmlWriterSink { writer: XmlStreamWriter::new(out, indent), header: None }
    }

    /// Bytes pushed to the underlying writer so far.
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

impl<W: io::Write> ExtractionSink for XmlWriterSink<W> {
    fn begin_cluster(&mut self, header: &ClusterHeader) -> io::Result<()> {
        self.writer.begin(OUTPUT_ENCODING, &XmlElement::new(&header.cluster))?;
        self.header = Some(header.clone());
        Ok(())
    }

    fn page(&mut self, uri: &str, record: &PageRecord) -> io::Result<()> {
        let header = self.header.as_ref().expect("begin_cluster before page");
        let el = header.page_xml(uri, record);
        self.writer.child(&el)
    }

    fn failure(&mut self, _failure: &RuleFailure) -> io::Result<()> {
        // Failures are not part of the XML document (they surface via
        // stats, NDJSON, or /metrics).
        Ok(())
    }

    fn end_cluster(&mut self) -> io::Result<()> {
        self.writer.finish()
    }
}

// ---- JsonLinesSink --------------------------------------------------------

/// NDJSON record stream: one compact JSON object per line, suited to
/// feed consumers (`tail -f`, line-oriented pipes, log shippers).
///
/// Line shapes:
///
/// ```text
/// {"type": "page", "uri": "…", "values": {"component": ["v1", …], …}}
/// {"type": "failure", "uri": "…", "component": "…", "kind": "mandatory-missing"}
/// {"type": "summary", "cluster": "…", "pages": N, "failures": M}
/// ```
///
/// Page lines appear in page order; each page's failure lines directly
/// follow it; the summary line is last.
#[derive(Debug)]
pub struct JsonLinesSink<W: io::Write> {
    out: W,
    cluster: String,
    pages: usize,
    failures: usize,
    bytes: u64,
}

impl<W: io::Write> JsonLinesSink<W> {
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink { out, cluster: String::new(), pages: 0, failures: 0, bytes: 0 }
    }

    /// Bytes pushed to the underlying writer so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    pub fn into_inner(self) -> W {
        self.out
    }

    fn write_line(&mut self, json: &Json) -> io::Result<()> {
        let mut line = json.to_string_compact();
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        self.bytes += line.len() as u64;
        Ok(())
    }
}

impl<W: io::Write> ExtractionSink for JsonLinesSink<W> {
    fn begin_cluster(&mut self, header: &ClusterHeader) -> io::Result<()> {
        self.cluster = header.cluster.clone();
        Ok(())
    }

    fn page(&mut self, uri: &str, record: &PageRecord) -> io::Result<()> {
        self.pages += 1;
        let values: Vec<(String, Json)> = record
            .values
            .iter()
            .map(|(name, vals)| {
                let arr = vals.iter().map(|v| Json::from(v.as_str())).collect();
                (name.clone(), Json::Array(arr))
            })
            .collect();
        let line = Json::object(vec![
            ("type".into(), Json::from("page")),
            ("uri".into(), Json::from(uri)),
            ("values".into(), Json::Object(values)),
        ]);
        self.write_line(&line)
    }

    fn failure(&mut self, failure: &RuleFailure) -> io::Result<()> {
        self.failures += 1;
        let line = Json::object(vec![
            ("type".into(), Json::from("failure")),
            ("uri".into(), Json::from(failure.uri.as_str())),
            ("component".into(), Json::from(failure.component.as_str())),
            ("kind".into(), Json::from(failure.kind.name())),
        ]);
        self.write_line(&line)
    }

    fn end_cluster(&mut self) -> io::Result<()> {
        let line = Json::object(vec![
            ("type".into(), Json::from("summary")),
            ("cluster".into(), Json::from(self.cluster.as_str())),
            ("pages".into(), Json::from(self.pages)),
            ("failures".into(), Json::from(self.failures)),
        ]);
        self.write_line(&line)?;
        self.out.flush()
    }
}

// ---- CollectSink ----------------------------------------------------------

/// Rebuilds the classic in-memory [`ExtractionResult`] — the sink behind
/// the back-compat `extract_cluster` / `extract_cluster_parallel`
/// wrappers. Never fails.
#[derive(Debug, Default)]
pub struct CollectSink {
    header: Option<ClusterHeader>,
    root: Option<XmlElement>,
    failures: Vec<RuleFailure>,
}

impl CollectSink {
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The rebuilt result. Panics if the drive never ran `begin_cluster`.
    pub fn into_result(self) -> ExtractionResult {
        let header = self.header.expect("drive completed");
        let root = self.root.expect("drive completed");
        ExtractionResult {
            xml: XmlDocument::new(root).with_encoding(OUTPUT_ENCODING),
            schema: header.schema,
            failures: self.failures,
        }
    }
}

impl ExtractionSink for CollectSink {
    fn begin_cluster(&mut self, header: &ClusterHeader) -> io::Result<()> {
        self.root = Some(XmlElement::new(&header.cluster));
        self.header = Some(header.clone());
        Ok(())
    }

    fn page(&mut self, uri: &str, record: &PageRecord) -> io::Result<()> {
        let header = self.header.as_ref().expect("begin_cluster before page");
        let el = header.page_xml(uri, record);
        self.root.as_mut().expect("begin_cluster before page").push_element(el);
        Ok(())
    }

    fn failure(&mut self, failure: &RuleFailure) -> io::Result<()> {
        self.failures.push(failure.clone());
        Ok(())
    }

    fn end_cluster(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---- CountingSink ---------------------------------------------------------

/// Tallies without producing output — the §7 check-style dry run: how
/// many pages yielded records, how many values, how many failures.
/// Never fails, never allocates per record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    pub pages: usize,
    /// Pages whose record carried at least one value.
    pub pages_with_values: usize,
    pub values: usize,
    pub failures: usize,
}

impl CountingSink {
    pub fn new() -> CountingSink {
        CountingSink::default()
    }
}

impl ExtractionSink for CountingSink {
    fn begin_cluster(&mut self, _header: &ClusterHeader) -> io::Result<()> {
        Ok(())
    }

    fn page(&mut self, _uri: &str, record: &PageRecord) -> io::Result<()> {
        self.pages += 1;
        let n = record.value_count();
        if n > 0 {
            self.pages_with_values += 1;
        }
        self.values += n;
        Ok(())
    }

    fn failure(&mut self, _failure: &RuleFailure) -> io::Result<()> {
        self.failures += 1;
        Ok(())
    }

    fn end_cluster(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::FailureKind;
    use retroweb_xml::SchemaNode;

    fn header() -> ClusterHeader {
        ClusterHeader {
            cluster: "movies".into(),
            page_element: "movie".into(),
            structure: Some(vec![
                StructureNode::Component("title".into()),
                StructureNode::Group {
                    name: "classification".into(),
                    children: vec![StructureNode::Component("genre".into())],
                },
            ]),
            components: vec!["title".into(), "genre".into()],
            schema: ClusterSchema::new(
                "movies",
                "movie",
                vec![SchemaNode::leaf("title", false, false, false)],
            ),
        }
    }

    fn record(title: &str, genres: &[&str]) -> PageRecord {
        let mut values = BTreeMap::new();
        values.insert("title".to_string(), vec![title.to_string()]);
        if !genres.is_empty() {
            values.insert("genre".to_string(), genres.iter().map(|s| s.to_string()).collect());
        }
        PageRecord::new(values)
    }

    fn drive(sink: &mut dyn ExtractionSink) {
        sink.begin_cluster(&header()).unwrap();
        sink.page("u0", &record("A & B", &["Drama", "Comedy"])).unwrap();
        sink.failure(&RuleFailure {
            uri: "u0".into(),
            component: "runtime".into(),
            kind: FailureKind::MandatoryMissing,
        })
        .unwrap();
        sink.page("u1", &record("C", &[])).unwrap();
        sink.end_cluster().unwrap();
    }

    #[test]
    fn xml_writer_matches_collected_document() {
        let mut xml = XmlWriterSink::new(Vec::new());
        drive(&mut xml);
        let streamed = String::from_utf8(xml.into_inner()).unwrap();

        let mut collect = CollectSink::new();
        drive(&mut collect);
        let result = collect.into_result();
        assert_eq!(streamed, result.xml.to_string_with(2));
        assert!(streamed.contains("<title>A &amp; B</title>"), "{streamed}");
        assert!(streamed.contains("<classification>"), "{streamed}");
        // The empty-genre page omits the (empty) group entirely.
        assert_eq!(streamed.matches("<classification>").count(), 1);
        assert_eq!(result.failures.len(), 1);
    }

    #[test]
    fn json_lines_shape() {
        let mut sink = JsonLinesSink::new(Vec::new());
        drive(&mut sink);
        let bytes = sink.bytes_written();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(bytes, text.len() as u64);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        let first = retroweb_json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("page"));
        assert_eq!(first.get("uri").and_then(Json::as_str), Some("u0"));
        let genres = first.get("values").unwrap().get("genre").unwrap().as_array().unwrap();
        assert_eq!(genres.len(), 2);
        let failure = retroweb_json::parse(lines[1]).unwrap();
        assert_eq!(failure.get("type").and_then(Json::as_str), Some("failure"));
        assert_eq!(failure.get("kind").and_then(Json::as_str), Some("mandatory-missing"));
        let summary = retroweb_json::parse(lines[3]).unwrap();
        assert_eq!(summary.get("type").and_then(Json::as_str), Some("summary"));
        assert_eq!(summary.get("pages").and_then(Json::as_u64), Some(2));
        assert_eq!(summary.get("failures").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn counting_sink_tallies() {
        let mut sink = CountingSink::new();
        drive(&mut sink);
        assert_eq!(sink, CountingSink { pages: 2, pages_with_values: 2, values: 4, failures: 1 });
    }

    #[test]
    fn empty_drive_self_closes() {
        let mut xml = XmlWriterSink::with_indent(Vec::new(), 0);
        xml.begin_cluster(&header()).unwrap();
        xml.end_cluster().unwrap();
        let text = String::from_utf8(xml.into_inner()).unwrap();
        assert!(text.ends_with("<movies/>\n"), "{text}");
    }
}
