//! The traced run: the same seeded requests replayed in-process through
//! the public function of each layer the server's handlers call, with a
//! span around each call. Spans stay in memory and are written out at the
//! end; the per-layer numbers are aggregated from them.
//!
//! Some layers cannot be reached from outside a call that contains them:
//! the batch driver parses and walks every page on its own threads. Those
//! parts are measured by calling the same functions again on the same
//! pages, as *shadow* spans; they are reported, but never added to the
//! ledger sum, which counts only a request's top-level spans.

use crate::inputs::{encode_op, expected, Inputs, Op};
use retroweb_json::Json;
use retroweb_service::http::{
    encode_full_response, encode_streaming_head, ChunkedWriter, ParseProgress, RequestParser,
    Response,
};
use retrozilla::{
    extract_cluster_parallel_compiled_to, extract_page_compiled, ClusterHeader, ClusterRules,
    ClusterStore, CollectSink, CompiledCluster, DurableRepository, ExtractionSink, JsonLinesSink,
    PageRecord, RuleFailure, ShardedRepository, XmlWriterSink,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The layers a served request passes through, as the handlers call them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one request.
    Request,
    HttpParse,
    HttpEncode,
    DecodeJson,
    StoreLookup,
    StoreCompile,
    WalRecord,
    HtmlParse,
    WalkFused,
    /// `extract_page_compiled`: the fused walk plus value processing.
    ExtractPage,
    SinkXml,
    SinkNdjson,
    DriverBatch,
}

pub const LAYERS: [Layer; 13] = [
    Layer::Request,
    Layer::HttpParse,
    Layer::HttpEncode,
    Layer::DecodeJson,
    Layer::StoreLookup,
    Layer::StoreCompile,
    Layer::WalRecord,
    Layer::HtmlParse,
    Layer::WalkFused,
    Layer::ExtractPage,
    Layer::SinkXml,
    Layer::SinkNdjson,
    Layer::DriverBatch,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::HttpParse => "http.parse",
            Layer::HttpEncode => "http.encode",
            Layer::DecodeJson => "decode.json",
            Layer::StoreLookup => "store.lookup",
            Layer::StoreCompile => "store.compile",
            Layer::WalRecord => "wal.record",
            Layer::HtmlParse => "html.parse",
            Layer::WalkFused => "walk.fused",
            Layer::ExtractPage => "extract.page",
            Layer::SinkXml => "sink.xml",
            Layer::SinkNdjson => "sink.ndjson",
            Layer::DriverBatch => "driver.batch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work repeated outside the served call to attribute its parts.
    pub shadow: bool,
}

/// Span recorder. With `on` false every call is a no-op, which is the
/// untraced side of the overhead measurement.
pub struct Tracer {
    on: bool,
    base: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn open(&mut self, layer: Layer, shadow: bool) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        if layer == Layer::Request {
            self.request += 1;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            request: self.request,
            parent: self.stack.last().copied().unwrap_or(NO_SPAN),
            start_ns: self.base.elapsed().as_nanos() as u64,
            end_ns: 0,
            shadow,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        self.spans[id as usize].end_ns = self.base.elapsed().as_nanos() as u64;
        self.stack.pop();
    }

    /// Write the spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\trequest\tparent\tlayer\tstart_ns\tend_ns\tshadow")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.shadow as u8
            )?;
        }
        out.flush()
    }
}

fn span<R>(t: &RefCell<Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = t.borrow_mut().open(layer, false);
    let out = f();
    t.borrow_mut().close(id);
    out
}

fn shadow<R>(t: &RefCell<Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = t.borrow_mut().open(layer, true);
    let out = f();
    t.borrow_mut().close(id);
    out
}

/// The fused walk alone: executor set-up and the one-pass plan, as
/// `extract_page_compiled` runs them before processing values.
fn shadow_walk(t: &RefCell<Tracer>, compiled: &CompiledCluster, doc: &retroweb_html::Document) {
    shadow(t, Layer::WalkFused, || {
        let exec = retroweb_xpath::Executor::new(doc);
        black_box(compiled.fused().execute(&exec));
    });
}

/// A sink whose every call is a span of `layer`.
struct TimedSink<'t, S> {
    inner: S,
    tracer: &'t RefCell<Tracer>,
    layer: Layer,
}

impl<S: ExtractionSink> ExtractionSink for TimedSink<'_, S> {
    fn begin_cluster(&mut self, header: &ClusterHeader) -> io::Result<()> {
        span(self.tracer, self.layer, || self.inner.begin_cluster(header))
    }

    fn page(&mut self, uri: &str, record: &PageRecord) -> io::Result<()> {
        span(self.tracer, self.layer, || self.inner.page(uri, record))
    }

    fn failure(&mut self, failure: &RuleFailure) -> io::Result<()> {
        span(self.tracer, self.layer, || self.inner.failure(failure))
    }

    fn end_cluster(&mut self) -> io::Result<()> {
        span(self.tracer, self.layer, || self.inner.end_cluster())
    }
}

/// A writer whose every call into the chunked framing is an
/// `http.encode` span.
struct TimedWrite<'t, W> {
    inner: W,
    tracer: &'t RefCell<Tracer>,
}

impl<W: Write> Write for TimedWrite<'_, W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        span(self.tracer, Layer::HttpEncode, || self.inner.write(data))
    }

    fn flush(&mut self) -> io::Result<()> {
        span(self.tracer, Layer::HttpEncode, || self.inner.flush())
    }
}

/// Undo chunked framing; `None` on a malformed stream.
fn dechunk(mut wire: &[u8]) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line = wire.windows(2).position(|w| w == b"\r\n")?;
        let size = usize::from_str_radix(std::str::from_utf8(&wire[..line]).ok()?, 16).ok()?;
        wire = &wire[line + 2..];
        body.extend_from_slice(wire.get(..size)?);
        if wire.get(size..size + 2)? != b"\r\n" {
            return None;
        }
        wire = &wire[size + 2..];
        if size == 0 {
            return wire.is_empty().then_some(body);
        }
    }
}

/// Counts gathered while replaying, for the per-byte and per-page ratios.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub requests: u64,
    pub pages: u64,
    pub failures: u64,
    pub html_bytes: u64,
    pub json_bytes: u64,
    pub output_bytes: u64,
    /// Replies that differed from the expected body.
    pub mismatches: u64,
}

/// The in-process stand-in for the server: the same store and
/// persistence the server runs with `--repo`, and the same handler
/// steps, each called through its public function.
pub struct Replay<'a> {
    inputs: &'a Inputs,
    durable: DurableRepository,
    versions: Vec<u8>,
    request: Vec<u8>,
    pub work: Work,
}

/// The server's defaults: 8 in-memory shards, batch parallelism 4, and
/// a compaction every 1024 logged mutations.
const SHARDS: usize = 8;
const EXTRACT_THREADS: usize = 4;
const COMPACT_EVERY: u64 = 1024;

impl<'a> Replay<'a> {
    /// A WAL-backed store in `dir` holding every cluster at version 0,
    /// compiled and cached, as after the served set-up.
    pub fn new(inputs: &'a Inputs, dir: &Path) -> io::Result<Replay<'a>> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let store: Arc<dyn ClusterStore> = Arc::new(ShardedRepository::new(SHARDS));
        let durable = DurableRepository::attach_wal(
            store,
            dir.join("rules.json"),
            &dir.join("rules.json.wal"),
            COMPACT_EVERY,
        )?;
        for c in &inputs.clusters {
            durable.record(inputs.families[c.family].named(&c.name, 0))?;
            durable.store().compiled(&c.name).expect("recorded cluster compiles");
        }
        Ok(Replay {
            inputs,
            durable,
            versions: vec![0; inputs.clusters.len()],
            request: Vec::with_capacity(128 * 1024),
            work: Work::default(),
        })
    }

    /// Replay one request; the reply is checked against the expected body.
    pub fn run(&mut self, t: &RefCell<Tracer>, op: Op) {
        let (cluster, put) = match op {
            Op::Extract { cluster, .. } | Op::Batch { cluster, .. } => (cluster as usize, false),
            Op::Put { cluster } => (cluster as usize, true),
        };
        let version = self.versions[cluster] ^ put as u8;
        encode_op(&mut self.request, self.inputs, op, version);
        let mut buf = self.request.clone();
        let name = self.inputs.clusters[cluster].name.as_str();
        let root = t.borrow_mut().open(Layer::Request, false);
        let req = span(t, Layer::HttpParse, || match RequestParser::new().advance(&mut buf) {
            ParseProgress::Complete(req) => req,
            other => panic!("replayed request did not parse: {other:?}"),
        });
        let store = self.durable.store();
        let body_ok = match op {
            Op::Extract { .. } => {
                let html = std::str::from_utf8(&req.body).expect("UTF-8 page").to_string();
                let uri = req.header("x-page-uri").unwrap_or("page").to_string();
                let compiled = span(t, Layer::StoreLookup, || store.compiled(name)).expect("known");
                let doc = span(t, Layer::HtmlParse, || retroweb_html::parse(&html));
                // The walk is repeated on its own, before the served call
                // on even requests and after it on odd ones, so the cache
                // one run leaves for the other favours neither side.
                let walk_first = self.work.requests.is_multiple_of(2);
                if walk_first {
                    shadow_walk(t, &compiled, &doc);
                }
                let mut failures = Vec::new();
                let values = span(t, Layer::ExtractPage, || {
                    extract_page_compiled(&compiled, &uri, &doc, &mut failures)
                });
                if !walk_first {
                    shadow_walk(t, &compiled, &doc);
                }
                let failed = failures.len();
                let xml = span(t, Layer::SinkXml, || {
                    let mut sink = CollectSink::new();
                    sink.begin_cluster(&ClusterHeader::of(&compiled)).expect("in memory");
                    sink.page(&uri, &PageRecord::new(values)).expect("in memory");
                    for f in &failures {
                        sink.failure(f).expect("in memory");
                    }
                    sink.end_cluster().expect("in memory");
                    sink.into_result().xml.to_string_with(2)
                });
                let out_bytes = xml.len();
                let wire = span(t, Layer::HttpEncode, || {
                    encode_full_response(
                        &Response::xml(xml).with_header("x-retroweb-failures", failed),
                    )
                });
                t.borrow_mut().close(root);
                self.work.pages += 1;
                self.work.failures += failed as u64;
                self.work.html_bytes += html.len() as u64;
                self.work.output_bytes += out_bytes as u64;
                let body = &wire[wire.len() - out_bytes..];
                expected(self.inputs, op, version).is_some_and(|e| e.matches(body, name))
            }
            Op::Batch { ndjson, .. } => {
                let pages = span(t, Layer::DecodeJson, || {
                    let json = retroweb_json::parse(std::str::from_utf8(&req.body).expect("UTF-8"))
                        .expect("valid batch body");
                    json.as_array()
                        .expect("page array")
                        .iter()
                        .map(|p| {
                            let field = |k| p.get(k).and_then(Json::as_str).expect("page field");
                            (field("uri").to_string(), field("html").to_string())
                        })
                        .collect::<Vec<_>>()
                });
                let compiled = span(t, Layer::StoreLookup, || store.compiled(name)).expect("known");
                let content_type =
                    if ndjson { "application/x-ndjson" } else { "application/xml; charset=UTF-8" };
                let mut wire = span(t, Layer::HttpEncode, || {
                    encode_streaming_head(200, content_type, &[], true, false)
                });
                let head_len = wire.len();
                let mut chunked = ChunkedWriter::new(&mut wire);
                let threads = EXTRACT_THREADS;
                let stats = span(t, Layer::DriverBatch, || {
                    let out = TimedWrite { inner: &mut chunked, tracer: t };
                    if ndjson {
                        let inner = JsonLinesSink::new(out);
                        let mut sink = TimedSink { inner, tracer: t, layer: Layer::SinkNdjson };
                        extract_cluster_parallel_compiled_to(&compiled, &pages, threads, &mut sink)
                    } else {
                        let inner = XmlWriterSink::new(out);
                        let mut sink = TimedSink { inner, tracer: t, layer: Layer::SinkXml };
                        extract_cluster_parallel_compiled_to(&compiled, &pages, threads, &mut sink)
                    }
                })
                .expect("in-memory sink");
                let out_bytes = span(t, Layer::HttpEncode, || chunked.finish()).expect("in memory");
                // The driver's per-page parts, measured again one by one.
                for (i, (uri, html)) in pages.iter().enumerate() {
                    let doc = shadow(t, Layer::HtmlParse, || retroweb_html::parse(html));
                    let walk_first = i % 2 == 0;
                    if walk_first {
                        shadow_walk(t, &compiled, &doc);
                    }
                    shadow(t, Layer::ExtractPage, || {
                        black_box(extract_page_compiled(&compiled, uri, &doc, &mut Vec::new()))
                    });
                    if !walk_first {
                        shadow_walk(t, &compiled, &doc);
                    }
                    self.work.html_bytes += html.len() as u64;
                }
                t.borrow_mut().close(root);
                self.work.pages += stats.pages as u64;
                self.work.failures += stats.failures as u64;
                self.work.json_bytes += req.body.len() as u64;
                self.work.output_bytes += out_bytes;
                let body = dechunk(&wire[head_len..]);
                let expected = expected(self.inputs, op, version);
                body.zip(expected).is_some_and(|(b, e)| e.matches(&b, name))
            }
            Op::Put { .. } => {
                let rules = span(t, Layer::DecodeJson, || {
                    let json = retroweb_json::parse(std::str::from_utf8(&req.body).expect("UTF-8"))
                        .expect("valid cluster body");
                    ClusterRules::from_json(&json).expect("valid cluster")
                });
                let n_rules = rules.rules.len();
                let lint = span(t, Layer::StoreCompile, || rules.lint());
                let replaced = span(t, Layer::StoreLookup, || store.get(name).is_some());
                span(t, Layer::WalRecord, || self.durable.record(rules)).expect("durable record");
                span(t, Layer::StoreCompile, || store.compiled(name)).expect("recorded");
                let wire = span(t, Layer::HttpEncode, || {
                    let json = Json::object(vec![
                        ("cluster".into(), Json::from(name)),
                        ("rules".into(), Json::from(n_rules)),
                        ("replaced".into(), Json::from(replaced)),
                        ("lint".into(), lint.to_json()),
                    ]);
                    encode_full_response(&Response::json(if replaced { 200 } else { 201 }, &json))
                });
                t.borrow_mut().close(root);
                self.work.json_bytes += req.body.len() as u64;
                self.versions[cluster] = version;
                black_box(wire);
                replaced
            }
        };
        self.work.requests += 1;
        if !body_ok {
            self.work.mismatches += 1;
        }
    }
}

/// Per-layer totals aggregated from spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Self time (duration minus child spans), ns, per layer.
    pub self_ns: [f64; LAYERS.len()],
    /// Duration of top-level, non-shadow spans, ns, per layer.
    pub top_ns: [f64; LAYERS.len()],
}

impl LayerTimes {
    pub fn from_spans(spans: &[Span]) -> LayerTimes {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut times = LayerTimes::default();
        for (i, s) in spans.iter().enumerate() {
            let duration = s.end_ns - s.start_ns;
            times.self_ns[s.layer.index()] += duration.saturating_sub(child_ns[i]) as f64;
            let top = s.parent != NO_SPAN && spans[s.parent as usize].layer == Layer::Request;
            if top && !s.shadow {
                times.top_ns[s.layer.index()] += duration as f64;
            }
        }
        times
    }

    pub fn self_of(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()]
    }

    pub fn top_of(&self, layer: Layer) -> f64 {
        self.top_ns[layer.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dechunk_reads_framed_bodies() {
        assert_eq!(dechunk(b"3\r\nabc\r\n1\r\nd\r\n0\r\n\r\n").as_deref(), Some(&b"abcd"[..]));
        assert_eq!(dechunk(b"3\r\nabc\r\n"), None, "no terminal chunk");
        assert_eq!(dechunk(b"3\r\nabcX\r\n0\r\n\r\n"), None);
    }

    #[test]
    fn self_time_excludes_children_and_top_level_skips_shadows() {
        let s = |layer, parent, start_ns, end_ns, shadow| Span {
            layer,
            request: 1,
            parent,
            start_ns,
            end_ns,
            shadow,
        };
        let spans = vec![
            s(Layer::Request, NO_SPAN, 0, 100, false),
            s(Layer::DriverBatch, 0, 10, 60, false),
            s(Layer::SinkXml, 1, 20, 40, false),
            s(Layer::HttpEncode, 2, 25, 30, false),
            s(Layer::HtmlParse, 0, 60, 90, true),
        ];
        let t = LayerTimes::from_spans(&spans);
        assert_eq!(t.self_of(Layer::DriverBatch), 30.0);
        assert_eq!(t.self_of(Layer::SinkXml), 15.0);
        assert_eq!(t.self_of(Layer::HttpEncode), 5.0);
        assert_eq!(t.top_of(Layer::DriverBatch), 50.0);
        assert_eq!(t.top_of(Layer::SinkXml), 0.0, "nested in the driver");
        assert_eq!(t.top_of(Layer::HtmlParse), 0.0, "shadow work is not on the path");
        assert_eq!(t.self_of(Layer::HtmlParse), 30.0);
    }
}
