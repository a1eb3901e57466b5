//! Request routing and endpoint handlers.
//!
//! Every handler goes through the shared [`ServiceState`]: extraction
//! and drift checking run the repository's *compiled-cluster cache*
//! (`ClusterStore::compiled`), so a `PUT /clusters/{name}` — which
//! re-records the cluster and thereby invalidates the cache — is a hot
//! rule reload observed by the very next request.

use crate::http::{Reply, Request, Response, StreamingResponse};
use crate::metrics::Endpoint;
use crate::ServiceState;
use retroweb_json::Json;
use retroweb_sitegen::Page;
use retrozilla::{
    detect_failures, extract_cluster_parallel_compiled_to, ClusterRules, JsonLinesSink, SamplePage,
    XmlWriterSink,
};
use std::sync::Arc;

/// Batch extraction parallelism when the request sets no `?threads=`.
const EXTRACT_THREADS: usize = 4;
/// Cap on `?threads=` for batch extraction.
const MAX_EXTRACT_THREADS: usize = 32;

/// Dispatch one request. Returns the endpoint family (for metrics) and
/// the reply — fully materialised for most endpoints, streamed for
/// `/extract/{c}/batch`.
pub fn route(arc_state: &Arc<ServiceState>, req: &Request) -> (Endpoint, Reply) {
    // Plain handlers borrow the state; only the streaming batch handler
    // needs the `Arc` itself (its body closure outlives this call).
    let state: &ServiceState = arc_state;
    // Path segments are percent-decoded before matching, so
    // `PUT /clusters/my%20cluster` addresses the cluster "my cluster" —
    // the same name a `GET` with the decoded form resolves. An invalid
    // escape is the client's bug, reported as such. Escape-free
    // segments (every hot-path request) borrow — no allocation.
    let decoded: Result<Vec<std::borrow::Cow<'_, str>>, ()> = req
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|seg| crate::http::percent_decode(seg).ok_or(()))
        .collect();
    let Ok(decoded) = decoded else {
        return (
            Endpoint::Other,
            Response::error(400, "invalid percent-escape in request path").into(),
        );
    };
    let segments: Vec<&str> = decoded.iter().map(|s| s.as_ref()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => (Endpoint::Other, index().into()),
        ("GET", ["healthz"]) => (Endpoint::Healthz, healthz(state).into()),
        ("GET", ["metrics"]) => (Endpoint::Metrics, metrics(state).into()),
        ("GET", ["clusters"]) => (Endpoint::Clusters, list_clusters(state).into()),
        ("GET", ["clusters", name]) => (Endpoint::Clusters, get_cluster(state, name).into()),
        ("GET", ["clusters", name, "lint"]) => (Endpoint::Lint, lint_cluster(state, name).into()),
        ("PUT", ["clusters", name]) => (Endpoint::Clusters, put_cluster(state, name, req).into()),
        ("DELETE", ["clusters", name]) => (Endpoint::Clusters, delete_cluster(state, name).into()),
        ("GET", ["lint"]) => (Endpoint::Lint, lint_repository(state).into()),
        ("POST", ["extract", name]) => (Endpoint::Extract, extract_one(state, name, req).into()),
        ("POST", ["extract", name, "batch"]) => {
            (Endpoint::ExtractBatch, extract_batch(arc_state, name, req))
        }
        ("POST", ["check", name]) => (Endpoint::Check, check(state, name, req).into()),
        // Known paths with the wrong verb get a 405 instead of a 404.
        (_, ["healthz" | "metrics" | "clusters" | "extract" | "check" | "lint", ..]) => {
            (Endpoint::Other, Response::error(405, "method not allowed").into())
        }
        _ => (Endpoint::Other, Response::error(404, "no such endpoint").into()),
    }
}

fn index() -> Response {
    Response::text(
        200,
        "retroweb-service — rule-repository extraction server\n\
         \n\
         GET  /healthz                     liveness + cluster count\n\
         GET  /metrics                     counters and latency histograms\n\
         GET  /clusters                    recorded cluster names\n\
         GET  /clusters/{name}             one cluster's rules (repository JSON)\n\
         GET  /clusters/{name}/lint        rule-linter findings for one cluster\n\
         GET  /lint                        rule-linter findings for every cluster\n\
         PUT  /clusters/{name}             record rules (hot reload), body = cluster JSON\n\
                                           (400 on error-level findings with --strict-lint)\n\
         DELETE /clusters/{name}           drop a cluster\n\
         POST /extract/{name}              body = HTML page -> extracted XML\n\
         POST /extract/{name}/batch        body = [{\"uri\",\"html\"},...] -> streamed cluster XML\n\
                                           (chunked; Accept: application/x-ndjson for NDJSON records)\n\
         POST /check/{name}                body = [{\"uri\",\"html\"},...] -> drift report\n",
    )
}

fn healthz(state: &ServiceState) -> Response {
    let json = Json::object(vec![
        ("status".into(), Json::from("ok")),
        ("clusters".into(), Json::from(state.repo().len())),
        ("shutting_down".into(), Json::from(state.shutting_down())),
    ]);
    Response::json(200, &json)
}

fn metrics(state: &ServiceState) -> Response {
    let json = state.metrics().to_json(
        &state.repo().shard_stats(),
        state.durable().shard_wal_stats().as_deref(),
        state.worker_snapshot(),
    );
    Response::json(200, &json)
}

fn list_clusters(state: &ServiceState) -> Response {
    let names: Vec<Json> =
        state.repo().cluster_names().iter().map(|n| Json::from(n.as_str())).collect();
    Response::json(200, &Json::object(vec![("clusters".into(), Json::Array(names))]))
}

fn get_cluster(state: &ServiceState, name: &str) -> Response {
    match state.repo().cluster_json(name) {
        Some(json) => Response::json(200, &json),
        None => unknown_cluster(name),
    }
}

/// `PUT /clusters/{name}`: validate, lint, record (invalidating the
/// compiled cache — hot reload), and persist when the server owns a
/// repository file. Rejections surface the repository error's full
/// context so a bad rule document is diagnosable from the response
/// alone; an XPath that fails to parse comes back as a structured
/// `parse-error` diagnostic with its byte offset. With `--strict-lint`,
/// rule sets carrying error-level linter findings (provably-empty
/// paths, unsatisfiable predicates) are rejected with the diagnostics;
/// otherwise findings ride along in the success body.
fn put_cluster(state: &ServiceState, name: &str, req: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let json = match retroweb_json::parse(body) {
        Ok(json) => json,
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
    };
    let rules = match ClusterRules::from_json(&json) {
        Ok(rules) => rules,
        Err(e) => {
            // An unparseable location is the linter's business too:
            // answer with a structured parse-error diagnostic (byte
            // offset into the rejected expression) instead of only the
            // flattened message.
            if let Some(ctx) = &e.xpath {
                state.metrics().add_lint_parse_rejection();
                let mut diag = Json::object(vec![
                    ("code".into(), Json::from("parse-error")),
                    ("severity".into(), Json::from("error")),
                    ("message".into(), Json::from(e.message.as_str())),
                    ("xpath".into(), Json::from(ctx.text.as_str())),
                    (
                        "span".into(),
                        Json::Array(vec![Json::from(ctx.offset), Json::from(ctx.offset)]),
                    ),
                ]);
                if let Some(key) = &e.key {
                    diag.set("key", Json::from(key.as_str()));
                }
                let body = Json::object(vec![
                    ("error".into(), Json::from(e.to_string().as_str())),
                    ("diagnostics".into(), Json::Array(vec![diag])),
                ]);
                return Response::json(400, &body);
            }
            return Response::error(400, &e.to_string());
        }
    };
    if rules.cluster != name {
        return Response::error(
            400,
            &format!(
                "cluster name mismatch: path says '{name}', document says '{}'",
                rules.cluster
            ),
        );
    }
    let lint = rules.lint();
    state.metrics().observe_lint(&lint);
    if state.strict_lint() && lint.has_errors() {
        state.metrics().add_strict_lint_rejection();
        let body = Json::object(vec![
            (
                "error".into(),
                Json::from(
                    format!(
                        "strict-lint: {} error-level finding(s) in cluster '{name}'",
                        lint.errors()
                    )
                    .as_str(),
                ),
            ),
            ("lint".into(), lint.to_json()),
        ]);
        return Response::json(400, &body);
    }
    let n_rules = rules.rules.len();
    // Durable before acknowledged: in WAL mode this is one fsynced
    // O(change) log append (plus the in-memory hot reload), not a whole-
    // repository rewrite. A failed fsync leaves the old rules live. The
    // store decides `replaced` as it records, so of racing PUTs of a new
    // name exactly one answers 201.
    let replaced = match state.durable().record(rules) {
        Ok(replaced) => replaced,
        Err(e) => return Response::error(500, &format!("cannot persist cluster mutation: {e}")),
    };
    state.metrics().add_rule_reload();
    // Warm the compiled-cluster cache: the first extraction pays
    // nothing, and the `/metrics` lint/fusion gauges reflect this
    // cluster immediately instead of after the next extraction.
    let _ = state.repo().compiled(name);
    let json = Json::object(vec![
        ("cluster".into(), Json::from(name)),
        ("rules".into(), Json::from(n_rules)),
        ("replaced".into(), Json::from(replaced)),
        ("lint".into(), lint.to_json()),
    ]);
    Response::json(if replaced { 200 } else { 201 }, &json)
}

/// `GET /clusters/{name}/lint`: the cached lint findings for one
/// cluster (compiling it on first touch).
fn lint_cluster(state: &ServiceState, name: &str) -> Response {
    match state.repo().compiled(name) {
        Some(compiled) => Response::json(200, &compiled.lint().to_json()),
        None => unknown_cluster(name),
    }
}

/// `GET /lint`: the repo-wide audit — every cluster's findings in name
/// order plus severity totals. Deterministic across shard counts: the
/// name list is sorted and lint is a pure function of each rule set.
fn lint_repository(state: &ServiceState) -> Response {
    let names = state.repo().cluster_names();
    let mut results = Vec::with_capacity(names.len());
    let (mut errors, mut warnings, mut infos) = (0, 0, 0);
    for name in &names {
        // A cluster removed between the name listing and this lookup
        // just drops out of the report.
        let Some(compiled) = state.repo().compiled(name) else { continue };
        let lint = compiled.lint();
        errors += lint.errors();
        warnings += lint.warnings();
        infos += lint.infos();
        results.push(lint.to_json());
    }
    let json = Json::object(vec![
        ("clusters".into(), Json::from(results.len())),
        ("errors".into(), Json::from(errors)),
        ("warnings".into(), Json::from(warnings)),
        ("infos".into(), Json::from(infos)),
        ("results".into(), Json::Array(results)),
    ]);
    Response::json(200, &json)
}

fn delete_cluster(state: &ServiceState, name: &str) -> Response {
    match state.durable().remove(name) {
        Ok(true) => Response::json(200, &Json::object(vec![("removed".into(), Json::from(name))])),
        Ok(false) => unknown_cluster(name),
        Err(e) => Response::error(500, &format!("cannot persist cluster removal: {e}")),
    }
}

/// Decode a raw HTML page body honouring the request's charset: this
/// system exists to extract from retro-era sites, so ISO-8859-1 pages
/// (the encoding the XML output itself declares) must not be lossily
/// replaced with U+FFFD. Latin-1 decoding is total, so the fallback for
/// undeclared non-UTF-8 bytes is lossless too.
fn decode_page_body(req: &Request) -> String {
    let latin1 = |bytes: &[u8]| -> String { bytes.iter().map(|&b| b as char).collect() };
    let charset = req
        .header("content-type")
        .and_then(|ct| ct.to_ascii_lowercase().split("charset=").nth(1).map(str::to_string))
        .map(|cs| cs.trim().trim_matches('"').trim_end_matches(';').to_string());
    match charset.as_deref() {
        Some(cs) if cs.starts_with("iso-8859-1") || cs.starts_with("latin1") => latin1(&req.body),
        _ => match std::str::from_utf8(&req.body) {
            Ok(s) => s.to_string(),
            Err(_) => latin1(&req.body),
        },
    }
}

/// `POST /extract/{name}`: body is one HTML page; the page URI comes
/// from the `X-Page-Uri` header when present. The batch endpoint's
/// driver runs it on this thread, writing the XML into the reply body.
fn extract_one(state: &ServiceState, name: &str, req: &Request) -> Response {
    let Some(rules) = state.repo().compiled(name) else {
        return unknown_cluster(name);
    };
    let uri = req.header("x-page-uri").unwrap_or("page").to_string();
    let pages = [(uri, decode_page_body(req))];
    let mut sink = XmlWriterSink::new(Vec::new());
    let stats = extract_cluster_parallel_compiled_to(&rules, &pages, 1, &mut sink)
        .expect("writing to a Vec never fails");
    state.metrics().add_pages_extracted(stats.pages);
    state.metrics().add_failures_detected(stats.failures);
    Response::new(200, "application/xml; charset=UTF-8", sink.into_inner())
        .with_header("x-retroweb-failures", stats.failures)
}

/// Did the client ask for the NDJSON record stream instead of XML?
fn wants_ndjson(req: &Request) -> bool {
    req.header("accept").is_some_and(|accept| {
        accept.split(',').any(|part| {
            part.split(';')
                .next()
                .is_some_and(|mt| mt.trim().eq_ignore_ascii_case("application/x-ndjson"))
        })
    })
}

/// `POST /extract/{name}/batch`: body is a JSON array of pages, fanned
/// out over `?threads=` scoped workers (default `EXTRACT_THREADS`) and
/// **streamed** — the response is chunked, with the first page's bytes
/// on the wire while later pages are still extracting, and server
/// memory bounded by O(threads) regardless of batch size. The
/// concatenated XML body is byte-identical to a direct
/// `extract_cluster_html` call; `Accept: application/x-ndjson` selects the
/// NDJSON record stream instead. Summary counts live on `GET /metrics`
/// (`pages_extracted`, `failures_detected`, `bytes_streamed`) — a
/// streamed reply cannot carry them as headers.
fn extract_batch(state: &Arc<ServiceState>, name: &str, req: &Request) -> Reply {
    // Everything that can 4xx is decided before the head is sent; the
    // compiled rules are pinned here, before the body is decoded (an
    // unknown cluster costs no decode), so a concurrent rule reload
    // cannot change them mid-stream.
    let Some(compiled) = state.repo().compiled(name) else {
        return Reply::Full(unknown_cluster(name));
    };
    // An unparseable ?threads= is a client error, not a silent default;
    // so is an invalid percent-escape in the value.
    let threads = match req.decoded_query_param("threads") {
        Err(_) => {
            return Reply::Full(Response::error(400, "invalid percent-escape in ?threads= value"))
        }
        Ok(None) => EXTRACT_THREADS,
        Ok(Some(raw)) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Reply::Full(Response::error(
                    400,
                    &format!("bad ?threads= value '{raw}': expected a positive integer"),
                ))
            }
        },
    }
    .min(MAX_EXTRACT_THREADS);
    let pages = match parse_pages(req) {
        Ok(pages) => pages,
        Err(resp) => return Reply::Full(*resp),
    };
    let ndjson = wants_ndjson(req);
    let state = Arc::clone(state);
    let body = Box::new(move |out: &mut dyn std::io::Write| {
        let stats = if ndjson {
            let mut sink = JsonLinesSink::new(out);
            extract_cluster_parallel_compiled_to(&compiled, &pages, threads, &mut sink)?
        } else {
            let mut sink = XmlWriterSink::new(out);
            extract_cluster_parallel_compiled_to(&compiled, &pages, threads, &mut sink)?
        };
        state.metrics().add_pages_extracted(stats.pages);
        state.metrics().add_failures_detected(stats.failures);
        Ok(())
    });
    Reply::Streaming(StreamingResponse {
        status: 200,
        content_type: if ndjson {
            "application/x-ndjson"
        } else {
            "application/xml; charset=UTF-8"
        },
        headers: Vec::new(),
        body,
    })
}

/// `POST /check/{name}`: run the §7 failure detectors over submitted
/// pages and report the drift.
fn check(state: &ServiceState, name: &str, req: &Request) -> Response {
    let Some(compiled) = state.repo().compiled(name) else {
        return unknown_cluster(name);
    };
    let pages = match parse_pages(req) {
        Ok(pages) => pages,
        Err(resp) => return *resp,
    };
    let sample: Vec<SamplePage> = pages
        .into_iter()
        .map(|(uri, html)| SamplePage::from_page(Page::new(uri, html, name)))
        .collect();
    let failures = detect_failures(&compiled, &sample);
    state.metrics().add_failures_detected(failures.len());
    let items: Vec<Json> = failures
        .iter()
        .map(|f| {
            Json::object(vec![
                ("uri".into(), Json::from(f.uri.as_str())),
                ("component".into(), Json::from(f.component.as_str())),
                ("kind".into(), Json::from(f.kind.name())),
            ])
        })
        .collect();
    let json = Json::object(vec![
        ("cluster".into(), Json::from(name)),
        ("pages".into(), Json::from(sample.len())),
        ("drifted".into(), Json::from(!failures.is_empty())),
        ("failures".into(), Json::Array(items)),
    ]);
    Response::json(200, &json)
}

fn unknown_cluster(name: &str) -> Response {
    Response::error(404, &format!("no cluster '{name}' in the repository"))
}

/// Parse the `[{"uri": …, "html": …}, …]` page-list body shared by the
/// batch and check endpoints. Bare strings are accepted as pages with
/// generated URIs. Boxed error to keep the happy-path result small.
fn parse_pages(req: &Request) -> Result<Vec<(String, String)>, Box<Response>> {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| Box::new(Response::error(400, "body must be UTF-8 JSON")))?;
    let json = retroweb_json::parse(body)
        .map_err(|e| Box::new(Response::error(400, &format!("body is not valid JSON: {e}"))))?;
    let items = json
        .as_array()
        .ok_or_else(|| Box::new(Response::error(400, "body must be a JSON array of pages")))?;
    let mut pages = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if let Some(html) = item.as_str() {
            pages.push((format!("page-{i}"), html.to_string()));
            continue;
        }
        let html = item.get("html").and_then(Json::as_str).ok_or_else(|| {
            Box::new(Response::error(400, &format!("page [{i}] is missing string field 'html'")))
        })?;
        let uri = item
            .get("uri")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("page-{i}"));
        pages.push((uri, html.to_string()));
    }
    Ok(pages)
}
