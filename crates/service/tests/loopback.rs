//! Loopback end-to-end tests: concurrent clients over real TCP, served
//! output held byte-identical to direct extraction output, hot
//! rule reload mid-run, and a draining shutdown.

use retroweb_service::testdata::{
    self, demo_pages, demo_repository, direct_extract_xml, drifted_page, pages_json, DEMO_CLUSTER,
};
use retroweb_service::{request_once, Client, Server, ServerConfig};
use retrozilla::{DurableRepository, RepositorySnapshot, ShardManifest};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn start_server(config: ServerConfig) -> retroweb_service::ServerHandle {
    Server::bind(demo_repository(), config).expect("bind").start().expect("start")
}

/// A server over `config` with no seed: its repository directory alone
/// decides what is live.
fn start_unseeded(config: ServerConfig) -> retroweb_service::ServerHandle {
    Server::bind(RepositorySnapshot::default(), config).expect("bind").start().expect("start")
}

/// The state a restart would see, read back from a repository path.
fn reopen(repo: &Path) -> DurableRepository {
    DurableRepository::open(repo, 1, 1024, None).expect("reopen")
}

/// The acceptance-criteria test: ≥ 4 concurrent clients hammering
/// `/extract/{cluster}/batch`, every response byte-identical to the
/// direct extraction for whichever rule version was live, a mid-run
/// `PUT /clusters/{name}` hot reload observed by every later request
/// with nothing dropped, and a shutdown that drains cleanly.
#[test]
fn concurrent_batch_extraction_with_hot_reload() {
    let handle = start_server(ServerConfig { threads: 6, ..Default::default() });
    let addr = handle.addr();

    let pages = demo_pages(16);
    let body = pages_json(&pages);
    let want_v1 =
        direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);
    let want_v2 =
        direct_extract_xml(&testdata::cluster_from(&testdata::updated_cluster_json()), &pages);
    assert_ne!(want_v1, want_v2, "reload must be observable");

    // Set once the PUT response has come back: any request *sent* after
    // this point must see the v2 rules.
    let reloaded = Arc::new(AtomicBool::new(false));
    // Completed requests across all clients; gates the reload so it
    // provably lands mid-run.
    let completed = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    const CLIENTS: usize = 5;
    const MIN_REQUESTS_PER_CLIENT: usize = 6;
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let body = body.as_str();
            let want_v1 = want_v1.as_str();
            let want_v2 = want_v2.as_str();
            let reloaded = Arc::clone(&reloaded);
            let completed = Arc::clone(&completed);
            clients.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut saw_v2 = false;
                let mut requests = 0usize;
                // Run until this client has both done its share of
                // traffic and observed the reload.
                while !(saw_v2 && requests >= MIN_REQUESTS_PER_CLIENT) {
                    requests += 1;
                    assert!(requests <= 500, "client {c}: never observed the reload");
                    let sent_after_reload = reloaded.load(Ordering::SeqCst);
                    let resp = client
                        .request(
                            "POST",
                            &format!("/extract/{DEMO_CLUSTER}/batch?threads=2"),
                            &[],
                            body.as_bytes(),
                        )
                        .expect("batch request");
                    assert_eq!(resp.status, 200, "client {c} request {requests}");
                    let got = resp.body_utf8();
                    if got == want_v1 {
                        assert!(
                            !sent_after_reload,
                            "client {c} request {requests}: stale rules after reload completed"
                        );
                        assert!(
                            !saw_v2,
                            "client {c} request {requests}: rules went backwards (v2 then v1)"
                        );
                    } else if got == want_v2 {
                        saw_v2 = true;
                    } else {
                        panic!("client {c} request {requests}: matches neither rule version");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                requests
            }));
        }

        // Let real traffic accumulate, then hot-reload mid-run.
        while completed.load(Ordering::SeqCst) < CLIENTS * 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let resp = request_once(
            addr,
            "PUT",
            &format!("/clusters/{DEMO_CLUSTER}"),
            &[],
            testdata::updated_cluster_json().as_bytes(),
        )
        .expect("PUT reload");
        assert_eq!(resp.status, 200, "{}", resp.body_utf8());
        reloaded.store(true, Ordering::SeqCst);

        let totals: Vec<usize> = clients.into_iter().map(|c| c.join().expect("client")).collect();
        // Every client kept its connection through the reload and did
        // real work on both sides of it.
        assert!(totals.iter().all(|&t| t >= MIN_REQUESTS_PER_CLIENT), "{totals:?}");
    });

    // The repository-level counters saw the invalidation.
    let stats = handle.state().repo().stats();
    assert!(stats.compiled_cache_invalidations >= 1, "{stats:?}");
    assert!(stats.compiled_cache_hits > 0, "{stats:?}");
    handle.shutdown();
}

/// Shutdown drains: connections accepted before shutdown still get full
/// responses, none are dropped.
#[test]
fn shutdown_drains_accepted_connections() {
    // Two loops for a burst of ten: several connections share a loop,
    // and streamed bodies are still being written when shutdown begins.
    let handle = start_server(ServerConfig { threads: 2, ..Default::default() });
    let addr = handle.addr();
    let pages = demo_pages(8);
    let body = Arc::new(pages_json(&pages));
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);

    const BURST: usize = 10;
    let mut clients = Vec::new();
    for _ in 0..BURST {
        let body = Arc::clone(&body);
        clients.push(std::thread::spawn(move || {
            request_once(
                addr,
                "POST",
                &format!("/extract/{DEMO_CLUSTER}/batch"),
                &[],
                body.as_bytes(),
            )
        }));
    }
    // Give the loops time to accept and read the whole burst, then shut
    // down while most responses are still pending.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    let mut served = 0;
    for client in clients {
        let resp = client.join().expect("client thread").expect("response after drain");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_utf8(), want, "drained response still correct");
        served += 1;
    }
    assert_eq!(served, BURST, "no accepted request may be dropped");
}

#[test]
fn crud_check_and_errors() {
    let dir = std::env::temp_dir().join(format!("retroweb-service-crud-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let repo_path = dir.join("rules.json");
    let handle =
        start_server(ServerConfig { repo_path: Some(repo_path.clone()), ..Default::default() });
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // GET the recorded cluster: exactly its repository JSON.
    let resp = client.request("GET", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let got = retroweb_json::parse(&resp.body_utf8()).unwrap();
    assert_eq!(got, testdata::cluster_from(&testdata::demo_cluster_json()).to_json());

    // Cluster list.
    let resp = client.request("GET", "/clusters", &[], b"").unwrap();
    assert!(resp.body_utf8().contains(DEMO_CLUSTER));

    // PUT persists durably — as a WAL append in `rules.json.d/`, never
    // a write to the `rules.json` path itself — and replaying the
    // directory reproduces the acknowledged mutation.
    let resp = client
        .request(
            "PUT",
            &format!("/clusters/{DEMO_CLUSTER}"),
            &[],
            testdata::updated_cluster_json().as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(!repo_path.exists(), "PUT must not rewrite the whole repository file");
    let on_disk = reopen(&repo_path);
    assert_eq!(
        on_disk.store().get(DEMO_CLUSTER),
        Some(testdata::cluster_from(&testdata::updated_cluster_json()))
    );
    drop(on_disk);

    // Bad rule documents are rejected with diagnosable context.
    let bad = r#"{"cluster":"demo-movies","page-element":"p","rules":[{"name":"ok","optionality":"sometimes","multiplicity":"single-valued","format":"text","locations":[]}]}"#;
    let resp =
        client.request("PUT", &format!("/clusters/{DEMO_CLUSTER}"), &[], bad.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    let msg = resp.body_utf8().into_owned();
    assert!(msg.contains("bad optionality 'sometimes'"), "{msg}");
    assert!(msg.contains("rules[0].optionality"), "{msg}");

    // Name mismatch between path and document.
    let resp = client
        .request("PUT", "/clusters/other-name", &[], testdata::demo_cluster_json().as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_utf8().contains("mismatch"), "{}", resp.body_utf8());

    // Drift check: clean pages report no drift, drifted pages do.
    let clean = pages_json(&demo_pages(3));
    let resp =
        client.request("POST", &format!("/check/{DEMO_CLUSTER}"), &[], clean.as_bytes()).unwrap();
    let report = resp.body_json().unwrap();
    // v2 rules are live after the PUT above; clean pages still satisfy them.
    assert_eq!(report.get("drifted").and_then(|d| d.as_bool()), Some(false), "{report}");

    let drifted = pages_json(&[drifted_page(0), drifted_page(1)]);
    let resp =
        client.request("POST", &format!("/check/{DEMO_CLUSTER}"), &[], drifted.as_bytes()).unwrap();
    let report = resp.body_json().unwrap();
    assert_eq!(report.get("drifted").and_then(|d| d.as_bool()), Some(true), "{report}");
    let failures = report.get("failures").and_then(|f| f.as_array()).unwrap();
    assert!(
        failures.iter().any(|f| f.get("component").and_then(|c| c.as_str()) == Some("title")
            && f.get("kind").and_then(|k| k.as_str()) == Some("mandatory-missing")),
        "{report}"
    );

    // Unknown clusters and endpoints.
    let resp = client.request("POST", "/extract/nope", &[], b"<html></html>").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("GET", "/no/such/path", &[], b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("PATCH", "/clusters/x", &[], b"").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client.request("POST", &format!("/check/{DEMO_CLUSTER}"), &[], b"not json").unwrap();
    assert_eq!(resp.status, 400);

    // DELETE removes and persists (another log append).
    let resp = client.request("DELETE", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("GET", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"").unwrap();
    assert_eq!(resp.status, 404);
    handle.shutdown();
    assert!(reopen(&repo_path).store().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

/// Unsupported or oversized framing is rejected up front with the right
/// status, never misread as an empty body.
#[test]
fn framing_rejections() {
    use std::io::{Read, Write};

    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let raw = |request: &str| -> String {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    };

    // Chunked transfer encoding: rejected, not framed as Content-Length 0.
    let resp = raw(
        "POST /extract/demo-movies HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("Transfer-Encoding is not supported"), "{resp}");

    // Declared body beyond the cap: 413, closed before reading it.
    let resp = raw("POST /extract/demo-movies HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    // HTTP/1.0 without keep-alive: the server must close, or an
    // EOF-delimited 1.0 client (like this helper) hangs forever.
    let resp = raw("GET /healthz HTTP/1.0\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("connection: close"), "{resp}");

    // `Expect: 100-continue` gets an immediate interim nod (otherwise
    // curl stalls ~1 s before uploading any large batch body), then the
    // real response once the body arrives.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"POST /extract/demo-movies HTTP/1.1\r\nexpect: 100-continue\r\n\
              connection: close\r\ncontent-length: 26\r\n\r\n",
        )
        .expect("write head");
    let mut first = [0u8; 25];
    stream.read_exact(&mut first).expect("interim response");
    assert_eq!(&first, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(b"<html><body>x</body></html>"[..26].as_ref()).expect("write body");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("final response");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");

    // An HTTP/1.0 peer's Expect header is ignored (RFC 7231 §5.1.1):
    // 1xx interim responses postdate 1.0 and would be misread as the
    // final response. The first bytes it sees must be the real reply.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"POST /extract/demo-movies HTTP/1.0\r\nexpect: 100-continue\r\n\
              content-length: 26\r\n\r\n",
        )
        .expect("write head");
    std::thread::sleep(Duration::from_millis(50)); // give a buggy nod time to arrive
    stream.write_all(b"<html><body>x</body></html>"[..26].as_ref()).expect("write body");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("response");
    assert!(resp.starts_with("HTTP/1.1 200"), "1.0 peer must never see a 100: {resp}");

    handle.shutdown();
}

/// ISO-8859-1 pages — the encoding the paper's sites (and our XML
/// declaration) use — must not be lossily mangled on the way in.
#[test]
fn latin1_page_bodies_decode_losslessly() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    // "Amélie" with é as the single Latin-1 byte 0xE9 — invalid UTF-8.
    let mut body = b"<html><body><h1>Am\xE9lie</h1><ul><li>Drama</li></ul></body></html>".to_vec();
    assert!(std::str::from_utf8(&body).is_err());
    let mut client = Client::connect(addr).expect("connect");
    // Declared charset.
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}"),
            &[("content-type", "text/html; charset=ISO-8859-1")],
            &body,
        )
        .expect("latin1 extract");
    assert_eq!(resp.status, 200);
    assert!(resp.body_utf8().contains("<title>Am\u{e9}lie</title>"), "{}", resp.body_utf8());
    // Undeclared charset falls back to Latin-1 for non-UTF-8 bytes.
    body.rotate_left(0); // same body, no content-type header
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}"), &[], &body)
        .expect("fallback extract");
    assert!(resp.body_utf8().contains("<title>Am\u{e9}lie</title>"), "{}", resp.body_utf8());
    handle.shutdown();
}

/// The streaming acceptance criterion: `/extract/{c}/batch` responds
/// with chunked Transfer-Encoding, and the decoded body is byte-
/// identical to the pre-streaming buffered output (= a direct
/// `extract_cluster_compiled(...).xml.to_string_with(2)`).
#[test]
fn chunked_batch_decodes_to_buffered_bytes() {
    use std::io::{Read, Write};

    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let pages = demo_pages(48);
    let body = pages_json(&pages);
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);

    // Through the decoding client: body equality plus framing headers.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch?threads=3"), &[], body.as_bytes())
        .expect("batch");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.header("content-length"), None, "streamed reply must not be sized");
    assert_eq!(resp.header("x-retroweb-pages"), None, "batch no longer carries count headers");
    assert_eq!(resp.body_utf8(), want);
    // The connection stays usable after a chunked exchange.
    let resp = client.request("GET", "/healthz", &[], b"").expect("keep-alive after chunked");
    assert_eq!(resp.status, 200);
    // Summary counters for the batch path live on /metrics now; the
    // body is counted once, pre-framing.
    let resp = client.request("GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().unwrap();
    assert_eq!(
        metrics.get("bytes_streamed").unwrap().as_u64(),
        Some(want.len() as u64),
        "{metrics}"
    );
    assert_eq!(metrics.get("pages_extracted").unwrap().as_u64(), Some(48));

    // Raw socket: the wire really is chunk-framed (hex length lines),
    // not just advertised as such.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let body_start = raw.find("\r\n\r\n").unwrap() + 4;
    let first_chunk_line = raw[body_start..].lines().next().unwrap();
    assert!(
        usize::from_str_radix(first_chunk_line.trim(), 16).is_ok(),
        "first body line must be a hex chunk size, got {first_chunk_line:?}"
    );
    assert!(raw.ends_with("0\r\n\r\n"), "terminal chunk missing");

    // An HTTP/1.0 peer (no chunked framing) gets the same bytes
    // EOF-delimited with `connection: close`.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.0\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("connection: close"), "{}", &raw[..raw.find("\r\n\r\n").unwrap()]);
    assert!(!raw.contains("transfer-encoding"), "1.0 peer must not get chunked framing");
    assert_eq!(&raw[raw.find("\r\n\r\n").unwrap() + 4..], want);

    handle.shutdown();
}

/// `Accept: application/x-ndjson` negotiates the record stream: one
/// JSON object per page, failures in-line, a summary line last.
#[test]
fn batch_ndjson_negotiation() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut pages = demo_pages(5);
    pages.push(drifted_page(5)); // one mandatory-missing failure
    let body = pages_json(&pages);

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch?threads=2"),
            &[("accept", "application/x-ndjson")],
            body.as_bytes(),
        )
        .expect("ndjson batch");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    let text = resp.body_utf8().into_owned();
    let lines: Vec<retroweb_json::Json> =
        text.lines().map(|l| retroweb_json::parse(l).expect(l)).collect();
    // 6 page lines + 1 failure line + 1 summary line, pages in order.
    assert_eq!(lines.len(), 8, "{text}");
    let page_uris: Vec<&str> = lines
        .iter()
        .filter(|l| l.get("type").and_then(|t| t.as_str()) == Some("page"))
        .map(|l| l.get("uri").and_then(|u| u.as_str()).unwrap())
        .collect();
    let want_uris: Vec<&str> = pages.iter().map(|(u, _)| u.as_str()).collect();
    assert_eq!(page_uris, want_uris);
    assert_eq!(
        lines[0].get("values").unwrap().get("title").unwrap().as_array().unwrap()[0].as_str(),
        Some("Movie 0")
    );
    let failure = lines
        .iter()
        .find(|l| l.get("type").and_then(|t| t.as_str()) == Some("failure"))
        .expect("failure line");
    assert_eq!(failure.get("component").and_then(|c| c.as_str()), Some("title"));
    assert_eq!(failure.get("kind").and_then(|k| k.as_str()), Some("mandatory-missing"));
    let summary = lines.last().unwrap();
    assert_eq!(summary.get("type").and_then(|t| t.as_str()), Some("summary"));
    assert_eq!(summary.get("pages").and_then(|p| p.as_u64()), Some(6));
    assert_eq!(summary.get("failures").and_then(|f| f.as_u64()), Some(1));

    // XML remains the default for clients that don't ask for NDJSON.
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch"),
            &[("accept", "text/html, application/xml")],
            body.as_bytes(),
        )
        .expect("xml batch");
    assert!(resp.header("content-type").unwrap().starts_with("application/xml"));

    handle.shutdown();
}

/// An unparseable or zero `?threads=` is a diagnosed 400, not a silent
/// default.
#[test]
fn bad_threads_param_is_rejected() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let body = pages_json(&demo_pages(2));
    let mut client = Client::connect(addr).expect("connect");
    for bad in ["abc", "-1", "3.5", "", "0"] {
        let resp = client
            .request(
                "POST",
                &format!("/extract/{DEMO_CLUSTER}/batch?threads={bad}"),
                &[],
                body.as_bytes(),
            )
            .expect("request");
        assert_eq!(resp.status, 400, "threads={bad}");
        assert!(resp.body_utf8().contains("threads"), "{}", resp.body_utf8());
    }
    // Parseable values still work (and are clamped, not rejected).
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch?threads=9999"),
            &[],
            body.as_bytes(),
        )
        .expect("request");
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

/// An unknown cluster is a `404` decided before the body is decoded: a
/// malformed page array sent to a missing cluster's batch or check
/// endpoint never reaches the JSON decoder.
#[test]
fn unknown_cluster_is_rejected_before_the_body_is_decoded() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for path in ["/extract/nope/batch", "/check/nope"] {
        let resp = client.request("POST", path, &[], b"[{\"html\": ").expect("request");
        assert_eq!(resp.status, 404, "{path}: {}", resp.body_utf8());
        assert!(resp.body_utf8().contains("no cluster 'nope'"), "{}", resp.body_utf8());
    }
    handle.shutdown();
}

/// The WAL acceptance criterion end-to-end, on a one-shard directory:
/// acknowledged mutations are single log appends (no snapshot rewrite),
/// a restart replays them, and crossing `compact_every` folds the log
/// into the snapshot and truncates it.
#[test]
fn wal_mutations_survive_restart_and_compact() {
    let dir = std::env::temp_dir().join(format!("retroweb-service-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let shard_dir = dir.join("rules.json.d");
    let snapshot_path = ShardManifest::snapshot_path(&shard_dir, 0);
    let wal_path = ShardManifest::wal_path(&shard_dir, 0);
    let config = ServerConfig {
        repo_path: Some(dir.join("rules.json")),
        shards: 1,
        compact_every: 3,
        ..Default::default()
    };

    // First server lifetime: two mutations — below the compaction
    // threshold, so everything lives in the log.
    let handle = start_unseeded(config.clone());
    let addr = handle.addr();
    let resp = request_once(
        addr,
        "PUT",
        &format!("/clusters/{DEMO_CLUSTER}"),
        &[],
        testdata::demo_cluster_json().as_bytes(),
    )
    .expect("PUT");
    assert_eq!(resp.status, 201, "{}", resp.body_utf8());
    let resp = request_once(
        addr,
        "PUT",
        &format!("/clusters/{DEMO_CLUSTER}"),
        &[],
        testdata::updated_cluster_json().as_bytes(),
    )
    .expect("PUT v2");
    assert_eq!(resp.status, 200);
    assert!(!snapshot_path.exists(), "mutations must not rewrite the snapshot");
    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let wal = resp.body_json().unwrap().get("wal").expect("wal metrics section").clone();
    assert_eq!(wal.get("appended_records").unwrap().as_u64(), Some(2), "{wal}");
    assert!(wal.get("appended_bytes").unwrap().as_u64().unwrap() > 0);
    assert_eq!(wal.get("compactions").unwrap().as_u64(), Some(0));
    handle.shutdown();

    // Restart: the log replays over the (absent) snapshot; v2 is live.
    let handle = start_unseeded(config.clone());
    let addr = handle.addr();
    let resp =
        request_once(addr, "GET", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"").expect("GET");
    assert_eq!(resp.status, 200);
    assert_eq!(
        retroweb_json::parse(&resp.body_utf8()).unwrap(),
        testdata::cluster_from(&testdata::updated_cluster_json()).to_json(),
        "replayed state must be the last acknowledged mutation"
    );
    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let wal = resp.body_json().unwrap().get("wal").expect("wal section").clone();
    assert_eq!(wal.get("replayed_records").unwrap().as_u64(), Some(2), "{wal}");
    assert_eq!(wal.get("replay_torn_bytes").unwrap().as_u64(), Some(0));

    // One more mutation crosses compact_every (2 replayed + 1 = 3):
    // the snapshot appears, the log truncates back to its magic.
    let resp = request_once(
        addr,
        "PUT",
        &format!("/clusters/{DEMO_CLUSTER}"),
        &[],
        testdata::demo_cluster_json().as_bytes(),
    )
    .expect("PUT triggering compaction");
    assert_eq!(resp.status, 200);
    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let wal = resp.body_json().unwrap().get("wal").expect("wal section").clone();
    assert_eq!(wal.get("compactions").unwrap().as_u64(), Some(1), "{wal}");
    assert_eq!(wal.get("since_compaction").unwrap().as_u64(), Some(0));
    let snapshot = RepositorySnapshot::load(&snapshot_path).expect("compacted snapshot");
    assert_eq!(
        snapshot.get(DEMO_CLUSTER),
        Some(&testdata::cluster_from(&testdata::demo_cluster_json()))
    );
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 8, "log truncated to its magic");
    handle.shutdown();

    // Third lifetime: state comes purely from the snapshot.
    let handle = start_unseeded(config);
    assert_eq!(handle.state().durable().wal_stats().unwrap().replayed_records, 0);
    let resp = request_once(handle.addr(), "GET", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"")
        .expect("GET");
    assert_eq!(resp.status, 200);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Racing `PUT`s of one new cluster: on a durable server with 4 loops,
/// 8 keep-alive connections released together by a barrier must get
/// exactly one `201` and seven `200`s, trial after trial (a `DELETE`
/// makes the name new again).
#[test]
fn racing_puts_of_a_new_cluster_answer_201_once() {
    let dir =
        std::env::temp_dir().join(format!("retroweb-service-put-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let handle = start_unseeded(ServerConfig {
        repo_path: Some(dir.join("rules.json")),
        threads: 4,
        ..Default::default()
    });
    let addr = handle.addr();
    let path = format!("/clusters/{DEMO_CLUSTER}");
    let body = testdata::demo_cluster_json();
    for trial in 0..6 {
        let clients: Vec<Client> =
            (0..8).map(|_| Client::connect(addr).expect("connect")).collect();
        let barrier = Arc::new(std::sync::Barrier::new(clients.len()));
        let statuses: Vec<u16> = std::thread::scope(|scope| {
            let racers: Vec<_> = clients
                .into_iter()
                .map(|mut client| {
                    let (barrier, path, body) = (Arc::clone(&barrier), &path, &body);
                    scope.spawn(move || {
                        barrier.wait();
                        client.request("PUT", path, &[], body.as_bytes()).expect("PUT").status
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let created = statuses.iter().filter(|&&s| s == 201).count();
        let replaced = statuses.iter().filter(|&&s| s == 200).count();
        assert_eq!((created, replaced), (1, 7), "trial {trial}: statuses {statuses:?}");
        let resp = request_once(addr, "DELETE", &path, &[], b"").expect("DELETE");
        assert_eq!(resp.status, 200, "{}", resp.body_utf8());
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The directory layout end-to-end over HTTP: a server started with
/// `repo_path` opens `<repo>.d/` (one snapshot + WAL per shard),
/// mutations land as fsynced appends in exactly the shard their cluster
/// routes to, `/metrics` exposes per-shard gauges, a restart replays
/// every shard (in parallel), and per-shard compaction folds only that
/// shard's clusters.
#[test]
fn shard_layout_over_http() {
    use retrozilla::shard_for;
    let dir = std::env::temp_dir().join(format!("retroweb-service-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let repo_path = dir.join("rules.json");
    let shard_dir = dir.join("rules.json.d");
    let config = ServerConfig {
        repo_path: Some(repo_path.clone()),
        shards: 4,
        compact_every: 1_000,
        ..Default::default()
    };

    // First lifetime: record clusters under several names.
    let handle = start_unseeded(config.clone());
    let addr = handle.addr();
    let names = ["alpha-movies", "beta-movies", "gamma-movies", "delta-movies"];
    for name in names {
        let body = testdata::demo_cluster_json().replace("demo-movies", name);
        let resp = request_once(addr, "PUT", &format!("/clusters/{name}"), &[], body.as_bytes())
            .expect("PUT");
        assert_eq!(resp.status, 201, "{name}: {}", resp.body_utf8());
    }
    assert!(shard_dir.join("manifest.json").exists(), "manifest committed");
    assert!(!repo_path.exists(), "nothing is written outside the directory");
    // Each mutation was appended to the WAL its cluster routes to.
    for name in names {
        let wal = ShardManifest::wal_path(&shard_dir, shard_for(name, 4));
        assert!(wal.exists());
        let replayed = retrozilla::replay(&wal).unwrap();
        assert!(!replayed.ops.is_empty(), "{name} shard log empty");
    }
    // Per-shard gauges on /metrics.
    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().unwrap();
    let repo_shards = metrics.get("repository").unwrap().get("shards").unwrap();
    assert_eq!(repo_shards.as_array().unwrap().len(), 4, "{metrics}");
    let clusters_by_shard: usize = repo_shards
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("clusters").unwrap().as_u64().unwrap() as usize)
        .sum();
    assert_eq!(clusters_by_shard, names.len());
    let wal_shards = metrics.get("wal").unwrap().get("per_shard").unwrap();
    assert_eq!(wal_shards.as_array().unwrap().len(), 4);
    // Extraction works against the sharded store.
    let (_, html) = testdata::demo_page(3);
    let resp =
        request_once(addr, "POST", "/extract/beta-movies", &[], html.as_bytes()).expect("extract");
    assert_eq!(resp.status, 200);
    assert!(resp.body_utf8().contains("<title>Movie 3</title>"), "{}", resp.body_utf8());
    handle.shutdown();

    // Second lifetime: every shard replays.
    let handle = start_unseeded(config.clone());
    let state = handle.state();
    assert_eq!(state.durable().wal_stats().unwrap().replayed_records, names.len() as u64);
    assert_eq!(state.repo().len(), names.len());
    for name in names {
        let resp = request_once(handle.addr(), "GET", &format!("/clusters/{name}"), &[], b"")
            .expect("GET");
        assert_eq!(resp.status, 200, "{name} lost across restart");
    }
    // Compact: each shard folds only its own clusters into its own
    // snapshot; the logs truncate.
    state.durable().compact().unwrap();
    for name in names {
        let shard = shard_for(name, 4);
        let snap = RepositorySnapshot::load(&ShardManifest::snapshot_path(&shard_dir, shard))
            .expect("shard snapshot");
        assert!(snap.get(name).is_some(), "{name} missing from shard {shard} snapshot");
        for other in names {
            if shard_for(other, 4) != shard {
                assert!(snap.get(other).is_none(), "{other} leaked into shard {shard}");
            }
        }
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Binding a sharded server with a non-empty seed repository is
/// idempotent: the first start records the seed durably, a restart
/// with the same seed appends nothing (the opened layout already
/// holds the clusters) — otherwise every boot would replay the whole
/// seed into the WALs again.
#[test]
fn sharded_seed_is_recorded_once_across_restarts() {
    let dir = std::env::temp_dir().join(format!("retroweb-service-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServerConfig {
        repo_path: Some(dir.join("rules.json")),
        shards: 4,
        compact_every: 1_000_000,
        ..Default::default()
    };
    let handle = start_server(config.clone()); // demo repository seed (1 cluster)
    assert_eq!(
        handle.state().durable().wal_stats().unwrap().appended_records,
        0,
        "seed initialises the fresh layout inside the first-start commit, not the logs"
    );
    assert_eq!(handle.state().repo().len(), 1);
    handle.shutdown();
    let handle = start_server(config.clone()); // same seed again
    let stats = handle.state().durable().wal_stats().unwrap();
    assert_eq!(stats.appended_records, 0, "restart must not re-append the seed");
    assert_eq!(handle.state().repo().len(), 1);
    // A durable DELETE must survive restarts even though the seed still
    // names the cluster — the layout's history is authoritative, and
    // re-seeding would resurrect the deleted cluster.
    let resp =
        request_once(handle.addr(), "DELETE", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"")
            .expect("DELETE");
    assert_eq!(resp.status, 200);
    handle.shutdown();
    let handle = start_server(config); // same seed once more
    let resp = request_once(handle.addr(), "GET", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"")
        .expect("GET");
    assert_eq!(resp.status, 404, "deleted cluster must stay deleted across restarts");
    assert_eq!(handle.state().repo().len(), 0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Percent-encoded path segments and query values are decoded before
/// matching; invalid escapes are diagnosed 400s, not silent literals.
#[test]
fn percent_encoded_names_round_trip() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // PUT under an encoded name records the *decoded* cluster…
    let body = testdata::demo_cluster_json().replace("demo-movies", "demo movies");
    let resp = client.request("PUT", "/clusters/demo%20movies", &[], body.as_bytes()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body_utf8());
    // …which the cluster list shows decoded…
    let resp = client.request("GET", "/clusters", &[], b"").unwrap();
    assert!(resp.body_utf8().contains("demo movies"), "{}", resp.body_utf8());
    assert!(!resp.body_utf8().contains("demo%20movies"), "{}", resp.body_utf8());
    // …and an encoded GET resolves. (Pre-fix, the PUT recorded a
    // cluster literally named "demo%20movies" and this GET 404'd.)
    let resp = client.request("GET", "/clusters/demo%20movies", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let got = retroweb_json::parse(&resp.body_utf8()).unwrap();
    assert_eq!(got.get("cluster").and_then(|c| c.as_str()), Some("demo movies"));
    // Extraction works through the encoded name too.
    let (_, html) = testdata::demo_page(0);
    let resp = client.request("POST", "/extract/demo%20movies", &[], html.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_utf8().contains("<title>Movie 0</title>"), "{}", resp.body_utf8());
    // DELETE through the encoded name.
    let resp = client.request("DELETE", "/clusters/demo%20movies", &[], b"").unwrap();
    assert_eq!(resp.status, 200);

    // Invalid escapes: path and query are both diagnosed.
    for path in ["/clusters/bad%zz", "/clusters/trunc%2", "/clusters/%ff"] {
        let resp = client.request("GET", path, &[], b"").unwrap();
        assert_eq!(resp.status, 400, "{path}");
        assert!(resp.body_utf8().contains("percent-escape"), "{}", resp.body_utf8());
    }
    let pages = pages_json(&demo_pages(2));
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch?threads=%zz"),
            &[],
            pages.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_utf8().contains("percent-escape"), "{}", resp.body_utf8());
    // A valid escaped query value decodes (%34 = "4").
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch?threads=%34"),
            &[],
            pages.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_utf8());
    handle.shutdown();
}

/// After a DELETE, the repository metrics stay coherent: the compiled-
/// cache entry dies with its cluster, so the entries gauge can never
/// exceed the cluster count.
#[test]
fn metrics_repo_counters_coherent_after_delete() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Compile the cluster by extracting once.
    let (_, html) = testdata::demo_page(0);
    let resp =
        client.request("POST", &format!("/extract/{DEMO_CLUSTER}"), &[], html.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let repo = |client: &mut Client| {
        let resp = client.request("GET", "/metrics", &[], b"").unwrap();
        resp.body_json().unwrap().get("repository").unwrap().clone()
    };
    let before = repo(&mut client);
    assert_eq!(before.get("clusters").unwrap().as_u64(), Some(1));
    assert_eq!(before.get("compiled_cache_entries").unwrap().as_u64(), Some(1));

    let resp = client.request("DELETE", &format!("/clusters/{DEMO_CLUSTER}"), &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let after = repo(&mut client);
    assert_eq!(after.get("clusters").unwrap().as_u64(), Some(0));
    assert_eq!(
        after.get("compiled_cache_entries").unwrap().as_u64(),
        Some(0),
        "a removed cluster's compilation must die with it: {after}"
    );
    assert_eq!(after.get("compiled_cache_invalidations").unwrap().as_u64(), Some(1));
    // And extraction against the dead cluster is a 404, not a stale hit.
    let resp =
        client.request("POST", &format!("/extract/{DEMO_CLUSTER}"), &[], html.as_bytes()).unwrap();
    assert_eq!(resp.status, 404);
    handle.shutdown();
}

/// A hot reload rebuilds the cluster's fused one-pass plan: the
/// `/metrics` fusion gauges track the live rule set's shape, not the
/// shape at first compile.
#[test]
fn hot_reload_rebuilds_fused_plan() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    let (_, html) = testdata::demo_page(0);
    let fusion = |client: &mut Client| {
        let resp = client.request("GET", "/metrics", &[], b"").unwrap();
        resp.body_json().unwrap().get("fusion").expect("fusion section").clone()
    };

    // Nothing compiled yet: no plans.
    assert_eq!(fusion(&mut client).get("plans").unwrap().as_u64(), Some(0));

    // Extract once to force the compile; the v1 demo cluster has three
    // rules with one location each, all fusible absolute paths.
    let resp =
        client.request("POST", &format!("/extract/{DEMO_CLUSTER}"), &[], html.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let v1 = fusion(&mut client);
    assert_eq!(v1.get("plans").unwrap().as_u64(), Some(1));
    assert_eq!(v1.get("paths_fused").unwrap().as_u64(), Some(3));
    assert_eq!(v1.get("paths_fallback").unwrap().as_u64(), Some(0));
    assert!(v1.get("steps_total").unwrap().as_u64().unwrap() > 0);

    // Hot reload to the two-rule v2 set and extract again: the fused
    // plan must have been rebuilt for the new rules.
    let resp = client
        .request(
            "PUT",
            &format!("/clusters/{DEMO_CLUSTER}"),
            &[],
            testdata::updated_cluster_json().as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_utf8());
    let resp =
        client.request("POST", &format!("/extract/{DEMO_CLUSTER}"), &[], html.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let v2 = fusion(&mut client);
    assert_eq!(v2.get("plans").unwrap().as_u64(), Some(1));
    assert_eq!(
        v2.get("paths_fused").unwrap().as_u64(),
        Some(2),
        "reload must rebuild the fused plan: {v2}"
    );
    assert_ne!(
        v1.get("steps_total").unwrap().as_u64(),
        v2.get("steps_total").unwrap().as_u64(),
        "plan shape must follow the live rules"
    );
    handle.shutdown();
}

#[test]
fn metrics_reflect_traffic() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    let (uri, html) = testdata::demo_page(0);
    for _ in 0..3 {
        let resp = client
            .request(
                "POST",
                &format!("/extract/{DEMO_CLUSTER}"),
                &[("x-page-uri", uri.as_str())],
                html.as_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-retroweb-failures"), Some("0"));
    }
    let resp = client.request("POST", "/extract/nope", &[], b"x").unwrap();
    assert_eq!(resp.status, 404);

    let resp = client.request("GET", "/metrics", &[], b"").unwrap();
    let metrics = resp.body_json().unwrap();
    let requests = metrics.get("requests").unwrap();
    assert!(requests.get("total").unwrap().as_u64().unwrap() >= 4);
    assert_eq!(requests.get("by_endpoint").unwrap().get("extract").unwrap().as_u64(), Some(4));
    assert_eq!(metrics.get("pages_extracted").unwrap().as_u64(), Some(3));
    assert_eq!(metrics.get("responses").unwrap().get("4xx").unwrap().as_u64(), Some(1));
    let repo = metrics.get("repository").unwrap();
    assert_eq!(repo.get("clusters").unwrap().as_u64(), Some(1));
    // 1 build + 2 cache hits from the three extractions.
    assert_eq!(repo.get("compiled_cache_builds").unwrap().as_u64(), Some(1));
    assert!(repo.get("compiled_cache_hits").unwrap().as_u64().unwrap() >= 2);
    let latency = metrics.get("latency_ms").unwrap().get("extract").unwrap();
    assert_eq!(latency.get("count").unwrap().as_u64(), Some(4));
    assert!(latency.get("p99_ms").unwrap().as_f64().unwrap() > 0.0);

    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_utf8().contains("\"ok\""));
    handle.shutdown();
}

/// A single drifted page answers with the direct extraction's bytes, and
/// `x-retroweb-failures` carries the §7 failure count the page primitive
/// reports for that page.
#[test]
fn single_page_failure_header_counts_drift() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let page = drifted_page(0);
    let rules = testdata::cluster_from(&testdata::demo_cluster_json());
    let mut failures = Vec::new();
    retrozilla::extract_page_compiled(
        &rules.compile(),
        &page.0,
        &retroweb_html::parse(&page.1),
        &mut failures,
    );
    assert!(!failures.is_empty(), "the drifted page must fail a detector");

    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}"),
            &[("x-page-uri", page.0.as_str())],
            page.1.as_bytes(),
        )
        .expect("extract");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_utf8(), direct_extract_xml(&rules, std::slice::from_ref(&page)));
    let want = failures.len().to_string();
    assert_eq!(resp.header("x-retroweb-failures"), Some(want.as_str()));
    handle.shutdown();
}

/// A cluster JSON body whose one rule has the given location list — the
/// minimal PUT payload for the lint tests.
fn lint_cluster_json(cluster: &str, locations: &[&str]) -> String {
    let locs: Vec<retroweb_json::Json> =
        locations.iter().map(|l| retroweb_json::Json::from(*l)).collect();
    retroweb_json::Json::object(vec![
        ("cluster".into(), retroweb_json::Json::from(cluster)),
        ("page-element".into(), retroweb_json::Json::from("page")),
        (
            "rules".into(),
            retroweb_json::Json::Array(vec![retroweb_json::Json::object(vec![
                ("name".into(), retroweb_json::Json::from("field")),
                ("optionality".into(), retroweb_json::Json::from("mandatory")),
                ("multiplicity".into(), retroweb_json::Json::from("single-valued")),
                ("format".into(), retroweb_json::Json::from("text")),
                ("locations".into(), retroweb_json::Json::Array(locs)),
                ("post".into(), retroweb_json::Json::Array(vec![])),
            ])]),
        ),
    ])
    .to_string_compact()
}

/// Strict-lint servers reject error-bearing rule sets over HTTP with
/// the structured diagnostics, leave the previous rules live, and still
/// accept clean (or merely warning-bearing) bodies.
#[test]
fn strict_lint_rejects_bad_rules_with_diagnostics() {
    let handle = start_server(ServerConfig { strict_lint: true, ..Default::default() });
    let addr = handle.addr();

    // A provably-empty location: TR[0] can never match (positions are
    // 1-based). The 400 body round-trips code, severity and span.
    let bad = lint_cluster_json("linted", &["//TABLE/TR[0]/TD/text()"]);
    let resp = request_once(addr, "PUT", "/clusters/linted", &[], bad.as_bytes()).expect("PUT");
    assert_eq!(resp.status, 400, "{}", resp.body_utf8());
    let body = resp.body_json().expect("rejection is JSON");
    let lint = body.get("lint").expect("lint payload in rejection");
    assert_eq!(lint.get("errors").unwrap().as_u64(), Some(1));
    let diag = &lint.get("diagnostics").unwrap().as_array().unwrap()[0];
    assert_eq!(diag.get("code").unwrap().as_str(), Some("unsat-position"));
    assert_eq!(diag.get("severity").unwrap().as_str(), Some("error"));
    let span = diag.get("span").unwrap().as_array().unwrap();
    let (s, e) = (span[0].as_u64().unwrap() as usize, span[1].as_u64().unwrap() as usize);
    let xpath = diag.get("xpath").unwrap().as_str().unwrap();
    assert_eq!(&xpath[s..e], "[0]", "span points at the unsatisfiable predicate");

    // Nothing was recorded.
    let resp = request_once(addr, "GET", "/clusters/linted", &[], b"").expect("GET");
    assert_eq!(resp.status, 404);

    // An unparseable location is a structured parse-error with the
    // byte offset of the failure.
    let unparseable = lint_cluster_json("linted", &["//TABLE/TR["]);
    let resp =
        request_once(addr, "PUT", "/clusters/linted", &[], unparseable.as_bytes()).expect("PUT");
    assert_eq!(resp.status, 400);
    let body = resp.body_json().expect("parse rejection is JSON");
    let diag = &body.get("diagnostics").unwrap().as_array().unwrap()[0];
    assert_eq!(diag.get("code").unwrap().as_str(), Some("parse-error"));
    assert_eq!(diag.get("xpath").unwrap().as_str(), Some("//TABLE/TR["));
    let span = diag.get("span").unwrap().as_array().unwrap();
    assert_eq!(span[0].as_u64(), Some("//TABLE/TR[".len() as u64), "offset at EOF");

    // A warning-bearing body passes the strict gate, with the findings
    // reported in the success body.
    let warned = lint_cluster_json("linted", &["//UL/LI/text()", "//UL/LI[2]/text()"]);
    let resp = request_once(addr, "PUT", "/clusters/linted", &[], warned.as_bytes()).expect("PUT");
    assert_eq!(resp.status, 201, "{}", resp.body_utf8());
    let body = resp.body_json().expect("success body is JSON");
    let lint = body.get("lint").expect("lint payload in success body");
    assert_eq!(lint.get("errors").unwrap().as_u64(), Some(0));
    assert_eq!(lint.get("warnings").unwrap().as_u64(), Some(1));
    let diag = &lint.get("diagnostics").unwrap().as_array().unwrap()[0];
    assert_eq!(diag.get("code").unwrap().as_str(), Some("dead-alternative"));

    // Rejected replacements leave the live rules in place.
    for rejected in [&bad, &unparseable] {
        let resp =
            request_once(addr, "PUT", "/clusters/linted", &[], rejected.as_bytes()).expect("PUT");
        assert_eq!(resp.status, 400, "{}", resp.body_utf8());
    }
    let resp = request_once(addr, "GET", "/clusters/linted", &[], b"").expect("GET");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body_json().unwrap(),
        retroweb_json::parse(&warned).unwrap(),
        "strict rejections must not replace the live rules"
    );

    // GET /clusters/{name}/lint serves the cached findings.
    let resp = request_once(addr, "GET", "/clusters/linted/lint", &[], b"").expect("GET lint");
    assert_eq!(resp.status, 200);
    let served = resp.body_json().expect("lint body");
    assert_eq!(served.get("warnings").unwrap().as_u64(), Some(1));
    let resp = request_once(addr, "GET", "/clusters/nope/lint", &[], b"").expect("GET lint 404");
    assert_eq!(resp.status, 404);
    // Wrong verb on the lint surface is a 405, not a 404.
    let resp = request_once(addr, "POST", "/lint", &[], b"").expect("POST lint");
    assert_eq!(resp.status, 405);
    handle.shutdown();
}

/// The repo-wide audit (`GET /lint`) is a pure function of the recorded
/// rule sets: two servers holding the same clusters in 1-shard and
/// 8-shard stores serve byte-identical reports.
#[test]
fn repo_lint_deterministic_across_shard_counts() {
    let payloads = [
        lint_cluster_json("alpha", &["//TABLE/TR/TD[1]/text()"]),
        lint_cluster_json("beta", &["//UL/LI/text()", "//UL/LI[2]/text()"]),
        lint_cluster_json("gamma", &["//H1/@id/text()"]),
    ];
    let mut bodies = Vec::new();
    for shards in [1usize, 8] {
        let handle = start_server(ServerConfig { shards, ..Default::default() });
        let addr = handle.addr();
        for (i, payload) in payloads.iter().enumerate() {
            let name = ["alpha", "beta", "gamma"][i];
            let resp =
                request_once(addr, "PUT", &format!("/clusters/{name}"), &[], payload.as_bytes())
                    .expect("PUT");
            assert!(resp.status == 200 || resp.status == 201, "{}", resp.body_utf8());
        }
        let resp = request_once(addr, "GET", "/lint", &[], b"").expect("GET /lint");
        assert_eq!(resp.status, 200);
        let report = resp.body_json().expect("lint report");
        // demo-movies + the three PUTs, in name order.
        assert_eq!(report.get("clusters").unwrap().as_u64(), Some(4));
        assert_eq!(report.get("errors").unwrap().as_u64(), Some(1), "gamma's empty step");
        let demo = report
            .get("results")
            .and_then(|r| r.as_array())
            .and_then(|r| {
                r.iter().find(|c| c.get("cluster").unwrap().as_str() == Some(DEMO_CLUSTER))
            })
            .expect("demo cluster in the report");
        assert_eq!(demo.get("errors").unwrap().as_u64(), Some(0), "demo rules lint-clean");
        assert!(report.get("warnings").unwrap().as_u64().unwrap() >= 1, "beta's dead alternative");
        bodies.push(resp.body_utf8().to_string());
        handle.shutdown();
    }
    assert_eq!(bodies[0], bodies[1], "lint report differs across shard counts");
}

/// The `/metrics` lint section stays coherent through the PUT → audit →
/// DELETE lifecycle: severity gauges track the cached clusters, the
/// per-code counters track what PUTs observed, and strict rejections
/// are counted.
#[test]
fn metrics_lint_section_coherent_after_put_and_delete() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let lint_section = |addr| {
        let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("GET /metrics");
        resp.body_json().expect("metrics json").get("lint").expect("lint section").clone()
    };

    // A non-strict server accepts the error-bearing rules; the PUT warms
    // the compiled cache, so the gauges see them immediately.
    let bad = lint_cluster_json("badling", &["//TABLE/TR[0]/TD/text()"]);
    let resp = request_once(addr, "PUT", "/clusters/badling", &[], bad.as_bytes()).expect("PUT");
    assert_eq!(resp.status, 201, "{}", resp.body_utf8());
    let lint = lint_section(addr);
    assert_eq!(lint.get("errors").unwrap().as_u64(), Some(1), "{lint:?}");
    assert_eq!(lint.get("error_clusters").unwrap().as_u64(), Some(1), "{lint:?}");
    assert_eq!(
        lint.get("observed_by_code").unwrap().get("unsat-position").unwrap().as_u64(),
        Some(1),
        "{lint:?}"
    );
    assert_eq!(lint.get("strict_rejections").unwrap().as_u64(), Some(0));

    // Dropping the cluster drops its findings from the gauges; the
    // observation counters keep their history.
    let resp = request_once(addr, "DELETE", "/clusters/badling", &[], b"").expect("DELETE");
    assert_eq!(resp.status, 200);
    let lint = lint_section(addr);
    assert_eq!(lint.get("errors").unwrap().as_u64(), Some(0), "{lint:?}");
    assert_eq!(lint.get("error_clusters").unwrap().as_u64(), Some(0), "{lint:?}");
    assert_eq!(
        lint.get("observed_by_code").unwrap().get("unsat-position").unwrap().as_u64(),
        Some(1),
        "observation history survives the delete: {lint:?}"
    );
    handle.shutdown();
}

/// A rule nested past `retroweb_xpath::MAX_DEPTH` is a structured
/// `parse-error` 400 with a byte offset: unbounded, 1,000 levels (a
/// ~2 KB body) overflow a loop thread's stack and abort the process.
/// Rules at the limit are accepted and compile, fuse, lint and extract
/// on a loop thread's stack.
#[test]
fn deeply_nested_rules_are_rejected_without_a_crash() {
    use retroweb_xpath::MAX_DEPTH;
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let title = "/HTML[1]/BODY[1]/H1[1]/text()";
    let cluster = |locations: &[String]| {
        let rules: Vec<String> = locations
            .iter()
            .enumerate()
            .map(|(i, location)| {
                format!(
                    r#"{{"name":"r{i}","optionality":"optional","multiplicity":"single-valued","format":"text","locations":["{location}"],"post":[]}}"#
                )
            })
            .collect();
        format!(r#"{{"cluster":"deep","page-element":"p","rules":[{}]}}"#, rules.join(","))
    };

    for levels in [1_000, 100_000] {
        let location = format!("{}{title}{}", "(".repeat(levels), ")".repeat(levels));
        let resp =
            request_once(addr, "PUT", "/clusters/deep", &[], cluster(&[location]).as_bytes())
                .expect("PUT");
        assert_eq!(resp.status, 400, "{levels} levels");
        let body = resp.body_json().unwrap();
        let diag = &body.get("diagnostics").and_then(|d| d.as_array()).unwrap()[0];
        assert_eq!(diag.get("code").and_then(|c| c.as_str()), Some("parse-error"), "{body}");
        assert!(diag.get("span").is_some(), "{body}");
    }

    // At the limit: `k` wrappers inside the path's own predicate, which
    // (with the predicate and the path) make `MAX_DEPTH` levels.
    let k = MAX_DEPTH - 2;
    let at_limit = [
        format!("{title}[{}true(){}]", "not(".repeat(k), ")".repeat(k)),
        format!("{title}[{}true(){}]", "self::node()[".repeat(k - 1), "]".repeat(k - 1)),
        format!("{title}[{} > 0]", "1+".repeat(k - 1) + "1"),
    ];
    let resp = request_once(addr, "PUT", "/clusters/deep", &[], cluster(&at_limit).as_bytes())
        .expect("PUT at the limit");
    assert_eq!(resp.status, 201, "{}", resp.body_utf8());
    let (_, html) = testdata::demo_page(4);
    let resp = request_once(addr, "POST", "/extract/deep", &[], html.as_bytes()).expect("extract");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_utf8().matches("Movie 4").count(), 3, "{}", resp.body_utf8());

    let resp = request_once(addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(resp.status, 200);
    handle.shutdown();
}
