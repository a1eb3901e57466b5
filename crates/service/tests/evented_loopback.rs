//! Loopback end-to-end tests for the front end (`poll(2)` event loops
//! that run requests inline). The contract under test: every response
//! is **byte-identical** to what the handlers and encoders produce
//! in-process, with the loops adding pipelining, admission shedding,
//! slow-client deadlines, idle connections that hold no thread, and a
//! draining shutdown on top.
#![cfg(unix)]

use retroweb_service::http::{
    encode_full_response, encode_streaming_head, ChunkedWriter, ParseProgress, RequestParser,
};
use retroweb_service::testdata::{
    self, demo_pages, demo_repository, direct_extract_xml, pages_json, DEMO_CLUSTER,
};
use retroweb_service::{handlers, request_once, Client, Reply, Server, ServerConfig, ServiceState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> retroweb_service::ServerHandle {
    Server::bind(demo_repository(), config).expect("bind").start().expect("start")
}

/// Send one raw request and read the complete raw response bytes (to
/// EOF — callers pass `connection: close` requests).
fn raw_response(addr: std::net::SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    out
}

/// The wire bytes for raw HTTP/1.1 requests sent on one connection,
/// produced in-process: parse each in turn, route it through the
/// handlers, encode — no sockets.
fn in_process(state: &Arc<ServiceState>, raw: &[u8]) -> Vec<u8> {
    let mut buf = raw.to_vec();
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    while let ParseProgress::Complete(req) = parser.advance(&mut buf) {
        let close = req.wants_close();
        match handlers::route(state, &req).1 {
            Reply::Full(mut resp) => {
                resp.close |= close;
                out.extend_from_slice(&encode_full_response(&resp));
            }
            Reply::Streaming(resp) => {
                out.extend_from_slice(&encode_streaming_head(
                    resp.status,
                    resp.content_type,
                    &resp.headers,
                    true,
                    close,
                ));
                let mut sink = ChunkedWriter::new(&mut out);
                (resp.body)(&mut sink).expect("in-process body");
                sink.finish().expect("in-process terminal chunk");
            }
        }
    }
    assert!(buf.is_empty(), "test requests do not parse");
    out
}

/// The headline guarantee: raw requests over a socket produce the same
/// raw bytes — headers, framing and all — as the handlers and encoders
/// do in-process. Covers a full response, a chunked streaming batch, an
/// NDJSON stream, and an error. (The name keeps the suite's history: the
/// reference used to be a second, worker-pool front end.)
#[test]
fn responses_byte_identical_to_worker_pool_mode() {
    let handle = start_server(ServerConfig::default());

    let pages = demo_pages(24);
    let body = pages_json(&pages);
    let (uri, html) = testdata::demo_page(1);
    let requests: Vec<Vec<u8>> = vec![
        b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".to_vec(),
        format!(
            "POST /extract/{DEMO_CLUSTER} HTTP/1.1\r\nhost: t\r\nx-page-uri: {uri}\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{html}",
            html.len()
        )
        .into_bytes(),
        format!(
            "POST /extract/{DEMO_CLUSTER}/batch?threads=3 HTTP/1.1\r\nhost: t\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        format!(
            "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.1\r\nhost: t\r\naccept: application/x-ndjson\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        b"POST /extract/no-such-cluster HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
          content-length: 4\r\n\r\nhtml"
            .to_vec(),
        b"GET /clusters HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".to_vec(),
    ];
    for (i, request) in requests.iter().enumerate() {
        let served = raw_response(handle.addr(), request);
        let want = in_process(handle.state(), request);
        assert!(
            served == want,
            "request {i}: served and in-process responses differ\n\
             served:     {:?}\nin-process: {:?}",
            String::from_utf8_lossy(&served),
            String::from_utf8_lossy(&want),
        );
        assert!(!served.is_empty(), "request {i}: empty response");
    }
    // The chunked batch really was chunk-framed and decodes to the
    // direct pipeline's bytes through the shared client.
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
        .expect("batch");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.body_utf8(), want);
    // Keep-alive survives a chunked stream.
    let resp = client.request("GET", "/healthz", &[], b"").expect("keep-alive");
    assert_eq!(resp.status, 200);

    handle.shutdown();
}

/// `n` keep-alive connections, each idle after one `/healthz` exchange.
fn hold_idle(addr: std::net::SocketAddr, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect");
            let resp = client.request("GET", "/healthz", &[], b"").expect("warm-up");
            assert_eq!(resp.status, 200);
            client
        })
        .collect()
}

/// A `/healthz` on a fresh connection is answered `200` within `within`.
fn assert_fresh_connection_served(addr: std::net::SocketAddr, within: Duration, idle: usize) {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(within)).expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("request");
    let mut resp = Vec::new();
    let read = stream.read_to_end(&mut resp);
    assert!(
        read.is_ok() && resp.starts_with(b"HTTP/1.1 200"),
        "healthz starved behind {idle} idle connections: {read:?} after {:?}",
        started.elapsed()
    );
    assert!(started.elapsed() < within, "took {:?}", started.elapsed());
}

/// `threads` idle keep-alive connections hold no thread: a request on a
/// fresh connection is still answered at once.
#[test]
fn idle_keep_alive_connections_do_not_starve_new_ones() {
    let config = ServerConfig::default();
    let threads = config.threads;
    let handle = start_server(config);
    let idle = hold_idle(handle.addr(), threads);
    assert_fresh_connection_served(handle.addr(), Duration::from_secs(1), threads);
    drop(idle);
    handle.shutdown();
}

/// A sea of idle keep-alive connections, 128 per loop, is held as
/// poller registrations: every one stays open, no loop gets busy beyond
/// the loop count, and a fresh connection is still served.
#[test]
fn idle_sea_of_512_connections_is_held_with_flat_loop_usage() {
    const CONNS: usize = 512;
    const LOOPS: usize = 4;
    let handle = start_server(ServerConfig {
        threads: LOOPS,
        max_conns: CONNS + 64,
        idle_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    let addr = handle.addr();
    let idle = hold_idle(addr, CONNS);
    let metrics = request_once(addr, "GET", "/metrics", &[], b"")
        .expect("metrics")
        .body_json()
        .expect("metrics json");
    let gauge = |section: &str, key: &str| {
        metrics
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("/metrics missing {section}.{key}: {metrics}"))
    };
    let open = gauge("evented", "open");
    let busy_high_water = gauge("workers", "busy_high_water");
    assert!(open >= CONNS as u64, "idle connections dropped: open gauge {open} < {CONNS}");
    assert!(
        busy_high_water <= LOOPS as u64,
        "loop usage must not scale with connection count: busy high-water \
         {busy_high_water} with {LOOPS} loops"
    );
    assert_fresh_connection_served(addr, Duration::from_secs(5), CONNS);
    drop(idle);
    handle.shutdown();
}

/// Three clients per loop, half streaming batches and half single-page
/// extracts on keep-alive connections: every reply is byte-identical to
/// the direct pipeline, so sharing a loop never mixes up replies.
#[test]
fn clients_past_the_loop_count_get_byte_identical_replies() {
    let config = ServerConfig::default();
    let clients = 3 * config.threads;
    let handle = start_server(config);
    let addr = handle.addr();
    let rules = testdata::cluster_from(&testdata::demo_cluster_json());
    let pages = demo_pages(12);
    let body = pages_json(&pages);
    let want_batch = direct_extract_xml(&rules, &pages);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (body, want_batch, rules) = (&body, &want_batch, &rules);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..8 {
                    if c % 2 == 0 {
                        let resp = client
                            .request(
                                "POST",
                                &format!("/extract/{DEMO_CLUSTER}/batch?threads=2"),
                                &[],
                                body.as_bytes(),
                            )
                            .expect("batch");
                        assert_eq!(resp.status, 200);
                        assert!(resp.body_utf8() == *want_batch, "client {c} batch {r} differs");
                    } else {
                        let (uri, html) = testdata::demo_page(c * 8 + r);
                        let want = direct_extract_xml(rules, &[(uri.clone(), html.clone())]);
                        let resp = client
                            .request(
                                "POST",
                                &format!("/extract/{DEMO_CLUSTER}"),
                                &[("x-page-uri", &uri)],
                                html.as_bytes(),
                            )
                            .expect("extract");
                        assert_eq!(resp.status, 200);
                        assert!(resp.body_utf8() == want, "client {c} extract {r} differs");
                    }
                }
            });
        }
    });
    handle.shutdown();
}

/// Satellite: HTTP/1.1 pipelining. N requests written in one TCP
/// segment, a streamed batch among them, produce N in-order responses
/// on one connection, and the bytes equal the same requests answered one
/// after another in-process.
#[test]
fn pipelined_requests_answer_in_order_and_match_sequential() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();

    let healthz: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    let body = pages_json(&demo_pages(24));
    let batch = format!(
        "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let burst = [healthz, healthz, batch.as_bytes(), healthz, healthz].concat();
    const N: usize = 5;

    // One segment, N requests. Close afterwards so read_to_end ends.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&burst).expect("pipelined burst");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut pipelined = Vec::new();
    stream.read_to_end(&mut pipelined).expect("responses");

    let want = in_process(handle.state(), &burst);
    assert_eq!(
        String::from_utf8_lossy(&pipelined),
        String::from_utf8_lossy(&want),
        "pipelined burst must be byte-identical to sequential in-process answers"
    );
    let starts = pipelined.windows(8).filter(|w| w == b"HTTP/1.1").count();
    assert_eq!(starts, N, "expected {N} responses in the pipelined burst");

    // The loop counted the burst's follow-on requests as pipelined.
    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().expect("metrics json");
    let pipelined_total = metrics
        .get("evented")
        .and_then(|e| e.get("pipelined"))
        .and_then(|p| p.as_u64())
        .unwrap_or(0);
    assert!(pipelined_total >= (N as u64) - 1, "pipelined gauge: {metrics}");
    handle.shutdown();
}

/// Satellite: oversized request heads are answered `431` and closed,
/// and the server keeps serving. (Once checked across two front ends,
/// hence the name.)
#[test]
fn oversized_head_gets_431_in_both_modes() {
    let handle = start_server(ServerConfig::default());

    // 96 KiB of headers against a 64 KiB cap, sent as complete lines so
    // the rejection is about total size, not a torn line.
    let mut request = b"GET /healthz HTTP/1.1\r\nhost: t\r\n".to_vec();
    let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
    while request.len() < 96 * 1024 {
        request.extend_from_slice(filler.as_bytes());
    }
    request.extend_from_slice(b"\r\n");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // The server may answer (and close) before the whole oversized head
    // is written; a write error past that point is expected.
    let _ = stream.write_all(&request);
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).unwrap_or_default();
    let text = String::from_utf8_lossy(&resp).to_string();
    assert!(text.starts_with("HTTP/1.1 431"), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    let resp = request_once(handle.addr(), "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

/// Satellite: an HTTP/1.0 peer gets the streamed batch EOF-delimited —
/// unframed bytes, `connection: close`, and an orderly FIN once the
/// write queue drains (read_to_end returning Ok proves FIN, not RST).
#[test]
fn http10_streaming_ends_with_orderly_fin() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let pages = demo_pages(32);
    let body = pages_json(&pages);
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);

    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.0\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(body.as_bytes()).expect("body");
    let mut raw = Vec::new();
    // An RST mid-body or a truncating close errors here (or cuts the
    // body short, caught below).
    stream.read_to_end(&mut raw).expect("EOF-delimited body must end in a clean FIN");
    let text = String::from_utf8_lossy(&raw);
    let head_end = text.find("\r\n\r\n").expect("response head") + 4;
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text[..head_end].contains("connection: close"), "{text}");
    assert!(!text[..head_end].contains("transfer-encoding"), "1.0 peer must not see chunking");
    assert_eq!(&text[head_end..], want, "EOF-delimited body truncated or reordered");
    handle.shutdown();
}

/// A client that stops reading a streamed reply is dropped at
/// `write_stall_timeout` and counted as timed out, while its loop keeps
/// answering other connections; shutdown then completes.
#[test]
fn stalled_stream_reader_is_dropped_while_its_loop_serves_others() {
    let handle = start_server(ServerConfig {
        threads: 1,
        write_stall_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let addr = handle.addr();
    // About 11 MB of request; the reply is far larger than the socket
    // buffers, so it stalls once they fill.
    let body = pages_json(&demo_pages(60_000));
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stalled.write_all(head.as_bytes()).expect("head");
    stalled.write_all(body.as_bytes()).expect("body");
    // Wait for the reply to start without taking any of it: `peek`
    // leaves the bytes in the receive buffer, so the window stays shut.
    stalled.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    stalled.peek(&mut [0u8; 1]).expect("reply started");

    // The only loop still answers a second connection at once.
    let started = Instant::now();
    let resp = request_once(addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(resp.status, 200);
    assert!(started.elapsed() < Duration::from_secs(1), "healthz took {:?}", started.elapsed());

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
        let metrics = resp.body_json().expect("metrics json");
        let timed_out =
            metrics.get("evented").and_then(|e| e.get("timed_out")).and_then(|t| t.as_u64());
        if timed_out >= Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "stalled stream never dropped: {metrics}");
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    drop(stalled);
}

/// Admission control: past `max_conns` open connections, arrivals are
/// shed with `503` + `connection: close` while established connections
/// keep working.
#[test]
fn connections_past_cap_are_shed_with_503() {
    let handle = start_server(ServerConfig { max_conns: 2, ..Default::default() });
    let addr = handle.addr();

    // Fill the cap with two live keep-alive connections.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut client = Client::connect(addr).expect("connect");
        let resp = client.request("GET", "/healthz", &[], b"").expect("held conn request");
        assert_eq!(resp.status, 200);
        held.push(client);
    }
    // The third arrival is shed.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").ok();
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).expect("shed response");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 503"), "expected shed 503: {text}");
    assert!(text.contains("connection: close"), "{text}");

    // Held connections still serve; the shed is visible on /metrics.
    let resp = held[0].request("GET", "/metrics", &[], b"").expect("metrics");
    assert_eq!(resp.status, 200);
    let metrics = resp.body_json().expect("metrics json");
    let evented = metrics.get("evented").expect("evented section");
    assert_eq!(evented.get("shed").and_then(|s| s.as_u64()), Some(1), "{metrics}");
    assert_eq!(evented.get("open").and_then(|o| o.as_u64()), Some(2), "{metrics}");
    drop(held);
    handle.shutdown();
}

/// Slow-client defence: a connection that dribbles a partial request
/// head is answered `408` at the header deadline; an idle keep-alive
/// connection is closed quietly at the idle deadline.
#[test]
fn slowloris_gets_408_and_idle_connections_are_reaped() {
    let handle = start_server(ServerConfig {
        header_timeout: Duration::from_millis(150),
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Partial head, then silence: the server must answer 408 and close
    // rather than hold the socket forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HT").expect("partial head");
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).expect("408 then close");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 408"), "expected 408: {text}");
    assert!(text.contains("connection: close"), "{text}");

    // A completed exchange moves the connection to the (longer) idle
    // deadline; expiry closes it with a bare FIN, no error response.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("request");
    std::thread::sleep(Duration::from_millis(700));
    let mut leftover = Vec::new();
    stream.read_to_end(&mut leftover).expect("response then idle close");
    let text = String::from_utf8_lossy(&leftover);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(!text.contains("408"), "idle reap must not produce an error response: {text}");

    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().expect("metrics json");
    let timed_out = metrics
        .get("evented")
        .and_then(|e| e.get("timed_out"))
        .and_then(|t| t.as_u64())
        .unwrap_or(0);
    assert!(timed_out >= 1, "header timeout must count: {metrics}");
    handle.shutdown();
}

/// `Expect: 100-continue` works through the loops: interim nod
/// first, then the real response, on one connection.
#[test]
fn expect_continue_gets_interim_nod() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = b"<html><body>x</body></html>";
    let head = format!(
        "POST /extract/{DEMO_CLUSTER} HTTP/1.1\r\nexpect: 100-continue\r\n\
         connection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    let mut first = [0u8; 25];
    stream.read_exact(&mut first).expect("interim response");
    assert_eq!(&first, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body).expect("body");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("final response");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    handle.shutdown();
}

/// Hot rule reload holds across loops: a PUT on one
/// connection is observed by the next extraction on another.
#[test]
fn hot_reload_is_observed_across_connections() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let pages = demo_pages(8);
    let body = pages_json(&pages);
    let want_v1 =
        direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);
    let want_v2 =
        direct_extract_xml(&testdata::cluster_from(&testdata::updated_cluster_json()), &pages);
    assert_ne!(want_v1, want_v2);

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
        .expect("v1 batch");
    assert_eq!(resp.body_utf8(), want_v1);
    let resp = request_once(
        addr,
        "PUT",
        &format!("/clusters/{DEMO_CLUSTER}"),
        &[],
        testdata::updated_cluster_json().as_bytes(),
    )
    .expect("reload");
    assert_eq!(resp.status, 200);
    // Same keep-alive connection as v1: the reload applies without
    // reconnecting.
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
        .expect("v2 batch");
    assert_eq!(resp.body_utf8(), want_v2);
    handle.shutdown();
}

/// Shutdown drains: requests in flight when shutdown begins still get
/// complete, correct responses.
#[test]
fn shutdown_drains_in_flight_requests() {
    let handle = start_server(ServerConfig { threads: 2, ..Default::default() });
    let addr = handle.addr();
    let pages = demo_pages(8);
    let body = std::sync::Arc::new(pages_json(&pages));
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);

    const BURST: usize = 8;
    let mut clients = Vec::new();
    for _ in 0..BURST {
        let body = std::sync::Arc::clone(&body);
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
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    let mut served = 0;
    for client in clients {
        let resp = client.join().expect("client thread");
        // A request that raced the listener teardown may have been
        // refused outright — but anything *answered* must be complete.
        if let Ok(resp) = resp {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_utf8(), want);
            served += 1;
        }
    }
    assert!(served >= 1, "shutdown answered nothing");
}

/// The connection and loop gauges on `/metrics` reflect the live
/// connection table and the loops.
#[test]
fn metrics_report_evented_gauges() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();
    let mut held = Client::connect(addr).expect("connect");
    let resp = held.request("GET", "/healthz", &[], b"").expect("warm-up");
    assert_eq!(resp.status, 200);

    let resp = held.request("GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().expect("metrics json");
    let evented = metrics.get("evented").expect("evented section");
    // This connection is open and actively being served; the gauge
    // includes it.
    assert!(evented.get("open").and_then(|o| o.as_u64()) >= Some(1), "{metrics}");
    assert!(evented.get("accepted").and_then(|a| a.as_u64()) >= Some(1), "{metrics}");
    // One loop per thread; this very request had a loop inside a
    // handler, and nothing ever queues.
    let workers = metrics.get("workers").expect("workers section");
    assert_eq!(workers.get("threads").and_then(|t| t.as_u64()), Some(4), "{metrics}");
    assert!(workers.get("busy_high_water").and_then(|b| b.as_u64()) >= Some(1), "{metrics}");
    assert!(workers.get("queued").is_none(), "{metrics}");
    drop(held);
    handle.shutdown();
}

/// Streamed replies leave without waiting on the client's delayed ACK:
/// the loops set `TCP_NODELAY` on every accepted socket. Without it a chunked batch reply's later segments sit in
/// the kernel until the peer ACKs (~40 ms), and every sequential
/// keep-alive batch request takes ~44 ms.
#[test]
fn sequential_streamed_batches_are_not_held_by_delayed_ack() {
    let handle = start_server(ServerConfig::default());
    let body = pages_json(&demo_pages(16));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut millis = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        let resp = client
            .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
            .expect("batch");
        millis.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(resp.status, 200);
    }
    millis.sort_by(f64::total_cmp);
    let median = millis[millis.len() / 2];
    assert!(median < 20.0, "median streamed batch latency {median:.1} ms: {millis:?}");
    handle.shutdown();
}
