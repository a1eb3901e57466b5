//! Facade-level end-to-end test: the whole record → serve → extract →
//! drift-check cycle through `retroweb::service`, driven the way an
//! operator would drive the shipped binary.

use retroweb::retrozilla::RepositorySnapshot;
use retroweb::service::testdata;
use retroweb::service::{request_once, Client, Server, ServerConfig};

#[test]
fn record_serve_extract_check_roundtrip() {
    // Record a cluster through the public JSON shape, as PUT would.
    let repo: RepositorySnapshot =
        std::iter::once(testdata::cluster_from(&testdata::demo_cluster_json())).collect();

    let handle = Server::bind(repo, ServerConfig::default()).expect("bind").start().expect("start");
    let addr = handle.addr();

    let resp = request_once(addr, "GET", "/healthz", &[], b"").expect("healthz");
    assert_eq!(resp.status, 200);

    // Served single-page extraction matches the library call exactly.
    let rules = testdata::cluster_from(&testdata::demo_cluster_json());
    let (uri, html) = testdata::demo_page(2);
    let want = testdata::direct_extract_xml(&rules, &[(uri.clone(), html.clone())]);
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request(
            "POST",
            &format!("/extract/{}", testdata::DEMO_CLUSTER),
            &[("x-page-uri", uri.as_str())],
            html.as_bytes(),
        )
        .expect("extract");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_utf8(), want);

    // Drift-check a redesigned page.
    let body = testdata::pages_json(&[testdata::drifted_page(3)]);
    let resp = client
        .request("POST", &format!("/check/{}", testdata::DEMO_CLUSTER), &[], body.as_bytes())
        .expect("check");
    let report = resp.body_json().expect("check report json");
    assert_eq!(report.get("drifted").and_then(|d| d.as_bool()), Some(true), "{report}");

    handle.shutdown();
}
