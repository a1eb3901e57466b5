//! Serving tour: start the extraction server in-process, then drive the
//! full operator loop over loopback HTTP — record rules, extract a
//! batch, detect drift, hot-reload the rules, read the metrics.
//!
//! Run with: `cargo run --example service_roundtrip`

use retroweb::retrozilla::RepositorySnapshot;
use retroweb::service::testdata::{
    demo_cluster_json, demo_pages, drifted_page, pages_json, updated_cluster_json, DEMO_CLUSTER,
};
use retroweb::service::{Client, Server, ServerConfig};

fn main() {
    // 1. An empty repository behind the server — rules arrive over HTTP.
    let server =
        Server::bind(RepositorySnapshot::default(), ServerConfig::default()).expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();
    println!("serving on http://{addr}\n");
    let mut client = Client::connect(addr).expect("connect");

    // 2. Record the cluster (what `curl -X PUT` would do).
    let resp = client
        .request("PUT", &format!("/clusters/{DEMO_CLUSTER}"), &[], demo_cluster_json().as_bytes())
        .expect("PUT rules");
    println!("PUT /clusters/{DEMO_CLUSTER} -> {} {}", resp.status, resp.body_utf8());

    // 3. Batch-extract 4 pages.
    let pages = demo_pages(4);
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch?threads=2"),
            &[],
            pages_json(&pages).as_bytes(),
        )
        .expect("batch extract");
    println!(
        "\nPOST /extract/{DEMO_CLUSTER}/batch -> {} ({} pages, {} failures)\n{}",
        resp.status,
        resp.header("x-retroweb-pages").unwrap_or("?"),
        resp.header("x-retroweb-failures").unwrap_or("?"),
        resp.body_utf8()
    );

    // 4. The site redesigns: the drift check flags the failing rule.
    let resp = client
        .request(
            "POST",
            &format!("/check/{DEMO_CLUSTER}"),
            &[],
            pages_json(&[drifted_page(0)]).as_bytes(),
        )
        .expect("check");
    println!("POST /check/{DEMO_CLUSTER} -> {}\n{}", resp.status, resp.body_utf8());

    // 5. Hot-reload repaired rules; the next extraction uses them.
    let resp = client
        .request(
            "PUT",
            &format!("/clusters/{DEMO_CLUSTER}"),
            &[],
            updated_cluster_json().as_bytes(),
        )
        .expect("PUT reload");
    println!("\nPUT /clusters/{DEMO_CLUSTER} (reload) -> {} {}", resp.status, resp.body_utf8());
    let resp = client
        .request(
            "POST",
            &format!("/extract/{DEMO_CLUSTER}/batch"),
            &[],
            pages_json(&demo_pages(1)).as_bytes(),
        )
        .expect("post-reload extract");
    println!("\npost-reload extraction:\n{}", resp.body_utf8());

    // 6. Live metrics.
    let resp = client.request("GET", "/metrics", &[], b"").expect("metrics");
    println!("GET /metrics ->\n{}", resp.body_utf8());

    handle.shutdown();
    println!("server drained and stopped");
}
