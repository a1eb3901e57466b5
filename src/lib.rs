//! # retroweb — the Retrozilla-rs reproduction, in one crate
//!
//! Facade over the workspace crates that reproduce *Semi-Automated
//! Extraction of Targeted Data from Web Pages* (Estiévenart, Meurisse,
//! Hainaut, Thiran — IEEE ICDE 2006 Workshops):
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`html`] | `retroweb-html` | error-tolerant HTML parser + mutable arena DOM |
//! | [`xpath`] | `retroweb-xpath` | XPath 1.0 engine, precise-path builder, generalisation ops |
//! | [`xml`] | `retroweb-xml` | XML output, XML Schema generation, reader |
//! | [`cluster`] | `retroweb-cluster` | page clustering (Figure 1 step 1) |
//! | [`sitegen`] | `retroweb-sitegen` | synthetic corpora with ground truth |
//! | [`baselines`] | `retroweb-baselines` | RoadRunner-style + LR wrapper baselines |
//! | [`retrozilla`] | `retrozilla` | the paper's contribution: mapping rules end to end |
//! | [`json`] | `retroweb-json` | dependency-free JSON for persistence/reports |
//! | [`netpoll`] | `retroweb-netpoll` | std-only `poll(2)` readiness event loop |
//! | [`service`] | `retroweb-service` | multi-threaded HTTP extraction server |
//!
//! See `examples/quickstart.rs` for the five-minute tour, and the
//! `paper` runner (`cargo run --release -p retroweb-bench --bin paper`)
//! for the paper's tables and figures: it checks each one's shape and
//! records it in the committed `BENCH_paper.json`.
//!
//! ## Serving
//!
//! The §3.5 rule repository is built to be used by "external agents,
//! for instance the XML extractor" — [`service`] is that agent surface
//! in production shape. `retrozilla-serve` (in `crates/service`) hosts
//! a [`retrozilla::ShardedRepository`] (through the
//! [`retrozilla::ClusterStore`] storage trait: one mutex-guarded map
//! per shard, held only to clone an `Arc` out or to update one entry,
//! optionally one write-ahead log per shard) behind a std-only
//! HTTP/1.1 server: `poll(2)` event loops run each request inline and
//! serve `POST /extract/{cluster}` and `POST /extract/{cluster}/batch`
//! through one extraction driver,
//! [`retrozilla::extract_cluster_parallel_compiled_to`]. The batch path
//! *streams*: the driver feeds a [`retrozilla::ExtractionSink`] straight
//! into the chunked response (first bytes after the first page, memory
//! O(threads)), with the concatenated XML byte-identical to a direct
//! [`retrozilla::extract_cluster_html`] call and
//! `Accept: application/x-ndjson` selecting NDJSON records instead
//! (see `examples/news_digest.rs` for the same sink API used as a
//! library). `POST /check/{cluster}` runs
//! the §7 drift detectors, and `GET`/`PUT /clusters/{name}` give rule
//! CRUD where a `PUT` re-records the cluster — invalidating the
//! compiled-rule cache and thereby hot-reloading rules with zero
//! downtime. `GET /healthz` and `GET /metrics` expose liveness,
//! counters and latency histograms. With `--repo`, each `PUT`/`DELETE`
//! is one fsynced append to its shard's write-ahead log. See
//! `crates/service/README.md` for a curl walkthrough and
//! `examples/service_roundtrip.rs` for the in-process tour.

pub use retroweb_baselines as baselines;
pub use retroweb_cluster as cluster;
pub use retroweb_html as html;
pub use retroweb_json as json;
pub use retroweb_netpoll as netpoll;
pub use retroweb_service as service;
pub use retroweb_sitegen as sitegen;
pub use retroweb_xml as xml;
pub use retroweb_xpath as xpath;
pub use retrozilla;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let doc = crate::html::parse("<body><p>x</p></body>");
        assert!(doc.body().is_some());
        assert!(crate::xpath::parse("//P/text()").is_ok());
    }
}
