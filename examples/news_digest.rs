//! Data integration over a news site, feed-style: rules are built over
//! a working sample, then the whole site is extracted **as a stream** —
//! NDJSON records to stdout via `JsonLinesSink` (one page per line, the
//! shape a feed consumer or log shipper tails), with the parallel
//! driver's per-worker bounded channels keeping page order
//! deterministic. The same drive also runs a `CountingSink` dry run and
//! a streamed-XML digest, showing that one extraction API feeds any
//! output.
//!
//! Run with: `cargo run --example news_digest`
//! Pipe the records: `cargo run --example news_digest | grep '"type": "page"'`

use retroweb::retrozilla::{
    build_rules, extract_cluster_parallel_compiled_to, working_sample, ClusterRules, CountingSink,
    JsonLinesSink, ScenarioConfig, SimulatedUser, StructureNode, XmlWriterSink,
};
use retroweb::sitegen::{news, NewsSiteSpec};
use retroweb::xml::parse_xml;
use std::io::Write;

fn main() {
    let spec = NewsSiteSpec { n_pages: 14, seed: 19, ..Default::default() };
    let site = news::generate(&spec);
    let sample = working_sample(&site, 9);

    let components = ["headline", "author", "date", "paragraph", "commenter", "comment"];
    let mut user = SimulatedUser::new();
    let reports = build_rules(&components, &sample, &mut user, &ScenarioConfig::default());

    eprintln!("Rules over the ledger-articles cluster:");
    let mut cluster = ClusterRules::new("ledger-articles", "article");
    for r in reports {
        assert!(r.ok, "{}: {:?}\n{}", r.component, r.strategies, r.final_table.render());
        eprintln!(
            "  {:<10} {:<9} {:<13} {:<5}  {}",
            r.component,
            r.rule.optionality.to_string(),
            r.rule.multiplicity.to_string(),
            r.rule.format.to_string(),
            if r.strategies.is_empty() { "-".to_string() } else { r.strategies.join("; ") }
        );
        cluster.rules.push(r.rule);
    }

    // A-posteriori aggregation (§4): byline facts group under `byline`,
    // reader feedback under `reader-feedback`.
    cluster.structure = Some(vec![
        StructureNode::Component("headline".into()),
        StructureNode::Group {
            name: "byline".into(),
            children: vec![
                StructureNode::Component("author".into()),
                StructureNode::Component("date".into()),
            ],
        },
        StructureNode::Component("paragraph".into()),
        StructureNode::Group {
            name: "reader-feedback".into(),
            children: vec![
                StructureNode::Component("commenter".into()),
                StructureNode::Component("comment".into()),
            ],
        },
    ]);

    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.url.clone(), p.html.clone())).collect();
    // Compile once; every drive below applies the same compiled rules.
    let compiled = cluster.compile();

    // Dry run first: a CountingSink drive tells us what the feed will
    // carry without producing a byte of output.
    let mut count = CountingSink::new();
    extract_cluster_parallel_compiled_to(&compiled, &pages, 4, &mut count)
        .expect("counting never fails");
    eprintln!(
        "\nDry run: {} pages, {} values, {} failures — streaming the feed:\n",
        count.pages, count.values, count.failures
    );
    assert_eq!(count.failures, 0);

    // The feed itself: NDJSON records streamed to stdout as each page
    // completes. `{"type": "page", "uri": …, "values": …}` per page,
    // one summary line last — pipe-friendly, O(threads) memory however
    // large the site is.
    let stdout = std::io::stdout();
    let mut sink = JsonLinesSink::new(stdout.lock());
    let stats =
        extract_cluster_parallel_compiled_to(&compiled, &pages, 4, &mut sink).expect("stdout open");
    let ndjson_bytes = sink.bytes_written();
    assert_eq!(stats.pages, pages.len());

    // The same drive can still produce the paper's §4 XML document —
    // streamed through XmlWriterSink, consumed here by the strict XML
    // reader acting as the §3.5 "external agent".
    let mut xml_sink = XmlWriterSink::new(Vec::new());
    extract_cluster_parallel_compiled_to(&compiled, &pages, 4, &mut xml_sink).expect("vec sink");
    let xml_text = String::from_utf8(xml_sink.into_inner()).expect("extraction output is UTF-8");
    let root = parse_xml(&xml_text).expect("extraction output is well-formed");

    let mut err = std::io::stderr().lock();
    writeln!(
        err,
        "\nStreamed {} articles: {} bytes of NDJSON, {} bytes of XML.",
        pages.len(),
        ndjson_bytes,
        xml_text.len()
    )
    .unwrap();
    writeln!(err, "\nDigest (headline / date / #paragraphs / #comments):").unwrap();
    for article in root.children_named("article").take(6) {
        let headline = article.child("headline").map(|e| e.text_content()).unwrap_or_default();
        let date = article
            .child("byline")
            .and_then(|b| b.child("date"))
            .map(|e| e.text_content())
            .unwrap_or_default();
        let paras = article.children_named("paragraph").count();
        let comments = article
            .child("reader-feedback")
            .map(|f| f.children_named("comment").count())
            .unwrap_or(0);
        writeln!(err, "  {headline:<55} {date:<17} {paras} paras, {comments} comments").unwrap();
    }
}
