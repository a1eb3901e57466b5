//! Quickstart: the paper's worked example end to end.
//!
//! Builds a mapping rule for the `runtime` component over the four-page
//! imdb-movies working sample from the paper (§2.3, §3, Tables 1–3),
//! then extracts the cluster to XML (Figure 5) and an XML Schema.
//!
//! Run with: `cargo run --example quickstart`

use retroweb::retrozilla::User;
use retroweb::retrozilla::{
    build_rule, extract_cluster_html, sample_from_pages, ClusterRules, ScenarioConfig,
    SimulatedUser,
};
use retroweb::sitegen::paper::paper_working_sample;

fn main() {
    // 1. The working sample (§3.1): four pages of the imdb-movies
    //    cluster, with the structural discrepancies of Figure 4.
    let pages = paper_working_sample();
    let sample = sample_from_pages(pages.clone());
    println!("Working sample: {} pages of the imdb-movies cluster\n", sample.len());

    // 2. Semi-automated rule building (§3.2–§3.5). The SimulatedUser
    //    plays the human: it points at values, names components and
    //    inspects check tables.
    let mut user = SimulatedUser::new();
    let report = build_rule("runtime", &sample, &mut user, &ScenarioConfig::default())
        .expect("runtime exists in the sample");

    println!("--- Candidate rule checking (paper Table 1) ---");
    print!("{}", report.initial_table.render());
    println!("\n--- Applied refinements (§3.4) ---");
    for s in &report.strategies {
        println!("  * {s}");
    }
    println!("\n--- Rule checking after refinement (paper Table 3) ---");
    print!("{}", report.final_table.render());
    println!("\n--- Recorded mapping rule (§2.3 display form) ---");
    println!("{}\n", report.rule.display());
    let stats = user.stats();
    println!(
        "User effort: {} selections, {} interpretations, {} table-row validations\n",
        stats.selections, stats.interpretations, stats.validations
    );

    // 3. XML extraction (§4, Figure 5).
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    cluster.rules.push(report.rule);
    let page_sources: Vec<(String, String)> = pages
        .iter()
        .map(|p| (format!("http://imdb.com{}", p.url.trim_start_matches('.')), p.html.clone()))
        .collect();
    let result = extract_cluster_html(&cluster.compile(), &page_sources);

    println!("--- Generated XML document (paper Figure 5) ---");
    print!("{}", result.xml.to_string_with(0));
    println!("\n--- Generated XML Schema ---");
    print!("{}", result.schema.to_xsd().to_string_with(2));
    assert!(result.failures.is_empty());
}
