//! Integration tests pinning the reproduction to the paper's own worked
//! examples: the §2.3 rule, Table 1, Table 2, Table 3, Figure 4 and
//! Figure 5.

use retroweb::html::parse;
use retroweb::retrozilla::{
    build_rule, check_rule, extract_cluster_html, sample_from_pages, ClusterRules, ComponentName,
    Format, MappingRule, Outcome, ScenarioConfig, SimulatedUser,
};
use retroweb::sitegen::paper::{figure4_pages, paper_working_sample, AKA_VALUE, TABLE3_RUNTIMES};
use retroweb::xpath::{parse as xparse, parse_lenient, Engine};

#[test]
fn section_2_3_rule_display_form() {
    let rule = MappingRule::candidate(
        ComponentName::new("runtime").unwrap(),
        xparse("BODY[1]/DIV[2]/TABLE[3]/TR[1]/TD[3]/TABLE[1]/TR[6]/TD[1]/text()[1]").unwrap(),
        Format::Text,
    );
    let display = rule.display();
    // The paper's §2.3 sample rule, property for property.
    assert!(display.contains("name         : runtime"));
    assert!(display.contains("optionality  : mandatory"));
    assert!(display.contains("multiplicity : single-valued"));
    assert!(display.contains("format       : text"));
    assert!(display.contains(
        "location     : BODY[1]/DIV[2]/TABLE[3]/TR[1]/TD[3]/TABLE[1]/TR[6]/TD[1]/text()[1]"
    ));
}

#[test]
fn table1_outcomes_match_paper() {
    let sample = sample_from_pages(paper_working_sample());
    let candidate = MappingRule::candidate(
        ComponentName::new("runtime").unwrap(),
        xparse("/HTML[1]/BODY[1]/TABLE[1]/TR[6]/TD[1]/text()[1]").unwrap(),
        Format::Text,
    );
    let table = check_rule(&candidate, &sample);
    let outcomes: Vec<&Outcome> = table.rows.iter().map(|r| &r.outcome).collect();
    assert_eq!(
        outcomes,
        vec![&Outcome::Correct, &Outcome::Correct, &Outcome::Wrong, &Outcome::Void]
    );
    assert_eq!(table.rows[2].display_value(), AKA_VALUE);
}

#[test]
fn table2_row_b_lenient_parse_and_eval() {
    let (_, right) = figure4_pages();
    let doc = parse(&right.html);
    let expr = parse_lenient(
        "BODY//TR[6]/TD[1]/text()[ancestor-or-self/preceding-sibling//text()[contains(\"Runtime:\")]]",
    )
    .unwrap();
    let html_el = doc.html_element().unwrap();
    let hits = Engine::new(&doc).select(&expr, html_el).unwrap();
    assert!(!hits.is_empty());
    // The first match (document order) is the runtime value.
    assert_eq!(doc.text(hits[0]).unwrap().trim(), "104 min");
}

#[test]
fn full_scenario_reaches_table3() {
    let sample = sample_from_pages(paper_working_sample());
    let mut user = SimulatedUser::new();
    let report = build_rule("runtime", &sample, &mut user, &ScenarioConfig::default()).unwrap();
    assert!(report.ok);
    let values: Vec<String> = report.final_table.rows.iter().map(|r| r.display_value()).collect();
    assert_eq!(values, TABLE3_RUNTIMES.to_vec());
    // Refinement used contextual information, as in Figure 4.
    assert!(report.strategies.iter().any(|s| s.contains("Runtime:")));
}

#[test]
fn figure5_xml_document_shape() {
    let pages = paper_working_sample();
    let sample = sample_from_pages(pages.clone());
    let mut user = SimulatedUser::new();
    let report = build_rule("runtime", &sample, &mut user, &ScenarioConfig::default()).unwrap();
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    cluster.rules.push(report.rule);
    let sources: Vec<(String, String)> = pages
        .iter()
        .map(|p| (format!("http://imdb.com{}", p.url.trim_start_matches('.')), p.html.clone()))
        .collect();
    let result = extract_cluster_html(&cluster.compile(), &sources);
    let xml = result.xml.to_string_with(0);
    assert!(xml.starts_with("<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n<imdb-movies>\n"));
    for (uri, runtime) in [
        ("tt0095159", "108 min"),
        ("tt0071853", "91 min"),
        ("tt0074103", "104 min"),
        ("tt0102059", "84 min"),
    ] {
        assert!(xml.contains(&format!("<imdb-movie uri=\"http://imdb.com/title/{uri}/\">")));
        assert!(xml.contains(&format!("<runtime>{runtime}</runtime>")));
    }
    // The XML is consumable by an external agent via the strict reader.
    let root = retroweb::xml::parse_xml(&xml).unwrap();
    assert_eq!(root.children_named("imdb-movie").count(), 4);
}
