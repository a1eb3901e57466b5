//! Extraction-processor and check-table edge cases.

use retroweb_sitegen::Page;
use retroweb_xpath::parse as xparse;
use retrozilla::extract::cluster_schema;
use retrozilla::{
    check_rule, extract_cluster_html, sample_from_pages, CheckRow, CheckTable, ClusterRules,
    ComponentName, Format, MappingRule, Multiplicity, Optionality, Outcome, PostProcess,
    StructureNode,
};

fn rule(name: &str, xpath: &str) -> MappingRule {
    MappingRule {
        name: ComponentName::new(name).unwrap(),
        optionality: Optionality::Optional,
        multiplicity: Multiplicity::SingleValued,
        format: Format::Text,
        locations: vec![xparse(xpath).unwrap()],
        post: vec![],
    }
}

#[test]
fn empty_page_list_gives_empty_document() {
    let cluster = ClusterRules::new("c", "p");
    let result = extract_cluster_html(&cluster.compile(), &[]);
    assert_eq!(
        result.xml.to_string_with(0),
        "<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n<c/>\n"
    );
    assert!(result.failures.is_empty());
}

#[test]
fn structure_with_unknown_component_is_tolerated() {
    let mut cluster = ClusterRules::new("c", "p");
    cluster.rules.push(rule("real", "//P/text()"));
    cluster.structure = Some(vec![
        StructureNode::Component("real".into()),
        StructureNode::Component("ghost".into()), // no rule, no values
        StructureNode::Group { name: "empty-group".into(), children: vec![] },
    ]);
    let result =
        extract_cluster_html(&cluster.compile(), &[("u".into(), "<body><p>v</p></body>".into())]);
    let xml = result.xml.to_string_with(0);
    assert!(xml.contains("<real>v</real>"));
    assert!(!xml.contains("ghost"));
    assert!(!xml.contains("empty-group")); // empty groups omitted
                                           // The schema still declares the ghost slot (as optional).
    let xsd = cluster_schema(&cluster).to_xsd().to_string_with(2);
    assert!(xsd.contains("name=\"ghost\" minOccurs=\"0\""));
}

#[test]
fn post_processing_applies_during_extraction() {
    let mut cluster = ClusterRules::new("movies", "movie");
    let mut r = rule("runtime", "//TD[2]/text()");
    r.post.push(PostProcess::StripSuffix("min".into()));
    cluster.rules.push(r);
    let page = "<body><table><tr><td>Runtime:</td><td>108 min</td></tr></table></body>";
    let result = extract_cluster_html(&cluster.compile(), &[("u".into(), page.into())]);
    assert!(result.xml.to_string_with(0).contains("<runtime>108</runtime>"));
}

#[test]
fn split_list_turns_single_cell_into_multiple_elements() {
    // The §7 comma-separated multivalued case, end to end.
    let mut cluster = ClusterRules::new("movies", "movie");
    let mut r = rule("country", "//TD[2]/text()");
    r.multiplicity = Multiplicity::Multivalued;
    r.post.push(PostProcess::SplitList("/".into()));
    cluster.rules.push(r);
    let page = "<body><table><tr><td>Country:</td><td>USA/UK</td></tr></table></body>";
    let result = extract_cluster_html(&cluster.compile(), &[("u".into(), page.into())]);
    let xml = result.xml.to_string_with(0);
    assert!(xml.contains("<country>USA</country>"));
    assert!(xml.contains("<country>UK</country>"));
}

#[test]
fn broken_location_yields_void_not_panic() {
    // A rule whose location axis walks nowhere.
    let r = rule("x", "/NOPE[9]/MISSING[3]/text()[7]");
    let mut page = Page::new("u".into(), "<body><p>y</p></body>".into(), "c");
    page.expect("x", "y");
    let sample = sample_from_pages(vec![page]);
    let table = check_rule(&r, &sample);
    assert_eq!(table.rows[0].outcome, Outcome::Void);
}

#[test]
fn check_table_render_past_26_rows_wraps_letters() {
    let rows: Vec<CheckRow> = (0..30)
        .map(|i| CheckRow {
            uri: format!("u{i}"),
            matched: vec![format!("v{i}")],
            outcome: Outcome::Correct,
        })
        .collect();
    let table = CheckTable { component: "c".into(), rows };
    let rendered = table.render();
    // Row 27 wraps back to 'a'.
    assert!(rendered.contains("\na. u26"));
    assert!(rendered.lines().count() > 30);
}

#[test]
fn unexpected_match_on_optional_component_detected() {
    // Rule matches junk on a page where the component is absent.
    let r = rule("x", "//P/text()");
    let mut with = Page::new("u1".into(), "<body><p>real</p></body>".into(), "c");
    with.expect("x", "real");
    let without = Page::new("u2".into(), "<body><p>junk</p></body>".into(), "c");
    let sample = sample_from_pages(vec![with, without]);
    let table = check_rule(&r, &sample);
    assert_eq!(table.rows[0].outcome, Outcome::Correct);
    assert_eq!(table.rows[1].outcome, Outcome::Unexpected);
}

#[test]
fn mixed_format_rule_emits_flattened_text() {
    let mut cluster = ClusterRules::new("articles", "article");
    let mut r = rule("para", "//P[1]");
    r.format = Format::Mixed;
    cluster.rules.push(r);
    let page = "<body><p><b>Lead:</b> rest of <i>the</i> text</p></body>";
    let result = extract_cluster_html(&cluster.compile(), &[("u".into(), page.into())]);
    assert!(result.xml.to_string_with(0).contains("<para>Lead: rest of the text</para>"));
    // Mixed leaves get the mixed complexType in the schema.
    let xsd = cluster_schema(&cluster).to_xsd().to_string_with(2);
    assert!(xsd.contains("mixed=\"true\""));
}
