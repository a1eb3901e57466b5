//! Canned demo cluster and pages shared by the loopback end-to-end
//! tests, the streaming-memory test, `retrozilla-serve --lint`'s default
//! audit and the facade example. Everything goes through the repository
//! JSON shape, exactly as a `PUT /clusters/{name}` body would.

use retrozilla::{ClusterRules, RepositorySnapshot};

/// Name of the demo cluster.
pub const DEMO_CLUSTER: &str = "demo-movies";

/// The demo cluster's repository JSON: three rules covering the paper's
/// property matrix (mandatory single-valued, optional with a
/// post-processing chain, mandatory multivalued).
pub fn demo_cluster_json() -> String {
    r#"{
  "cluster": "demo-movies",
  "page-element": "demo-movie",
  "rules": [
    {
      "name": "title",
      "optionality": "mandatory",
      "multiplicity": "single-valued",
      "format": "text",
      "locations": ["/HTML[1]/BODY[1]/H1[1]/text()"],
      "post": []
    },
    {
      "name": "runtime",
      "optionality": "optional",
      "multiplicity": "single-valued",
      "format": "text",
      "locations": ["//TABLE[1]/TR[1]/TD[2]/text()"],
      "post": [{"kind": "strip-suffix", "value": "min"}]
    },
    {
      "name": "genre",
      "optionality": "mandatory",
      "multiplicity": "multivalued",
      "format": "text",
      "locations": ["//UL[1]/LI[position() >= 1]/text()"],
      "post": []
    }
  ]
}"#
    .to_string()
}

/// A revised rule set for the same cluster — the hot-reload payload. The
/// page element is renamed and the runtime post-processing dropped, so
/// reloaded output is trivially distinguishable from v1 output.
pub fn updated_cluster_json() -> String {
    r#"{
  "cluster": "demo-movies",
  "page-element": "demo-film",
  "rules": [
    {
      "name": "title",
      "optionality": "mandatory",
      "multiplicity": "single-valued",
      "format": "text",
      "locations": ["/HTML[1]/BODY[1]/H1[1]/text()"],
      "post": []
    },
    {
      "name": "runtime",
      "optionality": "optional",
      "multiplicity": "single-valued",
      "format": "text",
      "locations": ["//TABLE[1]/TR[1]/TD[2]/text()"],
      "post": []
    }
  ]
}"#
    .to_string()
}

/// Parse one of the JSON documents above into `ClusterRules`.
pub fn cluster_from(json_text: &str) -> ClusterRules {
    let json = retroweb_json::parse(json_text).expect("testdata JSON parses");
    ClusterRules::from_json(&json).expect("testdata cluster parses")
}

/// A repository holding the demo cluster (v1 rules).
pub fn demo_repository() -> RepositorySnapshot {
    std::iter::once(cluster_from(&demo_cluster_json())).collect()
}

/// One demo page: `(uri, html)`. Pages vary by index so batch responses
/// exercise real per-page differences.
pub fn demo_page(i: usize) -> (String, String) {
    let genres: &[&str] = match i % 3 {
        0 => &["Drama"],
        1 => &["Drama", "Comedy"],
        _ => &["Sci-Fi", "Thriller", "Noir"],
    };
    let items: String = genres.iter().map(|g| format!("<li>{g}</li>")).collect();
    let html = format!(
        "<html><body><h1>Movie {i}</h1>\
         <table><tr><td>Runtime:</td><td> {} min </td></tr></table>\
         <ul>{items}</ul></body></html>",
        90 + (i % 60),
    );
    (format!("http://demo/movies/{i}"), html)
}

/// The first `n` demo pages.
pub fn demo_pages(n: usize) -> Vec<(String, String)> {
    (0..n).map(demo_page).collect()
}

/// A drifted page: the site redesign dropped the `<h1>` title, so the
/// mandatory `title` rule fails (§7 failure detection).
pub fn drifted_page(i: usize) -> (String, String) {
    let html = format!(
        "<html><body><div class=\"hero\">Movie {i}</div>\
         <table><tr><td>Runtime:</td><td> {} min </td></tr></table>\
         <ul><li>Drama</li></ul></body></html>",
        90 + (i % 60),
    );
    (format!("http://demo/movies/{i}"), html)
}

/// JSON body for the batch and check endpoints: `[{"uri", "html"}, …]`.
pub fn pages_json(pages: &[(String, String)]) -> String {
    let items: Vec<retroweb_json::Json> = pages
        .iter()
        .map(|(uri, html)| {
            retroweb_json::Json::object(vec![
                ("uri".to_string(), retroweb_json::Json::from(uri.as_str())),
                ("html".to_string(), retroweb_json::Json::from(html.as_str())),
            ])
        })
        .collect();
    retroweb_json::Json::Array(items).to_string_compact()
}

/// The XML a direct (in-process) extraction of `pages` produces with the
/// given rules — the byte-identical reference for served responses.
pub fn direct_extract_xml(rules: &ClusterRules, pages: &[(String, String)]) -> String {
    let parsed: Vec<(String, retroweb_html::Document)> =
        pages.iter().map(|(uri, html)| (uri.clone(), retroweb_html::parse(html))).collect();
    retrozilla::extract_cluster_compiled(&rules.compile(), &parsed).xml.to_string_with(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_cluster_parses_and_extracts() {
        let rules = cluster_from(&demo_cluster_json());
        assert_eq!(rules.cluster, DEMO_CLUSTER);
        assert_eq!(rules.rules.len(), 3);
        let xml = direct_extract_xml(&rules, &demo_pages(3));
        assert!(xml.contains("<title>Movie 0</title>"), "{xml}");
        assert!(xml.contains("<runtime>90</runtime>"), "{xml}");
        assert!(xml.contains("<genre>Comedy</genre>"), "{xml}");
    }

    #[test]
    fn updated_cluster_changes_page_element() {
        let rules = cluster_from(&updated_cluster_json());
        let xml = direct_extract_xml(&rules, &demo_pages(1));
        assert!(xml.contains("<demo-film"), "{xml}");
        assert!(xml.contains("<runtime>90 min</runtime>"), "{xml}");
        assert!(!xml.contains("<genre>"), "{xml}");
    }

    #[test]
    fn drifted_page_fails_title() {
        let rules = cluster_from(&demo_cluster_json());
        let (uri, html) = drifted_page(0);
        let doc = retroweb_html::parse(&html);
        let mut failures = Vec::new();
        retrozilla::extract_page_compiled(&rules.compile(), &uri, &doc, &mut failures);
        assert!(failures.iter().any(|f| f.component == "title"), "{failures:?}");
    }
}
