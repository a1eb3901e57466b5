//! Differential property suite for fused one-pass extraction: on
//! arbitrary rule sets × arbitrary pages, the fused plan
//! (`extract_page_compiled`), per-rule compiled execution
//! (`extract_page_compiled_per_rule`) and the tree-walking interpreter
//! (`extract_cluster_interpreted`) must produce identical output —
//! values, failures, XML and schema.
//!
//! Rules and pages draw labels from one shared pool so the generated
//! label-anchored rules actually hit the generated pages: the suite
//! exercises real extractions, not a sea of empty matches.

use proptest::prelude::*;
use retrozilla::extract::{extract_cluster_interpreted, extract_page_compiled_per_rule};
use retrozilla::{
    extract_cluster_compiled, extract_page_compiled, ClusterRules, ComponentName, Format,
    MappingRule, Multiplicity, Optionality,
};

/// Shared between rule generation and page generation, so contextual
/// predicates find their anchors.
const LABELS: [&str; 5] = ["Runtime:", "Country:", "Genre:", "Title:", "Director:"];

fn arb_page() -> impl Strategy<Value = String> {
    // A label/value fact table (some labels present, some missing) plus
    // a list and a heading — the layouts the paper's clusters mix.
    (
        prop::collection::vec((0usize..LABELS.len(), "[a-zA-Z0-9 ]{0,12}"), 0..6),
        prop::collection::vec("[a-zA-Z]{1,8}", 0..4),
        "[a-zA-Z ]{0,16}",
    )
        .prop_map(|(facts, items, heading)| {
            let mut html = format!("<html><body><h1>{heading}</h1><table>");
            for (li, value) in &facts {
                html.push_str(&format!("<tr><td><b>{}</b></td><td>{value}</td></tr>", LABELS[*li]));
            }
            html.push_str("</table><ul>");
            for item in &items {
                html.push_str(&format!("<li>{item}</li>"));
            }
            html.push_str("</ul></body></html>");
            html
        })
}

/// One location expression: label-anchored contextual, fully positional,
/// shared anchors, or an unfusible union — so generated clusters mix
/// fused and fallback paths.
fn arb_location() -> impl Strategy<Value = retroweb_xpath::Expr> {
    prop_oneof![
        (0usize..LABELS.len()).prop_map(|li| {
            retroweb_xpath::parse(&format!(
                "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
                 [contains(normalize-space(.), \"{}\")]]",
                LABELS[li]
            ))
            .unwrap()
        }),
        (1u32..5, 1u32..3).prop_map(|(r, c)| {
            retroweb_xpath::parse(&format!("/HTML[1]/BODY[1]/TABLE[1]/TR[{r}]/TD[{c}]/text()"))
                .unwrap()
        }),
        prop::sample::select(vec![
            "//UL[1]/LI[position() >= 1]/text()",
            "//H1[1]/text()",
            "//TABLE/TR/TD[2]/text()",
            "//LI/text() | //H1/text()",
            "//TD/text() | //LI/text()",
        ])
        .prop_map(|s| retroweb_xpath::parse(s).unwrap()),
    ]
}

fn arb_cluster() -> impl Strategy<Value = ClusterRules> {
    prop::collection::vec(
        (any::<bool>(), any::<bool>(), prop::collection::vec(arb_location(), 1..4)),
        1..8,
    )
    .prop_map(|parts| {
        let mut c = ClusterRules::new("fusion-prop", "page");
        c.rules = parts
            .into_iter()
            .enumerate()
            .map(|(i, (opt, multi, locations))| MappingRule {
                name: ComponentName::new(&format!("c{i}")).unwrap(),
                optionality: if opt { Optionality::Optional } else { Optionality::Mandatory },
                multiplicity: if multi {
                    Multiplicity::Multivalued
                } else {
                    Multiplicity::SingleValued
                },
                format: Format::Text,
                locations,
                post: vec![],
            })
            .collect();
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Page-level differential: fused one-pass extraction equals
    // per-rule compiled execution — values and §7 failures both.
    #[test]
    fn fused_equals_per_rule(cluster in arb_cluster(), pages in prop::collection::vec(arb_page(), 1..4)) {
        let compiled = cluster.compile();
        for (i, html) in pages.iter().enumerate() {
            let doc = retroweb_html::parse(html);
            let uri = format!("u{i}");
            let mut fused_failures = Vec::new();
            let mut per_rule_failures = Vec::new();
            let fused = extract_page_compiled(&compiled, &uri, &doc, &mut fused_failures);
            let per_rule =
                extract_page_compiled_per_rule(&compiled, &uri, &doc, &mut per_rule_failures);
            prop_assert_eq!(&fused, &per_rule, "values diverge on page {}: {}", i, html);
            prop_assert_eq!(&fused_failures, &per_rule_failures, "failures diverge on page {}", i);
        }
    }

    // Cluster-level differential: the full fused pipeline (drivers,
    // sinks, XML assembly) equals the tree-walking interpreter
    // reference — same bar the compiled engine had to clear.
    #[test]
    fn fused_cluster_equals_interpreted(
        cluster in arb_cluster(),
        pages in prop::collection::vec(arb_page(), 1..4),
    ) {
        let parsed: Vec<(String, retroweb_html::Document)> = pages
            .iter()
            .enumerate()
            .map(|(i, html)| (format!("u{i}"), retroweb_html::parse(html)))
            .collect();
        let interpreted = extract_cluster_interpreted(&cluster, &parsed);
        let fused = extract_cluster_compiled(&cluster.compile(), &parsed);
        prop_assert_eq!(interpreted.xml.to_string_with(2), fused.xml.to_string_with(2));
        prop_assert_eq!(interpreted.failures, fused.failures);
        prop_assert_eq!(
            interpreted.schema.to_xsd().to_string_with(2),
            fused.schema.to_xsd().to_string_with(2)
        );
    }
}
