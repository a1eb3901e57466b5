//! Property tests for the rule model, repository persistence and the
//! checking taxonomy.

use proptest::prelude::*;
use retrozilla::repository::{rule_from_json, rule_to_json};
use retrozilla::{
    classify, ClusterRules, ComponentName, Format, MappingRule, Multiplicity, Optionality, Outcome,
    PostProcess, RepositorySnapshot, StructureNode,
};

fn arb_name() -> impl Strategy<Value = ComponentName> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,12}".prop_map(|s| ComponentName::new(&s).unwrap())
}

fn arb_location() -> impl Strategy<Value = retroweb_xpath::Expr> {
    // Realistic rule locations: positional paths with optional context
    // predicates, as the builder/refiner emit them.
    let tags = prop::sample::select(vec!["DIV", "TABLE", "TR", "TD", "UL", "LI", "P", "SPAN"]);
    let step = (tags, 1u32..6).prop_map(|(t, i)| format!("{t}[{i}]"));
    (prop::collection::vec(step, 1..5), any::<bool>(), "[a-zA-Z :]{1,10}").prop_map(
        |(steps, with_ctx, label)| {
            let mut path = format!("/HTML[1]/BODY[1]/{}", steps.join("/"));
            if with_ctx {
                path.push_str(&format!(
                    "/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"{label}\")]]"
                ));
            } else {
                path.push_str("/text()[1]");
            }
            retroweb_xpath::parse(&path).unwrap()
        },
    )
}

fn arb_post() -> impl Strategy<Value = PostProcess> {
    prop_oneof![
        "[a-z]{1,6}".prop_map(PostProcess::StripPrefix),
        "[a-z]{1,6}".prop_map(PostProcess::StripSuffix),
        ("[a-z(]{0,4}", "[a-z)]{0,4}")
            .prop_map(|(before, after)| PostProcess::Between { before, after }),
        prop::sample::select(vec![",", "/", ";"])
            .prop_map(|s| PostProcess::SplitList(s.to_string())),
    ]
}

fn arb_rule() -> impl Strategy<Value = MappingRule> {
    (
        arb_name(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(arb_location(), 1..4),
        prop::collection::vec(arb_post(), 0..3),
    )
        .prop_map(|(name, opt, multi, mixed, locations, post)| MappingRule {
            name,
            optionality: if opt { Optionality::Optional } else { Optionality::Mandatory },
            multiplicity: if multi {
                Multiplicity::Multivalued
            } else {
                Multiplicity::SingleValued
            },
            format: if mixed { Format::Mixed } else { Format::Text },
            locations,
            post,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rule_json_round_trip(rule in arb_rule()) {
        let json = rule_to_json(&rule);
        let back = rule_from_json(&json).unwrap();
        prop_assert_eq!(back, rule);
    }

    #[test]
    fn repository_file_round_trip(rules in prop::collection::vec(arb_rule(), 1..5)) {
        let mut cluster = ClusterRules::new("test-cluster", "test-page");
        // Dedup names: a cluster maps each component to exactly one rule.
        let mut seen = std::collections::BTreeSet::new();
        for r in rules {
            if seen.insert(r.name.as_str().to_string()) {
                cluster.rules.push(r);
            }
        }
        cluster.structure = Some(vec![
            StructureNode::Group {
                name: "all".into(),
                children: cluster
                    .rules
                    .iter()
                    .map(|r| StructureNode::Component(r.name.as_str().to_string()))
                    .collect(),
            },
        ]);
        let repo: RepositorySnapshot = std::iter::once(cluster.clone()).collect();
        let text = repo.to_json().to_string_pretty();
        let parsed = retroweb_json::parse(&text).unwrap();
        let restored = RepositorySnapshot::from_json(&parsed).unwrap();
        prop_assert_eq!(restored.get("test-cluster"), Some(&cluster));
    }

    #[test]
    fn classify_is_correct_iff_equal_normalised(
        expected in prop::collection::vec("[a-z0-9 ]{0,8}", 0..4),
        matched in prop::collection::vec("[a-z0-9 ]{0,8}", 0..4),
    ) {
        let norm = |v: &Vec<String>| -> Vec<String> {
            v.iter().map(|s| retroweb_xpath::normalize_space(s)).filter(|s| !s.is_empty()).collect()
        };
        let e = norm(&expected);
        let m = norm(&matched);
        let outcome = classify(&e, &m);
        prop_assert_eq!(outcome == Outcome::Correct, e == m);
    }

    #[test]
    fn classify_void_iff_nothing_matched_something_expected(
        expected in prop::collection::vec("[a-z]{1,6}", 1..4),
    ) {
        prop_assert_eq!(classify(&expected, &[]), Outcome::Void);
        prop_assert_eq!(classify(&[], &expected), Outcome::Unexpected);
    }

    #[test]
    fn split_list_never_produces_empty_values(
        values in prop::collection::vec("[a-z, ]{0,16}", 0..4),
    ) {
        let out = PostProcess::SplitList(",".into()).apply(values);
        prop_assert!(out.iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn component_name_ebnf_total(name in "\\PC{0,16}") {
        // Constructor accepts exactly the EBNF language; never panics.
        let ok = ComponentName::new(&name).is_ok();
        let mut chars = name.chars();
        let expected = chars.next().map(|c| c.is_ascii_alphabetic()).unwrap_or(false)
            && name.chars().skip(1).all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        prop_assert_eq!(ok, expected);
    }
}
