//! Property suite for §3.5 repository persistence: arbitrary
//! `ClusterRules` — including multi-step `PostProcess` chains with
//! non-ASCII arguments and recursively nested `StructureNode` groups —
//! must survive `ClusterRules → JSON → ClusterRules` exactly, both
//! through in-memory documents and through the crash-safe `save`/`load`
//! file path.

use proptest::prelude::*;
use retrozilla::{
    ClusterRules, ClusterStore, ComponentName, Format, MappingRule, Multiplicity, Optionality,
    PostProcess, RepositorySnapshot, ShardedRepository, StructureNode,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_name() -> impl Strategy<Value = ComponentName> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,10}".prop_map(|s| ComponentName::new(&s).unwrap())
}

/// Locations drawn from the shapes the builder/refiner actually emit
/// (arbitrary XPath strings would mostly fail to parse; the round-trip
/// property is about persistence, not the parser).
fn arb_location() -> impl Strategy<Value = retroweb_xpath::Expr> {
    let leaf = prop::sample::select(vec![
        "/HTML[1]/BODY[1]/TABLE[2]/TR[1]/TD[2]/text()[1]",
        "//UL[1]/LI[position() >= 1]/text()",
        "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]",
        "//DIV[3]/SPAN[1]/text()[1] | //P[2]/text()[1]",
        "/HTML[1]/BODY[1]/P[position() >= 2]/text()",
        "//TABLE[1]/TR[position() >= 1]/TD[1]/text()[1]",
    ]);
    leaf.prop_map(|path| retroweb_xpath::parse(path).unwrap())
}

/// Post-processors with printable-unicode arguments: JSON string
/// escaping must round-trip them byte-for-byte.
fn arb_post() -> impl Strategy<Value = PostProcess> {
    prop_oneof![
        "\\PC{0,10}".prop_map(PostProcess::StripPrefix),
        "\\PC{0,10}".prop_map(PostProcess::StripSuffix),
        ("\\PC{0,8}", "\\PC{0,8}")
            .prop_map(|(before, after)| PostProcess::Between { before, after }),
        "\\PC{1,4}".prop_map(PostProcess::SplitList),
    ]
}

fn arb_rule() -> impl Strategy<Value = MappingRule> {
    (
        arb_name(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(arb_location(), 1..4),
        prop::collection::vec(arb_post(), 0..4),
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

/// Recursively nested enhanced structures (§4 aggregation): leaves are
/// component references, branches are named groups of sub-structures.
fn arb_structure() -> BoxedStrategy<StructureNode> {
    let leaf = "\\PC{1,8}".prop_map(StructureNode::Component);
    leaf.prop_recursive(3, 12, 3, |inner| {
        ("\\PC{1,8}", prop::collection::vec(inner, 0..4))
            .prop_map(|(name, children)| StructureNode::Group { name, children })
    })
}

fn arb_cluster() -> impl Strategy<Value = ClusterRules> {
    (
        "\\PC{1,12}",
        "\\PC{1,12}",
        prop::collection::vec(arb_rule(), 0..5),
        prop::collection::vec(arb_structure(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(cluster, page_element, rules, structure, with_structure)| {
            let mut c = ClusterRules { cluster, page_element, rules: Vec::new(), structure: None };
            // A cluster maps each component name to exactly one rule.
            let mut seen = std::collections::BTreeSet::new();
            for rule in rules {
                if seen.insert(rule.name.as_str().to_string()) {
                    c.rules.push(rule);
                }
            }
            if with_structure {
                c.structure = Some(structure);
            }
            c
        })
}

/// Distinct ticket per proptest case so concurrent test binaries never
/// share a temp file.
static TICKET: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cluster_document_round_trip(cluster in arb_cluster()) {
        // Through the single-cluster JSON shape (the PUT /clusters body).
        let json = cluster.to_json();
        let text = json.to_string_pretty();
        let reparsed = retroweb_json::parse(&text).unwrap();
        prop_assert_eq!(ClusterRules::from_json(&reparsed).unwrap(), cluster);
    }

    #[test]
    fn repository_document_round_trip(clusters in prop::collection::vec(arb_cluster(), 1..4)) {
        let repo = ShardedRepository::new(1);
        let mut recorded: Vec<ClusterRules> = Vec::new();
        for c in clusters {
            // Last record wins per name, exactly like the repository.
            recorded.retain(|r| r.cluster != c.cluster);
            recorded.push(c.clone());
            repo.record(c);
        }
        let text = repo.snapshot().to_json().to_string_pretty();
        let restored =
            RepositorySnapshot::from_json(&retroweb_json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(restored.len(), recorded.len());
        for c in recorded {
            let name = c.cluster.clone();
            prop_assert_eq!(restored.get(&name), Some(&c), "cluster {:?}", name);
        }
    }

    #[test]
    fn repository_file_round_trip(cluster in arb_cluster()) {
        // Through the crash-safe save/load path on a real file.
        let repo: RepositorySnapshot = std::iter::once(cluster.clone()).collect();
        let path = std::env::temp_dir().join(format!(
            "retrozilla-proptest-{}-{}.json",
            std::process::id(),
            TICKET.fetch_add(1, Ordering::Relaxed),
        ));
        repo.save(&path).unwrap();
        let restored = RepositorySnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let name = cluster.cluster.clone();
        prop_assert_eq!(restored.get(&name), Some(&cluster));
    }

    #[test]
    fn structure_names_survive_round_trip(structure in prop::collection::vec(arb_structure(), 1..4)) {
        // The flattened component-name view is stable across persistence
        // (what the extractor uses to order leaf emission).
        let mut cluster = ClusterRules::new("s-cluster", "s-page");
        cluster.structure = Some(structure);
        let names: Vec<String> = cluster
            .structure
            .as_ref()
            .unwrap()
            .iter()
            .flat_map(StructureNode::component_names)
            .collect();
        let back = ClusterRules::from_json(&cluster.to_json()).unwrap();
        let back_names: Vec<String> = back
            .structure
            .as_ref()
            .unwrap()
            .iter()
            .flat_map(StructureNode::component_names)
            .collect();
        prop_assert_eq!(back_names, names);
    }
}
