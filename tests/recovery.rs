//! Integration: §7 failure detection + semi-automated repair across all
//! drift kinds, and monitoring semantics (values change, structure
//! doesn't → no false positives).

use retroweb::retrozilla::{
    build_rules, check_rule, detect_failures, repair_rules, working_sample, ClusterRules,
    FailureKind, ScenarioConfig, SimulatedUser,
};
use retroweb::sitegen::{
    drift_movie, drift_products, movie, products, Drift, MovieSiteSpec, ProductSiteSpec,
};

fn build_movie_cluster(spec: &MovieSiteSpec, components: &[&str]) -> ClusterRules {
    let site = movie::generate(spec);
    let sample = working_sample(&site, 8);
    let mut user = SimulatedUser::new();
    let reports = build_rules(components, &sample, &mut user, &ScenarioConfig::default());
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    for r in reports {
        assert!(r.ok, "{}: {:?}", r.component, r.strategies);
        cluster.rules.push(r.rule);
    }
    cluster
}

#[test]
fn value_only_drift_triggers_no_failures() {
    // Prices change, structure doesn't: monitors must not page anyone.
    let spec = ProductSiteSpec { n_pages: 10, seed: 31, p_availability: 1.0, ..Default::default() };
    let site = products::generate(&spec);
    let sample = working_sample(&site, 6);
    let mut user = SimulatedUser::new();
    let reports = build_rules(&["name", "price"], &sample, &mut user, &ScenarioConfig::default());
    let mut cluster = ClusterRules::new("shop-products", "product");
    for r in reports {
        cluster.rules.push(r.rule);
    }
    let raised = products::generate(&ProductSiteSpec { price_factor: 1.2, ..spec });
    let drifted_sample = working_sample(&raised, 6);
    assert!(detect_failures(&cluster.compile(), &drifted_sample).is_empty());
}

#[test]
fn every_drift_kind_is_repairable() {
    for drift in [Drift::Relabel, Drift::Reposition, Drift::Redesign] {
        let spec = MovieSiteSpec {
            n_pages: 16,
            seed: 91,
            p_aka: 0.25,
            p_missing_runtime: 0.0,
            ..Default::default()
        };
        let mut cluster = build_movie_cluster(&spec, &["title", "runtime", "country"]);
        let drifted = movie::generate(&drift_movie(&spec, drift));
        let sample = working_sample(&drifted, 8);
        let mut user = SimulatedUser::new();
        repair_rules(&mut cluster, &sample, &mut user, &ScenarioConfig::default());
        for rule in &cluster.rules {
            let table = check_rule(rule, &sample);
            assert!(table.all_correct(), "{drift:?}/{}:\n{}", rule.name, table.render());
        }
    }
}

#[test]
fn relabel_drift_fires_mandatory_missing() {
    let spec =
        MovieSiteSpec { n_pages: 12, seed: 92, p_missing_runtime: 0.0, ..Default::default() };
    let cluster = build_movie_cluster(&spec, &["runtime"]);
    let drifted = movie::generate(&drift_movie(&spec, Drift::Relabel));
    let sample = working_sample(&drifted, 8);
    let failures = detect_failures(&cluster.compile(), &sample);
    assert!(failures.iter().any(|f| f.kind == FailureKind::MandatoryMissing));
}

#[test]
fn product_redesign_detected_and_repaired() {
    let spec = ProductSiteSpec { n_pages: 12, seed: 93, ..Default::default() };
    let site = products::generate(&spec);
    let sample = working_sample(&site, 8);
    let mut user = SimulatedUser::new();
    let reports =
        build_rules(&["name", "price", "sku"], &sample, &mut user, &ScenarioConfig::default());
    let mut cluster = ClusterRules::new("shop-products", "product");
    for r in reports {
        assert!(r.ok);
        cluster.rules.push(r.rule);
    }
    let drifted = products::generate(&drift_products(&spec, Drift::Redesign));
    let drifted_sample = working_sample(&drifted, 8);
    let mut repair_user = SimulatedUser::new();
    repair_rules(&mut cluster, &drifted_sample, &mut repair_user, &ScenarioConfig::default());
    for rule in &cluster.rules {
        assert!(check_rule(rule, &drifted_sample).all_correct(), "{}", rule.name);
    }
}
