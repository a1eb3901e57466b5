//! Information monitoring (§1: "the monitoring of Web data such as
//! concurrent prices") plus the §7 failure-detection/repair loop.
//!
//! Scenario: build a price rule over today's catalog, watch prices across
//! two crawls, then survive a site redesign that breaks the rule.
//!
//! Run with: `cargo run --example price_monitor`

use retroweb::retrozilla::User;
use retroweb::retrozilla::{
    build_rules, check_rule, detect_failures, repair_rules, working_sample, ClusterRules,
    ScenarioConfig, SimulatedUser,
};
use retroweb::sitegen::{drift_products, products, Drift, ProductSiteSpec};

fn main() {
    // Crawl 1: the catalog today.
    let spec = ProductSiteSpec { n_pages: 12, seed: 77, ..Default::default() };
    let site_v1 = products::generate(&spec);
    let sample_v1 = working_sample(&site_v1, 8);

    let mut user = SimulatedUser::new();
    let components = ["name", "price", "sku"];
    let reports = build_rules(&components, &sample_v1, &mut user, &ScenarioConfig::default());
    let mut cluster = ClusterRules::new("shop-products", "product");
    println!("Built rules over {} sample pages:", sample_v1.len());
    for r in reports {
        assert!(r.ok, "{} failed: {:?}", r.component, r.strategies);
        println!("  {:<6} location: {}", r.component, r.rule.location_display());
        cluster.rules.push(r.rule);
    }

    // Crawl 2: same structure, new prices (price_factor drift).
    let spec_v2 = ProductSiteSpec { price_factor: 1.08, ..spec.clone() };
    let site_v2 = products::generate(&spec_v2);
    println!("\nPrice monitoring across two crawls:");
    let price_rule = cluster.rule("price").unwrap();
    let name_rule = cluster.rule("name").unwrap();
    let mut changes = 0;
    for (p1, p2) in site_v1.pages.iter().zip(&site_v2.pages).take(6) {
        let d1 = retroweb::html::parse(&p1.html);
        let d2 = retroweb::html::parse(&p2.html);
        let name = name_rule.extract_values(&d1).unwrap().pop().unwrap_or_default();
        let old = price_rule.extract_values(&d1).unwrap().pop().unwrap_or_default();
        let new = price_rule.extract_values(&d2).unwrap().pop().unwrap_or_default();
        if old != new {
            changes += 1;
            println!("  {name:<24} {old:>9} -> {new:>9}");
        }
    }
    assert!(changes > 0, "price drift should be visible");

    // Crawl 3: the shop redesigns — the price div gains a wrapper span,
    // breaking the positional rule. §7: detect, then repair
    // semi-automatically from negative examples.
    let spec_v3 = drift_products(&spec, Drift::Redesign);
    let site_v3 = products::generate(&spec_v3);
    let sample_v3 = working_sample(&site_v3, 8);

    let failing_before: Vec<String> = cluster
        .rules
        .iter()
        .filter(|r| !check_rule(r, &sample_v3).all_correct())
        .map(|r| r.name.as_str().to_string())
        .collect();
    let auto_detected = detect_failures(&cluster.compile(), &sample_v3);
    println!("\nAfter site redesign:");
    println!("  rules now failing     : {failing_before:?}");
    println!(
        "  auto-detected failures: {} ({} mandatory-missing)",
        auto_detected.len(),
        auto_detected
            .iter()
            .filter(|f| matches!(f.kind, retroweb::retrozilla::FailureKind::MandatoryMissing))
            .count()
    );

    let mut repair_user = SimulatedUser::new();
    let reports =
        repair_rules(&mut cluster, &sample_v3, &mut repair_user, &ScenarioConfig::default());
    println!("  repair reports:");
    for r in &reports {
        println!("    {:<6} {:?} ({} iterations)", r.component, r.method, r.iterations);
    }
    for rule in &cluster.rules {
        let table = check_rule(rule, &sample_v3);
        assert!(table.all_correct(), "{} unrepaired:\n{}", rule.name, table.render());
    }
    let stats = repair_user.stats();
    println!(
        "  repair effort: {} interactions (vs {} to build from scratch)",
        stats.total(),
        user.stats().total()
    );
    println!("\nAll rules green on the redesigned site.");
}
