//! Experiment E9 — the §7 failure-detection / semi-automated repair
//! proposal, measured. Build rules on a site, let the site drift
//! (relabel / reposition / full redesign), verify the automatic
//! detectors fire, repair from negative examples, and compare extraction
//! F1 before-drift / after-drift / after-repair, plus the interaction
//! cost of repair vs rebuilding from scratch.

use retroweb_bench::{build_movie_rules, evaluate_rules, f3, write_experiment};
use retroweb_json::Json;
use retroweb_sitegen::{drift_movie, movie, Drift, MovieSiteSpec};
use retrozilla::{repair_rules, working_sample, ClusterRules, ScenarioConfig, SimulatedUser, User};

const COMPONENTS: &[&str] = &["title", "runtime", "country", "rating"];
const SAMPLE_N: usize = 8;

fn main() {
    println!("E9. Failure detection and semi-automated repair under site drift\n");
    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "drift",
        "F1 before",
        "F1 drifted",
        "F1 repaired",
        "detections",
        "repair cost",
        "rebuild cost"
    );

    let spec = MovieSiteSpec {
        n_pages: 40,
        seed: 900,
        p_aka: 0.3,
        p_missing_runtime: 0.0,
        ..Default::default()
    };
    let mut records = Vec::new();
    for drift in [Drift::Relabel, Drift::Reposition, Drift::Redesign] {
        // Build on the original site.
        let (reports, _, _) = build_movie_rules(&spec, SAMPLE_N, COMPONENTS);
        let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
        for r in reports {
            assert!(r.ok, "{}", r.component);
            cluster.rules.push(r.rule);
        }
        let site = movie::generate(&spec);
        let f1_before = evaluate_rules(&cluster.rules, &site.pages, COMPONENTS).f1;

        // The site drifts.
        let drifted_spec = drift_movie(&spec, drift);
        let drifted = movie::generate(&drifted_spec);
        let f1_drifted = evaluate_rules(&cluster.rules, &drifted.pages, COMPONENTS).f1;

        // Automatic detection (§7) on a fresh sample of the drifted site.
        let sample = working_sample(&drifted, SAMPLE_N);
        let detections = retrozilla::detect_failures(&cluster.compile(), &sample).len();

        // Semi-automated repair from negative examples.
        let mut repair_user = SimulatedUser::new();
        let _ = repair_rules(&mut cluster, &sample, &mut repair_user, &ScenarioConfig::default());
        let f1_repaired = evaluate_rules(&cluster.rules, &drifted.pages, COMPONENTS).f1;
        let repair_cost = repair_user.stats().total();

        // Cost of building everything from scratch on the drifted site.
        let (_, scratch_stats, _) = {
            let mut user = SimulatedUser::new();
            let reports =
                retrozilla::build_rules(COMPONENTS, &sample, &mut user, &ScenarioConfig::default());
            (reports, user.stats(), ())
        };
        let rebuild_cost = scratch_stats.total();

        let drift_name = format!("{drift:?}").to_lowercase();
        println!(
            "{:<12} {:>9} {:>10} {:>10} {:>12} {:>12} {:>14}",
            drift_name,
            f3(f1_before),
            f3(f1_drifted),
            f3(f1_repaired),
            detections,
            repair_cost,
            rebuild_cost
        );

        assert!(f1_before > 0.99, "{drift:?}: baseline must be clean");
        assert!(f1_drifted < f1_before, "{drift:?}: drift must hurt");
        assert!(f1_repaired > 0.99, "{drift:?}: repair must restore, got {f1_repaired}");
        if drift == Drift::Relabel || drift == Drift::Redesign {
            assert!(detections > 0, "{drift:?}: detectors must fire");
        }
        records.push(Json::object(vec![
            ("drift".into(), Json::from(drift_name)),
            ("f1_before".into(), Json::from(f1_before)),
            ("f1_drifted".into(), Json::from(f1_drifted)),
            ("f1_repaired".into(), Json::from(f1_repaired)),
            ("detections".into(), Json::from(detections)),
            ("repair_interactions".into(), Json::from(repair_cost as usize)),
            ("rebuild_interactions".into(), Json::from(rebuild_cost as usize)),
        ]));
    }
    println!("\nShape check: drift degrades F1, detectors fire, repair restores to ≥0.99  ✓");

    write_experiment(
        "exp_recovery",
        &Json::object(vec![
            ("experiment".into(), Json::from("e9-recovery")),
            ("drifts".into(), Json::Array(records)),
        ]),
    );
}
