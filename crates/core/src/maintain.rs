//! Semi-automated rule maintenance (§7, implemented).
//!
//! "A failure in a rule could be automatically detected when a mandatory
//! component cannot be found in one page or when the extraction of a
//! single-valued text component returns more than one node. When such a
//! failure is detected, the rule should be refined manually from the
//! negative examples." [`detect_failures`] implements the automatic
//! detection; [`repair_rules`] runs the §3.4 refinement loop on the
//! failing rules against a fresh working sample of the drifted site,
//! falling back to rebuilding the candidate from scratch when refinement
//! cannot rescue the old rule.

use crate::builder::{build_rule, ScenarioConfig};
use crate::check::check_rule;
use crate::extract::{extract_page_compiled, RuleFailure};
use crate::oracle::{Instance, User};
use crate::refine::{refine_rule, RefineConfig};
use crate::repository::{ClusterRules, CompiledCluster};
use crate::sample::SamplePage;

/// Run the §7 detectors over a sample of (possibly drifted) pages: the
/// compiled (possibly repository-cached) rule set is applied to every
/// sample page.
pub fn detect_failures(rules: &CompiledCluster, sample: &[SamplePage]) -> Vec<RuleFailure> {
    let mut failures = Vec::new();
    for sp in sample {
        extract_page_compiled(rules, &sp.page.url, &sp.doc, &mut failures);
    }
    failures
}

/// How one rule was repaired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairMethod {
    /// The existing rule already checks clean (failure was transient or
    /// detection was for another page set).
    NoneNeeded,
    /// The §3.4 refinement loop fixed the existing rule.
    Refined,
    /// The rule had to be rebuilt from a fresh selection.
    Rebuilt,
    /// Could not be repaired on this sample.
    Failed,
}

/// Report for one repaired component.
#[derive(Clone, Debug)]
pub struct RepairReport {
    pub component: String,
    pub method: RepairMethod,
    pub iterations: usize,
    pub strategies: Vec<String>,
}

/// Repair every failing rule in place against the new working sample.
pub fn repair_rules(
    rules: &mut ClusterRules,
    sample: &[SamplePage],
    user: &mut dyn User,
    config: &ScenarioConfig,
) -> Vec<RepairReport> {
    // Which components fail somewhere on the new sample?
    let failures = detect_failures(&rules.compile(), sample);
    let mut failing: Vec<String> = failures.iter().map(|f| f.component.clone()).collect();
    // Detection catches the §7 conditions; value drift (rule matches the
    // wrong node) shows up when the user spot-checks the table.
    for rule in &rules.rules {
        let table = check_rule(rule, sample);
        if !table.all_correct() {
            failing.push(rule.name.as_str().to_string());
        }
    }
    failing.sort();
    failing.dedup();

    let mut reports = Vec::new();
    for component in failing {
        let Some(rule) = rules.rule(&component).cloned() else { continue };
        // Confirm the failure on this sample before repairing.
        if check_rule(&rule, sample).all_correct() {
            reports.push(RepairReport {
                component,
                method: RepairMethod::NoneNeeded,
                iterations: 0,
                strategies: Vec::new(),
            });
            continue;
        }
        // Attempt 1: refine the existing rule from negative examples. The
        // user re-selects the value on a page that still shows it.
        let selection = sample.iter().enumerate().find_map(|(i, sp)| {
            user.select(&sp.doc, &sp.page, &component, Instance::First).map(|n| (i, n))
        });
        if let Some((page_idx, node)) = selection {
            let outcome =
                refine_rule(rule.clone(), page_idx, node, sample, user, &RefineConfig::default());
            if outcome.ok {
                let report = RepairReport {
                    component: component.clone(),
                    method: RepairMethod::Refined,
                    iterations: outcome.iterations,
                    strategies: outcome.applied,
                };
                *rules.rule_mut(&component).expect("rule exists") = outcome.rule;
                reports.push(report);
                continue;
            }
        }
        // Attempt 2: rebuild from scratch.
        match build_rule(&component, sample, user, config) {
            Some(rebuilt) if rebuilt.ok => {
                *rules.rule_mut(&component).expect("rule exists") = rebuilt.rule;
                reports.push(RepairReport {
                    component,
                    method: RepairMethod::Rebuilt,
                    iterations: rebuilt.iterations,
                    strategies: rebuilt.strategies,
                });
            }
            _ => reports.push(RepairReport {
                component,
                method: RepairMethod::Failed,
                iterations: 0,
                strategies: Vec::new(),
            }),
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_rules;
    use crate::extract::FailureKind;
    use crate::oracle::SimulatedUser;
    use crate::sample::working_sample;
    use retroweb_sitegen::{drift_movie, movie, Drift, MovieSiteSpec};

    fn build_cluster(spec: &MovieSiteSpec, components: &[&str]) -> ClusterRules {
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
    fn no_failures_without_drift() {
        let spec =
            MovieSiteSpec { n_pages: 8, seed: 51, p_missing_runtime: 0.0, ..Default::default() };
        let rules = build_cluster(&spec, &["title", "country"]);
        let fresh = movie::generate(&MovieSiteSpec { seed: 52, ..spec });
        let sample = working_sample(&fresh, 8);
        assert!(detect_failures(&rules.compile(), &sample).is_empty());
    }

    #[test]
    fn reposition_drift_detected_and_repaired() {
        let spec = MovieSiteSpec {
            n_pages: 8,
            seed: 53,
            p_missing_runtime: 0.0,
            p_aka: 0.0,
            noise_blocks: (0, 0),
            ..Default::default()
        };
        let mut rules = build_cluster(&spec, &["title", "runtime", "country"]);
        // The site redesigns: extra leading rows + a wrapper div.
        let drifted = movie::generate(&drift_movie(&spec, Drift::Reposition));
        let sample = working_sample(&drifted, 8);

        // Mandatory components may or may not trip the automatic §7
        // detectors (contextual rules survive repositioning), but repair
        // must leave everything green.
        let mut user = SimulatedUser::new();
        let reports = repair_rules(&mut rules, &sample, &mut user, &ScenarioConfig::default());
        for rule in &rules.rules {
            let table = check_rule(rule, &sample);
            assert!(table.all_correct(), "{} still failing:\n{}", rule.name, table.render());
        }
        // At least the reports are consistent.
        assert!(reports.iter().all(|r| r.method != RepairMethod::Failed), "{reports:?}");
    }

    #[test]
    fn relabel_drift_repaired() {
        let spec = MovieSiteSpec {
            n_pages: 8,
            seed: 54,
            p_missing_runtime: 0.0,
            p_aka: 0.3,
            ..Default::default()
        };
        let mut rules = build_cluster(&spec, &["runtime"]);
        let drifted = movie::generate(&drift_movie(&spec, Drift::Relabel));
        let sample = working_sample(&drifted, 8);
        let failures = detect_failures(&rules.compile(), &sample);
        // "Runtime:" label is gone: the contextual rule finds nothing on
        // every page → mandatory-missing fires.
        assert!(failures.iter().any(|f| f.kind == FailureKind::MandatoryMissing), "{failures:?}");
        let mut user = SimulatedUser::new();
        let reports = repair_rules(&mut rules, &sample, &mut user, &ScenarioConfig::default());
        assert!(!reports.is_empty());
        for rule in &rules.rules {
            assert!(check_rule(rule, &sample).all_correct());
        }
    }
}
