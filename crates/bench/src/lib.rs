//! # retroweb-bench — experiment harness support
//!
//! The paper's experiments live in [`paper`], one function per figure,
//! table and experiment. `cargo run --release -p retroweb-bench --bin
//! paper [name…]` runs them (all of them without a name) and rewrites
//! their records in the committed `BENCH_paper.json`; `tests/paper.rs`
//! runs each one in `cargo test` and compares its record with that file.
//! This module holds the plumbing they share. The serving layer's
//! performance gates are tests in the crates they measure, and
//! servebench measures served extraction.

use retroweb_sitegen::{movie, MovieSiteSpec, Page};
use retrozilla::{
    build_rules, page_counts, ComponentReport, Counts, InteractionStats, MappingRule, Prf,
    SamplePage, ScenarioConfig, SimulatedUser, User,
};
use std::collections::BTreeMap;

pub mod paper;

/// Build rules for `components` over the first `sample_n` pages of a
/// movie site; returns the reports plus the user-effort counters and the
/// working sample used.
pub fn build_movie_rules(
    spec: &MovieSiteSpec,
    sample_n: usize,
    components: &[&str],
) -> (Vec<ComponentReport>, InteractionStats, Vec<SamplePage>) {
    let site = movie::generate(spec);
    let sample = retrozilla::working_sample(&site, sample_n);
    let mut user = SimulatedUser::new();
    let reports = build_rules(components, &sample, &mut user, &ScenarioConfig::default());
    (reports, user.stats(), sample)
}

/// The non-empty values each rule extracts from one page, by component.
pub fn page_values(rules: &[MappingRule], html: &str) -> BTreeMap<String, Vec<String>> {
    let doc = retroweb_html::parse(html);
    let mut got = BTreeMap::new();
    for rule in rules {
        if let Ok(values) = rule.extract_values(&doc) {
            if !values.is_empty() {
                got.insert(rule.name.as_str().to_string(), values);
            }
        }
    }
    got
}

/// Evaluate a rule set on held-out pages: micro-averaged P/R/F1 over the
/// targeted components.
pub fn evaluate_rules(rules: &[MappingRule], pages: &[Page], components: &[&str]) -> Prf {
    let mut counts = Counts::default();
    for page in pages {
        counts.add(page_counts(&page_values(rules, &page.html), &page.truth, components, false));
    }
    counts.prf()
}

/// Evaluate arbitrary per-page extraction output against ground truth.
/// Returns the micro P/R/F1 plus the count of values outside the
/// targeted component set (the "unwanted data" of §6).
pub fn evaluate_extractions(
    outputs: &[(BTreeMap<String, Vec<String>>, &Page)],
    components: &[&str],
    penalise_extra: bool,
) -> (Prf, usize) {
    let mut counts = Counts::default();
    let mut extra = 0usize;
    for (got, page) in outputs {
        counts.add(page_counts(got, &page.truth, components, penalise_extra));
        for (name, values) in got.iter() {
            if !components.contains(&name.as_str()) {
                extra += values.len();
            }
        }
    }
    (counts.prf(), extra)
}

/// Map a RoadRunner wrapper's anonymous fields to component names by
/// scoring each field's values against each component's ground truth on
/// training pages, taking the best match per component. This mapping step
/// is exactly the manual labelling the paper says automatic systems still
/// need ("a user intervention is still necessary to give a semantic
/// interpretation to the extracted data", §6).
pub fn map_roadrunner_fields(
    wrapper: &retroweb_baselines::RoadRunnerWrapper,
    training: &[Page],
    components: &[&str],
) -> BTreeMap<String, String> {
    use retrozilla::value_counts;
    // field → component → matched-value count
    let mut scores: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for page in training {
        let fields = retroweb_baselines::Extractor::extract(wrapper, &page.html);
        for (field, values) in &fields {
            for &component in components {
                let want = page.truth.get(component).cloned().unwrap_or_default();
                let c = value_counts(values, &want);
                *scores
                    .entry(field.clone())
                    .or_default()
                    .entry(component.to_string())
                    .or_insert(0) += c.tp;
            }
        }
    }
    let mut mapping: BTreeMap<String, String> = BTreeMap::new();
    for &component in components {
        let best = scores
            .iter()
            .filter_map(|(field, per)| per.get(component).map(|&s| (s, field.clone())))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        if let Some((score, field)) = best {
            if score > 0 {
                mapping.insert(component.to_string(), field);
            }
        }
    }
    mapping
}

/// Format a float with 3 decimals for report tables.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_rules_perfect_on_training_distribution() {
        let spec = MovieSiteSpec { n_pages: 12, seed: 61, ..Default::default() };
        let (reports, _, _) = build_movie_rules(&spec, 8, &["title", "country"]);
        let rules: Vec<MappingRule> = reports.into_iter().map(|r| r.rule).collect();
        let site = movie::generate(&spec);
        let prf = evaluate_rules(&rules, &site.pages, &["title", "country"]);
        assert!(prf.f1 > 0.99, "{prf:?}");
    }

    #[test]
    fn mean_and_f3() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(f3(0.12345), "0.123");
    }
}
