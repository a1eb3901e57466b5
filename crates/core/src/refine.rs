//! Rule refinement (§3.4).
//!
//! "Generated from one positive example, a candidate rule is frequently
//! too specific to locate the expected component values in all the pages
//! of the working sample." The engine iterates: check the rule, diagnose
//! the first failing page, apply a strategy, repeat — exactly the Figure 3
//! loop. Strategies, in the paper's order:
//!
//! 1. **Adding contextual information** — replace unreliable position
//!    predicates with a predicate anchored on "a constant character
//!    string that always visually appears before (or after) the targeted
//!    value" (Figure 4). The shift level is unknown, so strip levels are
//!    tried deepest-first until the sample checks clean.
//! 2. **Optionality / multiplicity / format properties** — mark the
//!    component optional when it is missing from some pages; broaden the
//!    repetitive step (deduced by comparing the first/last instance
//!    paths) when it is multivalued; switch the format to mixed and
//!    relocate to the value's container element when matches come back
//!    incomplete.
//! 3. **Adding an alternative path** — select the value on a negative
//!    example and append a second location to the rule.

use crate::check::{check_rule_full, CheckTable, Outcome};
use crate::model::{Format, MappingRule, Multiplicity, Optionality};
use crate::oracle::{Instance, User};
use crate::sample::SamplePage;
use retroweb_xpath::generalize::{
    broaden_step, context_label, divergence_step, with_context_predicate_at, ContextDirection,
};
use retroweb_xpath::{builder, Axis, Expr, LocationPath, NodeTest};

/// Refinement limits and ablation switches.
///
/// The `enable_*` flags exist for the ablation study (experiment EA):
/// disabling a strategy shows what each §3.4 move contributes. All
/// default to on.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// Maximum check-diagnose-apply iterations before giving up.
    pub max_iterations: usize,
    /// "Adding contextual information" (Figure 4).
    pub enable_context: bool,
    /// "Adding an alternative path".
    pub enable_alternative: bool,
    /// The property refinements: multivalued broadening and mixed-format
    /// relocation.
    pub enable_property_refinements: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_iterations: 16,
            enable_context: true,
            enable_alternative: true,
            enable_property_refinements: true,
        }
    }
}

/// The result of the refinement loop.
#[derive(Clone, Debug)]
pub struct RefineOutcome {
    pub rule: MappingRule,
    /// True when the final rule checks clean on the whole sample.
    pub ok: bool,
    pub iterations: usize,
    /// Human-readable log of applied strategies (for the Figure 3 trace).
    pub applied: Vec<String>,
    pub final_table: CheckTable,
}

/// Run the refinement loop on a candidate rule.
///
/// `selection_page` / `selection_node` are the provenance of the
/// candidate (contextual labels are mined around the selected value).
pub fn refine_rule(
    mut rule: MappingRule,
    selection_page: usize,
    selection_node: retroweb_html::NodeId,
    sample: &[SamplePage],
    user: &mut dyn User,
    config: &RefineConfig,
) -> RefineOutcome {
    let mut applied: Vec<String> = Vec::new();
    let mut iterations = 0;
    // The label anchoring the value, mined once from the selection page.
    let sel_doc = &sample[selection_page].doc;
    let label_before = context_label(sel_doc, selection_node, ContextDirection::Before);
    let label_after = context_label(sel_doc, selection_node, ContextDirection::After);

    loop {
        iterations += 1;
        let table = check_rule_full(&rule, sample);
        // The user inspects each row of the tabular view (§3.3).
        for (row, sp) in table.rows.iter().zip(sample) {
            user.validate(&sp.page, rule.name.as_str(), &row.matched);
        }
        if table.all_correct() {
            finalize_optionality(&mut rule, sample, &mut applied);
            return RefineOutcome { rule, ok: true, iterations, applied, final_table: table };
        }
        if iterations >= config.max_iterations {
            finalize_optionality(&mut rule, sample, &mut applied);
            let ok = table.all_correct();
            return RefineOutcome { rule, ok, iterations, applied, final_table: table };
        }

        let (fail_idx, row) = table.first_failure().expect("not all correct");
        let progressed = match row.outcome {
            Outcome::Incomplete if config.enable_property_refinements => {
                apply_mixed_format(&mut rule, &mut applied)
            }
            Outcome::PartialMultiple if config.enable_property_refinements => {
                apply_multivalued(&mut rule, sample, user, &mut applied)
            }
            _ => {
                // Contextual information first; alternative path as the
                // last resort, using the failing page as negative example.
                (config.enable_context
                    && try_context(
                        &mut rule,
                        sample,
                        table.failure_count(),
                        &label_before,
                        &label_after,
                        &mut applied,
                    ))
                    || (config.enable_alternative
                        && try_alternative(&mut rule, sample, &table, fail_idx, user, &mut applied))
            }
        };
        if !progressed {
            finalize_optionality(&mut rule, sample, &mut applied);
            let final_table = check_rule_full(&rule, sample);
            let ok = final_table.all_correct();
            return RefineOutcome { rule, ok, iterations, applied, final_table };
        }
    }
}

/// After the locations are right, record optionality: a component missing
/// from some sample pages is optional (§3.4 "a component identified in a
/// page can be missing in other ones").
fn finalize_optionality(rule: &mut MappingRule, sample: &[SamplePage], applied: &mut Vec<String>) {
    let missing_somewhere = sample.iter().any(|sp| sp.page.expected(rule.name.as_str()).is_empty());
    if missing_somewhere && rule.optionality == Optionality::Mandatory {
        rule.optionality = Optionality::Optional;
        applied.push("set-optional".to_string());
    }
}

/// Format=mixed refinement: the value spans markup, so the rule must
/// address the value's container element rather than one text node.
fn apply_mixed_format(rule: &mut MappingRule, applied: &mut Vec<String>) -> bool {
    if rule.format == Format::Mixed {
        return false; // already applied; no progress
    }
    rule.format = Format::Mixed;
    // Drop a trailing text() step from every location alternative so the
    // rule locates the parent element (whose string-value is the full,
    // tag-spanning text).
    for location in &mut rule.locations {
        if let Expr::Path(path) = location {
            if path.steps.last().map(|s| s.test == NodeTest::Text).unwrap_or(false) {
                path.steps.pop();
            }
        }
    }
    applied.push("set-mixed-format".to_string());
    true
}

/// Multivalued refinement: ask the user for the first and last instance,
/// deduce the repetitive step from the two precise paths, broaden it.
fn apply_multivalued(
    rule: &mut MappingRule,
    sample: &[SamplePage],
    user: &mut dyn User,
    applied: &mut Vec<String>,
) -> bool {
    if rule.multiplicity == Multiplicity::Multivalued {
        return false;
    }
    // Pick the sample page with the most instances: its first/last
    // selections give the clearest divergence.
    let component = rule.name.as_str().to_string();
    let Some((page_idx, _)) =
        sample.iter().enumerate().max_by_key(|(_, sp)| sp.page.expected(&component).len())
    else {
        return false;
    };
    let sp = &sample[page_idx];
    let first = user.select(&sp.doc, &sp.page, &component, Instance::First);
    let last = user.select(&sp.doc, &sp.page, &component, Instance::Last);
    let (Some(first), Some(last)) = (first, last) else {
        return false;
    };
    let (Ok(p_first), Ok(p_last)) =
        (builder::precise_path(&sp.doc, first), builder::precise_path(&sp.doc, last))
    else {
        return false;
    };
    let Some(idx) = divergence_step(&p_first, &p_last) else {
        return false;
    };
    let broadened = broaden_step(&p_first, idx);
    rule.multiplicity = Multiplicity::Multivalued;
    rule.locations = vec![Expr::Path(broadened)];
    let tag = p_first.steps[idx].test.to_string();
    applied.push(format!("set-multivalued(repetitive={tag})"));
    true
}

/// The anchored-context refinement: try the mined label, stripping
/// positions from the deepest step upwards until the sample checks clean
/// (or strictly improves on `current_failures`, the rule's failing rows
/// on `sample` as it stands).
fn try_context(
    rule: &mut MappingRule,
    sample: &[SamplePage],
    current_failures: usize,
    label_before: &Option<String>,
    label_after: &Option<String>,
    applied: &mut Vec<String>,
) -> bool {
    // Work from the first location alternative that is a plain path.
    let Some(base) = rule.locations.iter().find_map(|l| match l {
        Expr::Path(p) => Some(p.clone()),
        _ => None,
    }) else {
        return false;
    };
    if base.steps.is_empty() {
        return false;
    }
    let mut best: Option<(usize, LocationPath, String)> = None;
    let broadened_at = broadened_step_index(&base);
    for (label, direction, dir_name) in [
        (label_before, ContextDirection::Before, "before"),
        (label_after, ContextDirection::After, "after"),
    ] {
        let Some(label) = label else { continue };
        // Anchor: multivalued rules anchor the container step (just above
        // the broadened step); single-valued rules anchor the leaf.
        let anchor = match broadened_at {
            Some(i) if i > 0 => i - 1,
            _ => base.steps.len() - 1,
        };
        // Strip levels, deepest first ("remove the position information
        // where the shift occurs").
        for strip_from in (1..=base.steps.len().saturating_sub(1)).rev() {
            let candidate_path =
                with_context_predicate_at(&base, strip_from, anchor, label, direction);
            let mut candidate_rule = rule.clone();
            candidate_rule.locations = vec![Expr::Path(candidate_path.clone())];
            let failures = check_rule_full(&candidate_rule, sample).failure_count();
            if failures == 0 {
                rule.locations = candidate_rule.locations;
                applied
                    .push(format!("add-context({dir_name}=\"{label}\", strip-from={strip_from})"));
                return true;
            }
            if failures < current_failures
                && best.as_ref().map(|(f, _, _)| failures < *f).unwrap_or(true)
            {
                best = Some((
                    failures,
                    candidate_path,
                    format!(
                        "add-context({dir_name}=\"{label}\", strip-from={strip_from}, partial)"
                    ),
                ));
            }
        }
    }
    // No full fix: adopt the best strict improvement so the loop can
    // continue with another strategy on the remaining failures.
    if let Some((_, path, log)) = best {
        rule.locations = vec![Expr::Path(path)];
        applied.push(log);
        return true;
    }
    false
}

/// Index of a step carrying a `position() >= 1` predicate (the broadened
/// repetitive step of a multivalued rule), if any.
fn broadened_step_index(path: &LocationPath) -> Option<usize> {
    path.steps.iter().position(|s| {
        s.predicates.iter().any(|p| {
            matches!(p, Expr::Binary(retroweb_xpath::BinaryOp::Ge, a, _)
                if matches!(a.as_ref(), Expr::Call(name, _) if name == "position"))
        })
    })
}

/// The label predicate a context refinement attached to the rule's first
/// location, if any (`preceding::text()[…][1][contains(…)]` or its
/// `following::` twin).
fn earned_context(rule: &MappingRule) -> Option<Expr> {
    let Some(Expr::Path(primary)) = rule.locations.first() else {
        return None;
    };
    primary.steps.iter().flat_map(|s| &s.predicates).find_map(|p| match p {
        Expr::Path(lp)
            if lp.steps.len() == 1
                && lp.steps[0].test == NodeTest::Text
                && matches!(lp.steps[0].axis, Axis::Preceding | Axis::Following) =>
        {
            Some(p.clone())
        }
        _ => None,
    })
}

/// Alternative-path refinement: select the value on the failing page and
/// append its precise path to the rule (§3.4 "a component value is
/// selected in a page where it could not be located to produce a new
/// XPath expression that is appended to the mapping rule").
///
/// The other sample pages are negative examples for the new path: when
/// the bare path turns a row of `before` (the rule's current check) that
/// was correct into a failure, as when it matches another component on a
/// page that lacks this one, the path carries the label predicate the
/// first location earned instead.
fn try_alternative(
    rule: &mut MappingRule,
    sample: &[SamplePage],
    before: &CheckTable,
    failing_page: usize,
    user: &mut dyn User,
    applied: &mut Vec<String>,
) -> bool {
    let sp = &sample[failing_page];
    let component = rule.name.as_str().to_string();
    let Some(node) = user.select(&sp.doc, &sp.page, &component, Instance::First) else {
        return false;
    };
    let Ok(mut path) = builder::precise_path(&sp.doc, node) else {
        return false;
    };
    if rule.format == Format::Mixed
        && path.steps.last().map(|s| s.test == NodeTest::Text).unwrap_or(false)
    {
        path.steps.pop();
    }
    let mut extended = rule.clone();
    extended.locations.push(Expr::Path(path.clone()));
    let after = check_rule_full(&extended, sample);
    let breaks_correct = before
        .rows
        .iter()
        .zip(&after.rows)
        .any(|(b, a)| b.outcome == Outcome::Correct && a.outcome != Outcome::Correct);
    let mut log = format!("add-alternative-path(page={})", sp.page.url);
    if breaks_correct {
        if let (Some(pred), Some(leaf)) = (earned_context(rule), path.steps.last_mut()) {
            leaf.predicates.push(pred);
            log.push_str(" with context");
        }
    }
    let expr = Expr::Path(path);
    if rule.locations.contains(&expr) {
        return false; // would loop forever
    }
    rule.locations.push(expr);
    applied.push(log);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidate;
    use crate::oracle::SimulatedUser;
    use crate::sample::sample_from_pages;
    use retroweb_sitegen::paper::{paper_working_sample, TABLE3_RUNTIMES};
    use retroweb_sitegen::{movie, Layout, MovieSiteSpec, Page};

    fn refine_component(component: &str, sample: &[SamplePage]) -> (RefineOutcome, SimulatedUser) {
        let mut user = SimulatedUser::new();
        let cand = build_candidate(component, sample, &mut user)
            .unwrap_or_else(|| panic!("no candidate for {component}"));
        let outcome = refine_rule(
            cand.rule,
            cand.page_index,
            cand.selection,
            sample,
            &mut user,
            &RefineConfig::default(),
        );
        (outcome, user)
    }

    #[test]
    fn paper_sample_runtime_reaches_table3() {
        let sample = sample_from_pages(paper_working_sample());
        let (outcome, _) = refine_component("runtime", &sample);
        assert!(outcome.ok, "applied: {:?}\n{}", outcome.applied, outcome.final_table.render());
        // The refinement used contextual information anchored on the label.
        assert!(
            outcome.applied.iter().any(|s| s.contains("add-context") && s.contains("Runtime:")),
            "{:?}",
            outcome.applied
        );
        // And the final matches are exactly Table 3.
        let values: Vec<String> =
            outcome.final_table.rows.iter().map(|r| r.display_value()).collect();
        assert_eq!(values, TABLE3_RUNTIMES.to_vec());
    }

    #[test]
    fn movie_site_multivalued_genres() {
        let site = movie::generate(&MovieSiteSpec {
            n_pages: 8,
            seed: 31,
            genres: (2, 4),
            ..Default::default()
        });
        let sample = crate::sample::working_sample(&site, 8);
        let (outcome, _) = refine_component("genre", &sample);
        assert!(outcome.ok, "applied: {:?}\n{}", outcome.applied, outcome.final_table.render());
        assert!(
            outcome.applied.iter().any(|s| s.starts_with("set-multivalued")),
            "{:?}",
            outcome.applied
        );
        assert_eq!(outcome.rule.multiplicity, Multiplicity::Multivalued);
    }

    #[test]
    fn movie_site_optional_runtime_marked_optional() {
        let site = movie::generate(&MovieSiteSpec {
            n_pages: 10,
            seed: 32,
            p_missing_runtime: 0.4,
            ..Default::default()
        });
        let sample = crate::sample::working_sample(&site, 10);
        // Need at least one page with and one without the runtime.
        assert!(sample.iter().any(|sp| sp.page.expected("runtime").is_empty()));
        assert!(sample.iter().any(|sp| !sp.page.expected("runtime").is_empty()));
        let (outcome, _) = refine_component("runtime", &sample);
        assert!(outcome.ok, "applied: {:?}\n{}", outcome.applied, outcome.final_table.render());
        assert_eq!(outcome.rule.optionality, Optionality::Optional);
    }

    #[test]
    fn mixed_runtime_switches_format() {
        let site = movie::generate(&MovieSiteSpec {
            n_pages: 6,
            seed: 33,
            layout: Layout::Rows,
            p_missing_runtime: 0.0,
            p_aka: 0.0,
            p_mixed_runtime: 0.5,
            noise_blocks: (0, 0),
            ..Default::default()
        });
        let sample = crate::sample::working_sample(&site, 6);
        // Ensure the sample actually has both pure-text and mixed pages.
        let mixed_pages = sample.iter().filter(|sp| sp.page.html.contains("<i>")).count();
        assert!(mixed_pages > 0 && mixed_pages < 6, "{mixed_pages}");
        let (outcome, _) = refine_component("runtime", &sample);
        assert!(outcome.ok, "applied: {:?}\n{}", outcome.applied, outcome.final_table.render());
        assert_eq!(outcome.rule.format, Format::Mixed);
    }

    #[test]
    fn alternative_path_used_when_no_common_context() {
        // Two page shapes with the target value in structurally unrelated
        // places and no shared label.
        let mut p1 = Page::new(
            "http://x.org/1".into(),
            "<html><body><div><p> v-alpha </p></div></body></html>".into(),
            "c",
        );
        p1.expect("field", "v-alpha");
        let mut p2 = Page::new(
            "http://x.org/2".into(),
            "<html><body><table><tr><td><span> v-beta </span></td></tr></table></body></html>"
                .into(),
            "c",
        );
        p2.expect("field", "v-beta");
        let sample = sample_from_pages(vec![p1, p2]);
        let (outcome, _) = refine_component("field", &sample);
        assert!(outcome.ok, "applied: {:?}\n{}", outcome.applied, outcome.final_table.render());
        assert!(
            outcome.applied.iter().any(|s| s.starts_with("add-alternative-path")),
            "{:?}",
            outcome.applied
        );
        assert_eq!(outcome.rule.locations.len(), 2);
    }

    #[test]
    fn already_correct_rule_needs_one_iteration() {
        let site = movie::generate(&MovieSiteSpec {
            n_pages: 4,
            seed: 34,
            p_aka: 0.0,
            p_missing_runtime: 0.0,
            p_missing_language: 0.0,
            noise_blocks: (0, 0),
            ..Default::default()
        });
        let sample = crate::sample::working_sample(&site, 4);
        let (outcome, _) = refine_component("title", &sample);
        assert!(outcome.ok);
        assert_eq!(outcome.iterations, 1);
        assert!(outcome.applied.is_empty());
    }

    #[test]
    fn interaction_stats_accumulate() {
        let sample = sample_from_pages(paper_working_sample());
        let (_, user) = refine_component("runtime", &sample);
        let stats = user.stats();
        assert!(stats.selections >= 1);
        assert_eq!(stats.interpretations, 1);
        // At least one full table inspection (4 rows).
        assert!(stats.validations >= 4);
    }
}
