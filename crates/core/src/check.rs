//! Rule checking (§3.3).
//!
//! "The candidate rule is applied on the successive pages of the working
//! sample to check whether it can retrieve the pertinent component values
//! in all of them. This checking is carried out by means of visual
//! inspection in a tabular view" — [`CheckTable`] is that view, and
//! [`classify`] is the judgment the inspecting user passes on each row,
//! refined into the §3.4 failure taxonomy so the refinement engine can
//! pick a strategy.

use crate::model::{MappingRule, Multiplicity};
use crate::sample::SamplePage;
use retroweb_xpath::{normalize_space, Executor};

/// How a rule's matches on one page relate to the pertinent values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Matched exactly the expected values (including "nothing expected,
    /// nothing matched" on pages where an optional component is absent).
    Correct,
    /// Nothing matched although a value exists on the page (Table 1 row d).
    Void,
    /// Matched an unwanted value (Table 1 row c: "instance of another
    /// component, intrusive fragment").
    Wrong,
    /// Matched a proper part of the value — "the component value is made
    /// of text only in some pages and of text and HTML tags in other
    /// pages" (the format=mixed case).
    Incomplete,
    /// Matched a subset of a multivalued component's instances — "the
    /// value appears to be multivalued".
    PartialMultiple,
    /// Matched something on a page where the component is absent.
    Unexpected,
}

impl Outcome {
    pub fn is_correct(&self) -> bool {
        matches!(self, Outcome::Correct)
    }
}

/// One row of the tabular view.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckRow {
    pub uri: String,
    /// All values the rule matched (before single-valued truncation).
    pub matched: Vec<String>,
    pub outcome: Outcome,
}

impl CheckRow {
    /// The "Component value" column of Table 1: matched values, or `-`.
    pub fn display_value(&self) -> String {
        if self.matched.is_empty() {
            "-".to_string()
        } else {
            self.matched.join(", ")
        }
    }
}

/// The checking table for one candidate rule over a working sample.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckTable {
    pub component: String,
    pub rows: Vec<CheckRow>,
}

impl CheckTable {
    pub fn all_correct(&self) -> bool {
        self.rows.iter().all(|r| r.outcome.is_correct())
    }

    pub fn failure_count(&self) -> usize {
        self.rows.iter().filter(|r| !r.outcome.is_correct()).count()
    }

    /// First failing row, if any.
    pub fn first_failure(&self) -> Option<(usize, &CheckRow)> {
        self.rows.iter().enumerate().find(|(_, r)| !r.outcome.is_correct())
    }

    /// Render in the paper's Table 1 layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Candidate rule checking for component \"{}\"\n", self.component));
        let uri_width =
            self.rows.iter().map(|r| r.uri.len()).max().unwrap_or(8).max("Page URI".len());
        out.push_str(&format!("   {:<uri_width$}  Component value\n", "Page URI"));
        for (i, row) in self.rows.iter().enumerate() {
            let letter = (b'a' + (i % 26) as u8) as char;
            out.push_str(&format!("{letter}. {:<uri_width$}  {}\n", row.uri, row.display_value()));
        }
        out
    }
}

/// Classify matched values against the pertinent values for the page.
pub fn classify(expected: &[String], matched: &[String]) -> Outcome {
    let expected: Vec<String> = expected.iter().map(|v| normalize_space(v)).collect();
    let matched: Vec<String> = matched.iter().map(|v| normalize_space(v)).collect();
    if expected == matched {
        return Outcome::Correct;
    }
    if matched.is_empty() {
        return Outcome::Void;
    }
    if expected.is_empty() {
        return Outcome::Unexpected;
    }
    // A single match that is a proper substring of the single expected
    // value: the located value is incomplete (format problem).
    if expected.len() == 1
        && matched.len() == 1
        && expected[0] != matched[0]
        && expected[0].contains(matched[0].as_str())
    {
        return Outcome::Incomplete;
    }
    // Matches are a (proper) sub-multiset of a multivalued expectation.
    if expected.len() > 1 && matched.iter().all(|m| expected.contains(m)) {
        return Outcome::PartialMultiple;
    }
    Outcome::Wrong
}

/// Apply a rule to every page of the sample and classify each row. The
/// rule's locations are compiled once and executed per page.
pub fn check_rule(rule: &MappingRule, sample: &[SamplePage]) -> CheckTable {
    let compiled = rule.compile();
    let rows = sample
        .iter()
        .map(|sp| {
            let exec = Executor::new(&sp.doc);
            let mut matched = compiled.full_match_values(&exec);
            // A declared single-valued rule presents one value, as the
            // extraction processor would produce.
            if rule.multiplicity == Multiplicity::SingleValued && matched.len() > 1 {
                matched.truncate(1);
            }
            let outcome = classify(sp.page.expected(rule.name.as_str()), &matched);
            CheckRow { uri: sp.page.url.clone(), matched, outcome }
        })
        .collect();
    CheckTable { component: rule.name.as_str().to_string(), rows }
}

/// Like [`check_rule`] but keeps all matches visible regardless of the
/// declared multiplicity — used by the refinement engine to detect the
/// multivalued situation. Also compiled once per sample pass.
pub fn check_rule_full(rule: &MappingRule, sample: &[SamplePage]) -> CheckTable {
    let compiled = rule.compile();
    let rows = sample
        .iter()
        .map(|sp| {
            let exec = Executor::new(&sp.doc);
            let matched = compiled.full_match_values(&exec);
            let outcome = classify(sp.page.expected(rule.name.as_str()), &matched);
            CheckRow { uri: sp.page.url.clone(), matched, outcome }
        })
        .collect();
    CheckTable { component: rule.name.as_str().to_string(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn classify_taxonomy() {
        assert_eq!(classify(&v(&["108 min"]), &v(&["108 min"])), Outcome::Correct);
        assert_eq!(classify(&v(&[]), &v(&[])), Outcome::Correct);
        assert_eq!(classify(&v(&["108 min"]), &v(&[])), Outcome::Void);
        assert_eq!(classify(&v(&[]), &v(&["junk"])), Outcome::Unexpected);
        assert_eq!(classify(&v(&["108 min"]), &v(&["108"])), Outcome::Incomplete);
        assert_eq!(classify(&v(&["Drama", "Comedy"]), &v(&["Drama"])), Outcome::PartialMultiple);
        assert_eq!(classify(&v(&["108 min"]), &v(&["The Wing"])), Outcome::Wrong);
        // Multiple matches where one was expected: wrong, not partial.
        assert_eq!(classify(&v(&["a"]), &v(&["a", "b"])), Outcome::Wrong);
    }

    #[test]
    fn classify_normalises_whitespace() {
        assert_eq!(classify(&v(&["108 min"]), &v(&[" 108  min "])), Outcome::Correct);
    }

    #[test]
    fn table_rendering_matches_table1_shape() {
        let table = CheckTable {
            component: "runtime".into(),
            rows: vec![
                CheckRow {
                    uri: "./title/tt0095159/".into(),
                    matched: v(&["108 min"]),
                    outcome: Outcome::Correct,
                },
                CheckRow {
                    uri: "./title/tt0102059/".into(),
                    matched: vec![],
                    outcome: Outcome::Void,
                },
            ],
        };
        let rendered = table.render();
        assert!(rendered.contains("a. ./title/tt0095159/  108 min"));
        assert!(rendered.contains("b. ./title/tt0102059/  -"));
        assert!(!table.all_correct());
        assert_eq!(table.failure_count(), 1);
        assert_eq!(table.first_failure().unwrap().0, 1);
    }
}
