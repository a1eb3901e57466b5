//! The mapping-rule model (§2.2–§2.3 of the paper).
//!
//! A page component has five properties — name, optionality,
//! multiplicity, format, location — and "the values of the properties
//! addressing a given page component form a tuple that we call a mapping
//! rule". The first four are model-independent and follow the paper's
//! EBNF; the location is one or more XPath expressions (more than one
//! after "adding an alternative path" refinement, §3.4).

use crate::post::PostProcess;
use retroweb_html::{Document, NodeId};
use retroweb_xpath::{
    normalize_space, string_value_cow, CompiledXPath, Engine, EvalError, Executor, Expr, NodeRef,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A component name matching the paper's EBNF:
/// `name ::= [a-zA-Z]([a-zA-Z] | [-_] | [0-9])*`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentName(String);

/// Error for names rejected by the EBNF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidName(pub String);

impl fmt::Display for InvalidName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid component name '{}'", self.0)
    }
}

impl std::error::Error for InvalidName {}

impl ComponentName {
    pub fn new(name: &str) -> Result<ComponentName, InvalidName> {
        let mut chars = name.chars();
        let valid_head = chars.next().map(|c| c.is_ascii_alphabetic()).unwrap_or(false);
        let valid_tail = chars.all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        if valid_head && valid_tail {
            Ok(ComponentName(name.to_string()))
        } else {
            Err(InvalidName(name.to_string()))
        }
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ComponentName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// `optionality ::= 'optional' | 'mandatory'`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Optionality {
    Mandatory,
    Optional,
}

impl fmt::Display for Optionality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Optionality::Mandatory => "mandatory",
            Optionality::Optional => "optional",
        })
    }
}

/// `multiplicity ::= 'single-valued' | 'multivalued'`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Multiplicity {
    SingleValued,
    Multivalued,
}

impl fmt::Display for Multiplicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Multiplicity::SingleValued => "single-valued",
            Multiplicity::Multivalued => "multivalued",
        })
    }
}

/// `format ::= 'text' | 'mixed'`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Text,
    Mixed,
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Format::Text => "text",
            Format::Mixed => "mixed",
        })
    }
}

/// A mapping rule: the property tuple for one page component.
#[derive(Clone, Debug, PartialEq)]
pub struct MappingRule {
    pub name: ComponentName,
    pub optionality: Optionality,
    pub multiplicity: Multiplicity,
    pub format: Format,
    /// Location alternatives, tried in order; the first expression that
    /// selects at least one node wins (§3.4 "adding an alternative path":
    /// "a new XPath expression that is appended to the mapping rule").
    pub locations: Vec<Expr>,
    /// Post-processing applied to extracted strings (§7's future-work
    /// sub-node extraction, implemented as an extension).
    pub post: Vec<PostProcess>,
}

impl MappingRule {
    /// A fresh candidate rule as §3.2 defines it: mandatory,
    /// single-valued, with format derived from the selected node.
    pub fn candidate(name: ComponentName, location: Expr, format: Format) -> MappingRule {
        MappingRule {
            name,
            optionality: Optionality::Mandatory,
            multiplicity: Multiplicity::SingleValued,
            format,
            locations: vec![location],
            post: Vec::new(),
        }
    }

    /// The location property rendered for display (alternatives joined as
    /// a union).
    pub fn location_display(&self) -> String {
        self.locations.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(" | ")
    }

    /// Compile the rule's location alternatives for repeated application
    /// (see [`CompiledRule`]). Rule sets applied page after page go
    /// through this; the store caches the compiled cluster.
    pub fn compile(&self) -> CompiledRule {
        CompiledRule::new(self)
    }

    /// Select the nodes this rule locates on a page: alternatives are
    /// tried in order, first non-empty result wins.
    ///
    /// One-shot reference path through the tree-walking [`Engine`]; the
    /// extraction/checking/maintenance layers use [`MappingRule::compile`]
    /// and apply the compiled form instead.
    pub fn select(&self, doc: &Document) -> Result<Vec<NodeId>, EvalError> {
        let engine = Engine::new(doc);
        for location in &self.locations {
            let nodes = engine.select(location, doc.root())?;
            if !nodes.is_empty() {
                return Ok(nodes);
            }
        }
        Ok(Vec::new())
    }

    /// Extract the component values from a page, honouring multiplicity,
    /// format and post-processing. Values are whitespace-normalised.
    /// One-shot reference path — see [`MappingRule::select`].
    pub fn extract_values(&self, doc: &Document) -> Result<Vec<String>, EvalError> {
        let mut values = node_values(doc, &self.select(doc)?);
        if self.multiplicity == Multiplicity::SingleValued && values.len() > 1 {
            values.truncate(1);
        }
        for p in &self.post {
            values = p.apply(values);
        }
        Ok(values)
    }

    /// Render the rule in the paper's §2.3 display form.
    pub fn display(&self) -> String {
        format!(
            "name         : {}\noptionality  : {}\nmultiplicity : {}\nformat       : {}\nlocation     : {}",
            self.name, self.optionality, self.multiplicity, self.format,
            self.location_display()
        )
    }
}

/// A mapping rule with its location alternatives lowered to the
/// [`CompiledXPath`] IR: compile once per cluster, apply to every page.
///
/// The rule properties are copied (they are small) so a compiled rule is
/// self-contained, `Send + Sync`, and can outlive repository mutations —
/// the extraction driver's workers share one set across threads.
#[derive(Debug)]
pub struct CompiledRule {
    pub name: ComponentName,
    pub optionality: Optionality,
    pub multiplicity: Multiplicity,
    pub format: Format,
    pub post: Vec<PostProcess>,
    /// `Arc` so rules sharing an anchor path within a cluster share one
    /// compiled program (and one fused-trie branch) — see
    /// [`CompiledRule::with_interner`].
    locations: Vec<Arc<CompiledXPath>>,
}

impl CompiledRule {
    pub fn new(rule: &MappingRule) -> CompiledRule {
        CompiledRule::with_interner(rule, &mut HashMap::new())
    }

    /// Compile `rule`, deduplicating identical location expressions
    /// through `interner` (keyed by display form, which is what
    /// [`CompiledXPath::source`] preserves). A cluster compiles all its
    /// rules through one interner so textually identical locations across
    /// rules become one shared program: one compilation, one fused-trie
    /// branch.
    pub(crate) fn with_interner(
        rule: &MappingRule,
        interner: &mut HashMap<String, Arc<CompiledXPath>>,
    ) -> CompiledRule {
        CompiledRule {
            name: rule.name.clone(),
            optionality: rule.optionality,
            multiplicity: rule.multiplicity,
            format: rule.format,
            post: rule.post.clone(),
            locations: rule
                .locations
                .iter()
                .map(|e| {
                    interner
                        .entry(e.to_string())
                        .or_insert_with(|| Arc::new(CompiledXPath::compile(e)))
                        .clone()
                })
                .collect(),
        }
    }

    /// The compiled location alternatives, in rule order.
    pub fn locations(&self) -> &[Arc<CompiledXPath>] {
        &self.locations
    }

    /// Select the nodes this rule locates on the executor's page:
    /// alternatives in order, first non-empty result wins — identical
    /// semantics to [`MappingRule::select`].
    pub fn select(&self, exec: &Executor<'_>) -> Result<Vec<NodeId>, EvalError> {
        let root = exec.document().root();
        for location in &self.locations {
            let nodes = exec.select(location, root)?;
            if !nodes.is_empty() {
                return Ok(nodes);
            }
        }
        Ok(Vec::new())
    }

    /// Every value the rule matches on the page, without single-valued
    /// truncation but with post-processing — what the checking table
    /// shows the inspecting user.
    pub fn full_match_values(&self, exec: &Executor<'_>) -> Vec<String> {
        match self.select(exec) {
            Ok(nodes) => {
                let mut values = node_values(exec.document(), &nodes);
                for p in &self.post {
                    values = p.apply(values);
                }
                values
            }
            Err(_) => Vec::new(),
        }
    }
}

/// Each selected node's whitespace-normalised string value, empty values
/// dropped: the value step every extraction and checking path shares.
pub(crate) fn node_values(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
    nodes
        .iter()
        .map(|&n| normalize_space(&string_value_cow(doc, NodeRef::node(n))))
        .filter(|v| !v.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroweb_html::parse;
    use retroweb_xpath::parse as xparse;

    #[test]
    fn name_ebnf() {
        assert!(ComponentName::new("runtime").is_ok());
        assert!(ComponentName::new("users-opinion").is_ok());
        assert!(ComponentName::new("a_1").is_ok());
        assert!(ComponentName::new("R2-D2").is_ok());
        assert!(ComponentName::new("").is_err());
        assert!(ComponentName::new("1abc").is_err());
        assert!(ComponentName::new("-x").is_err());
        assert!(ComponentName::new("a b").is_err());
        assert!(ComponentName::new("é").is_err());
    }

    fn runtime_rule() -> MappingRule {
        MappingRule::candidate(
            ComponentName::new("runtime").unwrap(),
            xparse("/HTML[1]/BODY[1]/TABLE[1]/TR[1]/TD[2]/text()[1]").unwrap(),
            Format::Text,
        )
    }

    #[test]
    fn candidate_defaults_match_paper() {
        let rule = runtime_rule();
        assert_eq!(rule.optionality, Optionality::Mandatory);
        assert_eq!(rule.multiplicity, Multiplicity::SingleValued);
        assert_eq!(rule.format, Format::Text);
        assert_eq!(rule.locations.len(), 1);
    }

    #[test]
    fn select_and_extract() {
        let doc = parse("<body><table><tr><td>Runtime:</td><td> 108 min </td></tr></table></body>");
        let rule = runtime_rule();
        let nodes = rule.select(&doc).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(rule.extract_values(&doc).unwrap(), vec!["108 min"]);
    }

    #[test]
    fn alternatives_tried_in_order() {
        let doc = parse("<body><div> 91 min </div></body>");
        let mut rule = runtime_rule();
        rule.locations.push(xparse("/HTML[1]/BODY[1]/DIV[1]/text()[1]").unwrap());
        assert_eq!(rule.extract_values(&doc).unwrap(), vec!["91 min"]);
    }

    #[test]
    fn single_valued_truncates() {
        let doc = parse("<body><ul><li>a</li><li>b</li></ul></body>");
        let mut rule = MappingRule::candidate(
            ComponentName::new("x").unwrap(),
            xparse("//LI/text()").unwrap(),
            Format::Text,
        );
        assert_eq!(rule.extract_values(&doc).unwrap(), vec!["a"]);
        rule.multiplicity = Multiplicity::Multivalued;
        assert_eq!(rule.extract_values(&doc).unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn mixed_format_concatenates_across_tags() {
        let doc = parse("<body><td><i>108</i> min</td></body>");
        let rule = MappingRule {
            format: Format::Mixed,
            locations: vec![xparse("//TD[1]").unwrap()],
            ..runtime_rule()
        };
        assert_eq!(rule.extract_values(&doc).unwrap(), vec!["108 min"]);
    }

    #[test]
    fn display_matches_paper_shape() {
        let text = runtime_rule().display();
        assert!(text.contains("name         : runtime"));
        assert!(text.contains("optionality  : mandatory"));
        assert!(text.contains("multiplicity : single-valued"));
        assert!(text.contains("format       : text"));
        assert!(text.contains("location     : /HTML[1]/BODY[1]/TABLE[1]/TR[1]/TD[2]/text()[1]"));
    }
}
