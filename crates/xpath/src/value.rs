//! XPath values and type conversions.

use retroweb_html::{Document, NodeData, NodeId};
use std::fmt;

/// A node reference: either a tree node or one of an element's attributes
/// (XPath models attributes as nodes; our DOM stores them inline, so an
/// attribute is addressed as element id + attribute index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    pub id: NodeId,
    pub attr: Option<u32>,
}

impl NodeRef {
    pub fn node(id: NodeId) -> NodeRef {
        NodeRef { id, attr: None }
    }

    pub fn attribute(id: NodeId, index: u32) -> NodeRef {
        NodeRef { id, attr: Some(index) }
    }

    pub fn is_attr(self) -> bool {
        self.attr.is_some()
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.attr {
            Some(i) => write!(f, "{}@{}", self.id, i),
            None => write!(f, "{}", self.id),
        }
    }
}

/// Result of evaluating an XPath expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Node-set, kept in document order without duplicates.
    Nodes(Vec<NodeRef>),
    Bool(bool),
    Num(f64),
    Str(String),
}

impl Value {
    pub fn empty() -> Value {
        Value::Nodes(Vec::new())
    }

    pub fn is_nodes(&self) -> bool {
        matches!(self, Value::Nodes(_))
    }
}

/// The XPath string-value of a node.
pub fn string_value(doc: &Document, node: NodeRef) -> String {
    string_value_cow(doc, node).into_owned()
}

/// The XPath string-value of a node, borrowing from the document where
/// possible. Text, comment and attribute nodes — the overwhelming
/// majority of nodes mapping-rule predicates touch — return `Borrowed`,
/// so hot predicates like `contains(., "Runtime:")` evaluate without any
/// allocation. Only element/document nodes (whose string-value is the
/// concatenation of their text descendants) allocate.
pub fn string_value_cow<'d>(doc: &'d Document, node: NodeRef) -> std::borrow::Cow<'d, str> {
    use std::borrow::Cow;
    if let Some(attr_idx) = node.attr {
        return doc
            .element(node.id)
            .and_then(|el| el.attrs.get(attr_idx as usize))
            .map(|a| Cow::Borrowed(a.value.as_str()))
            .unwrap_or_default();
    }
    match &doc.node(node.id).data {
        NodeData::Document | NodeData::Element(_) => Cow::Owned(doc.text_content(node.id)),
        NodeData::Text(t) => Cow::Borrowed(t.as_str()),
        NodeData::Comment(c) => Cow::Borrowed(c.as_str()),
        NodeData::Doctype(_) => Cow::Borrowed(""),
    }
}

/// The XPath expanded-name (we have no namespaces, so just the tag or
/// attribute name).
pub fn node_name(doc: &Document, node: NodeRef) -> String {
    if let Some(attr_idx) = node.attr {
        return doc
            .element(node.id)
            .and_then(|el| el.attrs.get(attr_idx as usize))
            .map(|a| a.name.clone())
            .unwrap_or_default();
    }
    doc.tag_name(node.id).unwrap_or("").to_string()
}

/// `string()` conversion.
pub fn to_string_value(doc: &Document, v: &Value) -> String {
    match v {
        Value::Nodes(ns) => ns.first().map(|&n| string_value(doc, n)).unwrap_or_default(),
        Value::Bool(true) => "true".to_string(),
        Value::Bool(false) => "false".to_string(),
        Value::Num(n) => format_number(*n),
        Value::Str(s) => s.clone(),
    }
}

/// `number()` conversion.
pub fn to_number(doc: &Document, v: &Value) -> f64 {
    match v {
        Value::Nodes(_) => str_to_number(&to_string_value(doc, v)),
        Value::Bool(true) => 1.0,
        Value::Bool(false) => 0.0,
        Value::Num(n) => *n,
        Value::Str(s) => str_to_number(s),
    }
}

/// `boolean()` conversion.
pub fn to_boolean(v: &Value) -> bool {
    match v {
        Value::Nodes(ns) => !ns.is_empty(),
        Value::Bool(b) => *b,
        Value::Num(n) => *n != 0.0 && !n.is_nan(),
        Value::Str(s) => !s.is_empty(),
    }
}

/// XPath number formatting: integers print without a decimal point, NaN
/// prints as `NaN`.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n.fract() == 0.0 && n.abs() < 1.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Operand ordering helper for the node-set/scalar comparison rules:
/// restores left/right when the node-set appeared on the right. Shared
/// by the interpreter and the compiled executor so the comparison
/// ladder stays identical by construction.
pub(crate) fn order(a: f64, b: f64, flipped: bool) -> (f64, f64) {
    if flipped {
        (b, a)
    } else {
        (a, b)
    }
}

/// Numeric comparison kernel for the relational operators (shared like
/// [`order`]). Callers guarantee `op` is a comparison operator.
pub(crate) fn cmp_numbers(op: crate::ast::BinaryOp, a: f64, b: f64) -> bool {
    use crate::ast::BinaryOp;
    match op {
        BinaryOp::Eq => a == b,
        BinaryOp::Ne => a != b,
        BinaryOp::Lt => a < b,
        BinaryOp::Le => a <= b,
        BinaryOp::Gt => a > b,
        BinaryOp::Ge => a >= b,
        _ => unreachable!(),
    }
}

/// XPath string→number: optional sign, digits, optional fraction,
/// surrounded by whitespace; anything else is NaN.
pub fn str_to_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty() {
        return f64::NAN;
    }
    // `parse::<f64>` accepts exponents and named constants XPath rejects;
    // check the shape first.
    let mut chars = t.chars().peekable();
    if chars.peek() == Some(&'-') {
        chars.next();
    }
    let mut digits = 0;
    let mut dots = 0;
    for c in chars {
        if c.is_ascii_digit() {
            digits += 1;
        } else if c == '.' {
            dots += 1;
        } else {
            return f64::NAN;
        }
    }
    if digits == 0 || dots > 1 {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroweb_html::parse;

    #[test]
    fn string_values() {
        let doc = parse("<body><p class=\"big\">a<b>b</b>c</p></body>");
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(string_value(&doc, NodeRef::node(p)), "abc");
        assert_eq!(string_value(&doc, NodeRef::attribute(p, 0)), "big");
        assert_eq!(node_name(&doc, NodeRef::node(p)), "p");
        assert_eq!(node_name(&doc, NodeRef::attribute(p, 0)), "class");
    }

    #[test]
    fn conversions() {
        assert!(!to_boolean(&Value::Str("".into())));
        assert!(to_boolean(&Value::Str("x".into())));
        assert!(!to_boolean(&Value::Num(0.0)));
        assert!(!to_boolean(&Value::Num(f64::NAN)));
        assert!(to_boolean(&Value::Num(-2.0)));
        assert!(!to_boolean(&Value::Nodes(vec![])));
    }

    #[test]
    fn number_parsing() {
        assert_eq!(str_to_number(" 42 "), 42.0);
        assert_eq!(str_to_number("-1.5"), -1.5);
        assert!(str_to_number("108 min").is_nan());
        assert!(str_to_number("").is_nan());
        assert!(str_to_number("1e3").is_nan()); // XPath has no exponents
        assert!(str_to_number("1.2.3").is_nan());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(4.0), "4");
        assert_eq!(format_number(-0.5), "-0.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }
}
