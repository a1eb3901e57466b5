//! XML output model and writer.
//!
//! The extraction processor (§4 of the paper) produces an XML document
//! whose three-level default structure is cluster → page → component.
//! This model is a plain recursive tree with a writer tuned to match the
//! paper's Figure 5 layout (each element on its own line, text-only
//! elements inlined).

use std::fmt;

/// A node in an XML output tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlNode {
    Element(XmlElement),
    Text(String),
}

impl XmlNode {
    pub fn as_element(&self) -> Option<&XmlElement> {
        match self {
            XmlNode::Element(el) => Some(el),
            _ => None,
        }
    }
}

/// An XML element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlElement {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    pub fn new(name: &str) -> XmlElement {
        XmlElement { name: name.to_string(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder-style attribute.
    pub fn with_attr(mut self, name: &str, value: &str) -> XmlElement {
        self.set_attr(name, value);
        self
    }

    /// Builder-style text content.
    pub fn with_text(mut self, text: &str) -> XmlElement {
        self.children.push(XmlNode::Text(text.to_string()));
        self
    }

    pub fn set_attr(&mut self, name: &str, value: &str) {
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value.to_string();
        } else {
            self.attrs.push((name.to_string(), value.to_string()));
        }
    }

    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn push_element(&mut self, el: XmlElement) {
        self.children.push(XmlNode::Element(el));
    }

    pub fn push_text(&mut self, text: &str) {
        self.children.push(XmlNode::Text(text.to_string()));
    }

    /// Child elements only.
    pub fn elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&XmlElement> {
        self.elements().find(|el| el.name == name)
    }

    /// All child elements with the given name.
    pub fn children_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.elements().filter(move |el| el.name == name)
    }

    /// Concatenated text of all descendants.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        fn walk(el: &XmlElement, out: &mut String) {
            for c in &el.children {
                match c {
                    XmlNode::Text(t) => out.push_str(t),
                    XmlNode::Element(e) => walk(e, out),
                }
            }
        }
        walk(self, &mut out);
        out
    }

    fn is_text_only(&self) -> bool {
        self.children.iter().all(|c| matches!(c, XmlNode::Text(_)))
    }

    /// Serialise this element into `out` at the given indent level —
    /// the exact writer [`XmlDocument::to_string_with`] runs, exposed
    /// so incremental producers ([`crate::XmlStreamWriter`]) emit
    /// byte-identical fragments one element at a time.
    pub fn render_into(&self, out: &mut String, indent: usize, level: usize) {
        self.write(out, indent, level);
    }

    fn write(&self, out: &mut String, indent: usize, level: usize) {
        let pad = " ".repeat(indent * level);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_xml_attr(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if self.is_text_only() {
            for c in &self.children {
                if let XmlNode::Text(t) = c {
                    out.push_str(&escape_xml_text(t));
                }
            }
        } else {
            out.push('\n');
            for c in &self.children {
                match c {
                    XmlNode::Element(el) => el.write(out, indent, level + 1),
                    XmlNode::Text(t) => {
                        let trimmed = t.trim();
                        if !trimmed.is_empty() {
                            out.push_str(&" ".repeat(indent * (level + 1)));
                            out.push_str(&escape_xml_text(trimmed));
                            out.push('\n');
                        }
                    }
                }
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

/// An XML document: declaration plus a root element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlDocument {
    pub encoding: String,
    pub root: XmlElement,
}

impl XmlDocument {
    /// The paper's documents declare ISO-8859-1 (Figure 5); we emit UTF-8
    /// by default and ISO-8859-1 on request for byte-shape fidelity.
    pub fn new(root: XmlElement) -> XmlDocument {
        XmlDocument { encoding: "UTF-8".to_string(), root }
    }

    pub fn with_encoding(mut self, enc: &str) -> XmlDocument {
        self.encoding = enc.to_string();
        self
    }

    /// Serialise with the given indent width (0 reproduces Figure 5's
    /// flat layout: every element on its own line, no leading spaces).
    pub fn to_string_with(&self, indent: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("<?xml version=\"1.0\" encoding=\"{}\"?>\n", self.encoding));
        self.root.write(&mut out, indent, 0);
        out
    }
}

impl fmt::Display for XmlDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_with(2))
    }
}

impl fmt::Display for XmlElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 2, 0);
        f.write_str(&out)
    }
}

/// Escape for XML text content.
pub fn escape_xml_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c => out.push(c),
        }
    }
    out
}

/// Escape for a double-quoted XML attribute.
pub fn escape_xml_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_doc() -> XmlDocument {
        let mut root = XmlElement::new("imdb-movies");
        let mut movie =
            XmlElement::new("imdb-movie").with_attr("uri", "http://imdb.com/title/tt0095159/");
        movie.push_element(XmlElement::new("runtime").with_text("108 min"));
        root.push_element(movie);
        XmlDocument::new(root).with_encoding("ISO-8859-1")
    }

    #[test]
    fn figure5_flat_layout() {
        let doc = movie_doc();
        let expected = "<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n\
            <imdb-movies>\n\
            <imdb-movie uri=\"http://imdb.com/title/tt0095159/\">\n\
            <runtime>108 min</runtime>\n\
            </imdb-movie>\n\
            </imdb-movies>\n";
        assert_eq!(doc.to_string_with(0), expected);
    }

    #[test]
    fn indented_layout() {
        let doc = movie_doc();
        let s = doc.to_string_with(2);
        assert!(s.contains("\n  <imdb-movie"));
        assert!(s.contains("\n    <runtime>108 min</runtime>"));
    }

    #[test]
    fn empty_element_self_closes() {
        let el = XmlElement::new("runtime");
        assert_eq!(el.to_string(), "<runtime/>\n");
    }

    #[test]
    fn text_escaped() {
        let el = XmlElement::new("t").with_text("a < b & c");
        assert_eq!(el.to_string(), "<t>a &lt; b &amp; c</t>\n");
    }

    #[test]
    fn attr_escaped() {
        let el = XmlElement::new("t").with_attr("v", "say \"hi\" & <go>");
        assert!(el.to_string().contains("v=\"say &quot;hi&quot; &amp; &lt;go>\""));
    }

    #[test]
    fn accessors() {
        let doc = movie_doc();
        let movie = doc.root.child("imdb-movie").unwrap();
        assert_eq!(movie.attr("uri"), Some("http://imdb.com/title/tt0095159/"));
        assert_eq!(movie.child("runtime").unwrap().text_content(), "108 min");
        assert_eq!(doc.root.children_named("imdb-movie").count(), 1);
        assert!(movie.child("nope").is_none());
    }

    #[test]
    fn mixed_content_layout() {
        let mut el = XmlElement::new("m");
        el.push_text("before ");
        el.push_element(XmlElement::new("i").with_text("x"));
        let s = el.to_string();
        assert!(s.contains("<m>\n"));
        assert!(s.contains("before"));
        assert!(s.contains("<i>x</i>"));
    }
}
