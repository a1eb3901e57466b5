//! Mutable arena DOM.
//!
//! Nodes live in a flat `Vec` and link to each other through [`NodeId`]
//! indices (parent / siblings / first-last child). Detaching a node leaves
//! its arena slot in place (ids stay stable, as Retrozilla's mapping rules
//! capture node locations and must not be invalidated by unrelated
//! mutations); detached subtrees simply become unreachable from the root.

use std::cmp::Ordering;
use std::fmt;

/// Index of a node in a [`Document`] arena.
///
/// Ids are only meaningful for the document that created them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A single attribute. Names are stored lowercase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attr {
    pub name: String,
    pub value: String,
}

/// Payload of an element node. Tag names are stored lowercase; the XPath
/// engine matches case-insensitively for HTML fidelity with the paper's
/// uppercase paths (`BODY[1]/DIV[2]/...`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Element {
    pub name: String,
    pub attrs: Vec<Attr>,
}

impl Element {
    pub fn new(name: &str) -> Element {
        Element { name: name.to_ascii_lowercase(), attrs: Vec::new() }
    }

    pub fn attr(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.attrs.iter().find(|a| a.name == lower).map(|a| a.value.as_str())
    }

    pub fn set_attr(&mut self, name: &str, value: &str) {
        let lower = name.to_ascii_lowercase();
        if let Some(a) = self.attrs.iter_mut().find(|a| a.name == lower) {
            a.value = value.to_string();
        } else {
            self.attrs.push(Attr { name: lower, value: value.to_string() });
        }
    }
}

/// What a node is.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeData {
    /// The document root (exactly one per arena, always [`Document::ROOT`]).
    Document,
    Doctype(String),
    Element(Element),
    Text(String),
    Comment(String),
}

/// A node: tree links plus payload.
#[derive(Clone, Debug)]
pub struct Node {
    pub parent: Option<NodeId>,
    pub prev: Option<NodeId>,
    pub next: Option<NodeId>,
    pub first_child: Option<NodeId>,
    pub last_child: Option<NodeId>,
    pub data: NodeData,
}

impl Node {
    fn new(data: NodeData) -> Node {
        Node { parent: None, prev: None, next: None, first_child: None, last_child: None, data }
    }
}

/// An HTML document: an arena of nodes rooted at [`Document::ROOT`].
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Id of the document node.
    pub const ROOT: NodeId = NodeId(0);

    /// An empty document containing only the document node.
    pub fn new() -> Document {
        Document { nodes: vec![Node::new(NodeData::Document)] }
    }

    /// Number of arena slots (including detached nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    pub fn root(&self) -> NodeId {
        Self::ROOT
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    // ---- construction -----------------------------------------------------

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    pub fn create_element(&mut self, name: &str) -> NodeId {
        self.push(Node::new(NodeData::Element(Element::new(name))))
    }

    pub fn create_element_with_attrs(&mut self, name: &str, attrs: &[(&str, &str)]) -> NodeId {
        let mut el = Element::new(name);
        for (k, v) in attrs {
            el.set_attr(k, v);
        }
        self.push(Node::new(NodeData::Element(el)))
    }

    pub fn create_text(&mut self, text: &str) -> NodeId {
        self.push(Node::new(NodeData::Text(text.to_string())))
    }

    pub fn create_comment(&mut self, text: &str) -> NodeId {
        self.push(Node::new(NodeData::Comment(text.to_string())))
    }

    pub fn create_doctype(&mut self, name: &str) -> NodeId {
        self.push(Node::new(NodeData::Doctype(name.to_string())))
    }

    // ---- mutation ----------------------------------------------------------

    /// Append `child` as the last child of `parent`. The child is detached
    /// from any previous location first.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert_ne!(parent, child, "node cannot be its own child");
        // A childless node is no one's ancestor; skipping the walk keeps
        // tree building linear in nesting depth in debug builds too.
        debug_assert!(
            self.nodes[child.index()].first_child.is_none() || !self.is_ancestor_of(child, parent),
            "append would create a cycle"
        );
        self.detach(child);
        let old_last = self.nodes[parent.index()].last_child;
        {
            let c = &mut self.nodes[child.index()];
            c.parent = Some(parent);
            c.prev = old_last;
            c.next = None;
        }
        match old_last {
            Some(last) => self.nodes[last.index()].next = Some(child),
            None => self.nodes[parent.index()].first_child = Some(child),
        }
        self.nodes[parent.index()].last_child = Some(child);
    }

    /// Insert `child` immediately before `before` (which must be a child of
    /// `parent`).
    pub fn insert_before(&mut self, parent: NodeId, child: NodeId, before: NodeId) {
        assert_eq!(
            self.nodes[before.index()].parent,
            Some(parent),
            "`before` is not a child of `parent`"
        );
        assert_ne!(child, before);
        self.detach(child);
        let prev = self.nodes[before.index()].prev;
        {
            let c = &mut self.nodes[child.index()];
            c.parent = Some(parent);
            c.prev = prev;
            c.next = Some(before);
        }
        self.nodes[before.index()].prev = Some(child);
        match prev {
            Some(p) => self.nodes[p.index()].next = Some(child),
            None => self.nodes[parent.index()].first_child = Some(child),
        }
    }

    /// Unlink a node from its parent and siblings. The subtree below the
    /// node stays intact and can be re-inserted elsewhere.
    pub fn detach(&mut self, id: NodeId) {
        let (parent, prev, next) = {
            let n = &self.nodes[id.index()];
            (n.parent, n.prev, n.next)
        };
        if let Some(p) = prev {
            self.nodes[p.index()].next = next;
        }
        if let Some(nx) = next {
            self.nodes[nx.index()].prev = prev;
        }
        if let Some(pa) = parent {
            if self.nodes[pa.index()].first_child == Some(id) {
                self.nodes[pa.index()].first_child = next;
            }
            if self.nodes[pa.index()].last_child == Some(id) {
                self.nodes[pa.index()].last_child = prev;
            }
        }
        let n = &mut self.nodes[id.index()];
        n.parent = None;
        n.prev = None;
        n.next = None;
    }

    /// Replace `old` with `new` in the tree; `old` becomes detached.
    pub fn replace(&mut self, old: NodeId, new: NodeId) {
        let parent = self.nodes[old.index()].parent.expect("replace target must be attached");
        self.insert_before(parent, new, old);
        self.detach(old);
    }

    /// Set the text of a text node. Panics on non-text nodes.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        match &mut self.nodes[id.index()].data {
            NodeData::Text(t) => *t = text.to_string(),
            _ => panic!("set_text on non-text node"),
        }
    }

    // ---- queries -----------------------------------------------------------

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].first_child
    }

    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].last_child
    }

    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].next
    }

    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].prev
    }

    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].data, NodeData::Element(_))
    }

    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].data, NodeData::Text(_))
    }

    /// Lowercase tag name for element nodes.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].data {
            NodeData::Element(el) => Some(el.name.as_str()),
            _ => None,
        }
    }

    pub fn element(&self, id: NodeId) -> Option<&Element> {
        match &self.nodes[id.index()].data {
            NodeData::Element(el) => Some(el),
            _ => None,
        }
    }

    pub fn element_mut(&mut self, id: NodeId) -> Option<&mut Element> {
        match &mut self.nodes[id.index()].data {
            NodeData::Element(el) => Some(el),
            _ => None,
        }
    }

    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.element(id).and_then(|el| el.attr(name))
    }

    /// Text of a text node (not the recursive string value; see
    /// [`Document::text_content`]).
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].data {
            NodeData::Text(t) => Some(t.as_str()),
            _ => None,
        }
    }

    /// Concatenated text of all descendant text nodes (the XPath
    /// "string-value" of an element).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id.index()].data {
            NodeData::Text(t) => out.push_str(t),
            NodeData::Comment(_) | NodeData::Doctype(_) => {}
            _ => {
                let mut child = self.first_child(id);
                while let Some(c) = child {
                    self.collect_text(c, out);
                    child = self.next_sibling(c);
                }
            }
        }
    }

    /// True when `anc` is a strict ancestor of `id`.
    pub fn is_ancestor_of(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    // ---- traversal ---------------------------------------------------------

    /// Children of a node, in order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { doc: self, cur: self.first_child(id) }
    }

    /// Child element nodes only.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Strict ancestors, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, cur: self.parent(id) }
    }

    /// Pre-order descendants of `id`, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, root: id, cur: self.first_child(id) }
    }

    /// `id` followed by its pre-order descendants.
    pub fn descendants_and_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(id).chain(self.descendants(id))
    }

    /// Next node in document order after `id`'s whole subtree.
    pub fn next_skipping_subtree(&self, id: NodeId) -> Option<NodeId> {
        let mut cur = id;
        loop {
            if let Some(sib) = self.next_sibling(cur) {
                return Some(sib);
            }
            cur = self.parent(cur)?;
        }
    }

    /// Next node in document order (pre-order successor).
    pub fn next_in_doc(&self, id: NodeId) -> Option<NodeId> {
        if let Some(c) = self.first_child(id) {
            return Some(c);
        }
        self.next_skipping_subtree(id)
    }

    /// Previous node in document order (pre-order predecessor).
    pub fn prev_in_doc(&self, id: NodeId) -> Option<NodeId> {
        match self.prev_sibling(id) {
            Some(mut cur) => {
                while let Some(last) = self.last_child(cur) {
                    cur = last;
                }
                Some(cur)
            }
            None => self.parent(id),
        }
    }

    /// Nodes strictly after `id` in document order, excluding descendants
    /// (the XPath `following` axis).
    pub fn following(&self, id: NodeId) -> Following<'_> {
        Following { doc: self, cur: self.next_skipping_subtree(id) }
    }

    /// Nodes strictly before `id` in document order, excluding ancestors
    /// (the XPath `preceding` axis), nearest first (reverse document order).
    pub fn preceding(&self, id: NodeId) -> Preceding<'_> {
        Preceding { doc: self, next_ancestor: self.parent(id), cur: self.prev_in_doc(id) }
    }

    /// Path of child indices from the root; lexicographic comparison of
    /// these keys yields document order.
    pub fn doc_order_key(&self, id: NodeId) -> Vec<u32> {
        let mut key = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            let mut idx = 0u32;
            let mut sib = self.nodes[cur.index()].prev;
            while let Some(s) = sib {
                idx += 1;
                sib = self.nodes[s.index()].prev;
            }
            key.push(idx);
            cur = parent;
        }
        key.reverse();
        key
    }

    /// Compare two attached nodes by document order.
    pub fn compare_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.doc_order_key(a).cmp(&self.doc_order_key(b))
    }

    /// Sort a node list into document order and remove duplicates.
    pub fn sort_document_order(&self, nodes: &mut Vec<NodeId>) {
        let mut keyed: Vec<(Vec<u32>, NodeId)> =
            nodes.iter().map(|&n| (self.doc_order_key(n), n)).collect();
        keyed.sort();
        keyed.dedup_by(|a, b| a.1 == b.1);
        nodes.clear();
        nodes.extend(keyed.into_iter().map(|(_, n)| n));
    }

    /// All elements with the given (case-insensitive) tag name, in document
    /// order.
    pub fn elements_by_tag(&self, name: &str) -> Vec<NodeId> {
        let lower = name.to_ascii_lowercase();
        self.descendants(Self::ROOT).filter(|&n| self.tag_name(n) == Some(lower.as_str())).collect()
    }

    /// The `<html>` element, if present.
    pub fn html_element(&self) -> Option<NodeId> {
        self.children(Self::ROOT).find(|&c| self.tag_name(c) == Some("html"))
    }

    /// The `<body>` element, if present.
    pub fn body(&self) -> Option<NodeId> {
        let html = self.html_element()?;
        self.children(html).find(|&c| self.tag_name(c) == Some("body"))
    }

    /// The `<head>` element, if present.
    pub fn head(&self) -> Option<NodeId> {
        let html = self.html_element()?;
        self.children(html).find(|&c| self.tag_name(c) == Some("head"))
    }

    /// Number of nodes reachable from the root (excludes detached slots).
    pub fn attached_count(&self) -> usize {
        self.descendants_and_self(Self::ROOT).count()
    }
}

pub struct Children<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.next_sibling(id);
        Some(id)
    }
}

pub struct Ancestors<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.parent(id);
        Some(id)
    }
}

pub struct Descendants<'d> {
    doc: &'d Document,
    root: NodeId,
    cur: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        // Advance: first child, else next sibling, else climb (stopping at root).
        self.cur = if let Some(c) = self.doc.first_child(id) {
            Some(c)
        } else {
            let mut cur = id;
            loop {
                if cur == self.root {
                    break None;
                }
                if let Some(sib) = self.doc.next_sibling(cur) {
                    break Some(sib);
                }
                match self.doc.parent(cur) {
                    Some(p) if p != self.root => cur = p,
                    _ => break None,
                }
            }
        };
        Some(id)
    }
}

pub struct Following<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Following<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.next_in_doc(id);
        Some(id)
    }
}

pub struct Preceding<'d> {
    doc: &'d Document,
    /// The target's nearest ancestor not yet passed. Walking backwards in
    /// document order meets the ancestors in parent-chain order, so each
    /// skip is one comparison.
    next_ancestor: Option<NodeId>,
    cur: Option<NodeId>,
}

impl Iterator for Preceding<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        // Skip ancestors of the target (preceding axis excludes them).
        while let Some(id) = self.cur {
            self.cur = self.doc.prev_in_doc(id);
            if Some(id) == self.next_ancestor {
                self.next_ancestor = self.doc.parent(id);
            } else {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// div > (p > "a"), (span > "b"), "c"
    fn sample() -> (Document, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let div = d.create_element("div");
        let p = d.create_element("p");
        let ta = d.create_text("a");
        let span = d.create_element("span");
        let tb = d.create_text("b");
        let tc = d.create_text("c");
        d.append_child(Document::ROOT, div);
        d.append_child(div, p);
        d.append_child(p, ta);
        d.append_child(div, span);
        d.append_child(span, tb);
        d.append_child(div, tc);
        (d, div, p, ta, span, tb, tc)
    }

    #[test]
    fn links_after_append() {
        let (d, div, p, _ta, span, _tb, tc) = sample();
        assert_eq!(d.first_child(div), Some(p));
        assert_eq!(d.last_child(div), Some(tc));
        assert_eq!(d.next_sibling(p), Some(span));
        assert_eq!(d.prev_sibling(span), Some(p));
        assert_eq!(d.parent(span), Some(div));
    }

    #[test]
    fn descendants_preorder() {
        let (d, div, p, ta, span, tb, tc) = sample();
        let order: Vec<NodeId> = d.descendants(Document::ROOT).collect();
        assert_eq!(order, vec![div, p, ta, span, tb, tc]);
        let sub: Vec<NodeId> = d.descendants(span).collect();
        assert_eq!(sub, vec![tb]);
    }

    #[test]
    fn detach_relinks_siblings() {
        let (mut d, div, p, _ta, span, _tb, tc) = sample();
        d.detach(span);
        assert_eq!(d.next_sibling(p), Some(tc));
        assert_eq!(d.prev_sibling(tc), Some(p));
        assert_eq!(d.parent(span), None);
        let order: Vec<NodeId> = d.descendants(div).collect();
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn insert_before_front_and_middle() {
        let (mut d, div, p, _ta, span, _tb, _tc) = sample();
        let new1 = d.create_element("b");
        d.insert_before(div, new1, p);
        assert_eq!(d.first_child(div), Some(new1));
        let new2 = d.create_element("i");
        d.insert_before(div, new2, span);
        assert_eq!(d.prev_sibling(span), Some(new2));
        assert_eq!(d.next_sibling(p), Some(new2));
    }

    #[test]
    fn replace_swaps_nodes() {
        let (mut d, div, p, _ta, _span, _tb, _tc) = sample();
        let new = d.create_element("h1");
        d.replace(p, new);
        assert_eq!(d.first_child(div), Some(new));
        assert_eq!(d.parent(p), None);
    }

    #[test]
    fn text_content_concatenates() {
        let (d, div, ..) = sample();
        assert_eq!(d.text_content(div), "abc");
    }

    #[test]
    fn following_and_preceding_axes() {
        let (d, _div, p, ta, span, tb, tc) = sample();
        let f: Vec<NodeId> = d.following(p).collect();
        assert_eq!(f, vec![span, tb, tc]);
        // preceding of tb: ta, p (ancestors span/div excluded), nearest first.
        let pr: Vec<NodeId> = d.preceding(tb).collect();
        assert_eq!(pr, vec![ta, p]);
    }

    #[test]
    fn preceding_matches_definition_on_deep_nesting() {
        // Nested divs, each holding a text and a span before the next
        // level: every node's ancestors interleave with the nodes that
        // precede it.
        let mut d = Document::new();
        let mut parent = Document::ROOT;
        for depth in 0..40 {
            let div = d.create_element("div");
            d.append_child(parent, div);
            let lead = d.create_text(&format!("lead {depth}"));
            d.append_child(div, lead);
            let span = d.create_element("span");
            d.append_child(div, span);
            let inner = d.create_text("x");
            d.append_child(span, inner);
            parent = div;
        }
        let all: Vec<NodeId> = d.descendants_and_self(Document::ROOT).collect();
        for &target in &all {
            let mut naive: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|&n| {
                    d.compare_order(n, target) == Ordering::Less && !d.is_ancestor_of(n, target)
                })
                .collect();
            naive.reverse();
            assert_eq!(d.preceding(target).collect::<Vec<_>>(), naive, "target {target}");
        }
    }

    #[test]
    fn doc_order_compare_and_sort() {
        let (d, div, p, ta, span, tb, tc) = sample();
        assert_eq!(d.compare_order(p, span), Ordering::Less);
        assert_eq!(d.compare_order(tc, ta), Ordering::Greater);
        assert_eq!(d.compare_order(div, div), Ordering::Equal);
        let mut v = vec![tc, tb, p, tc, div];
        d.sort_document_order(&mut v);
        assert_eq!(v, vec![div, p, tb, tc]);
    }

    #[test]
    fn attr_access_is_case_insensitive() {
        let mut d = Document::new();
        let a = d.create_element_with_attrs("a", &[("HREF", "x"), ("id", "l")]);
        assert_eq!(d.attr(a, "href"), Some("x"));
        assert_eq!(d.attr(a, "ID"), Some("l"));
        assert_eq!(d.attr(a, "class"), None);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (d, div, p, ta, ..) = sample();
        let anc: Vec<NodeId> = d.ancestors(ta).collect();
        assert_eq!(anc, vec![p, div, Document::ROOT]);
    }

    #[test]
    fn is_ancestor_of() {
        let (d, div, p, ta, span, ..) = sample();
        assert!(d.is_ancestor_of(div, ta));
        assert!(d.is_ancestor_of(p, ta));
        assert!(!d.is_ancestor_of(span, ta));
        assert!(!d.is_ancestor_of(ta, ta));
    }

    #[test]
    #[should_panic]
    fn append_to_self_panics() {
        let mut d = Document::new();
        let x = d.create_element("div");
        d.append_child(x, x);
    }
}
