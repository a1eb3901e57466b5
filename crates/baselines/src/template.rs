//! RoadRunner-style automatic wrapper induction.
//!
//! RoadRunner [Crescenzi/Mecca/Merialdo, VLDB'01] infers a *union-free
//! regular expression* wrapper by comparing sample pages: invariant
//! tokens stay constant, mismatching strings become **fields**
//! (`#PCDATA`), repeated blocks become **iterators** (`(…)+`) and blocks
//! present in only some pages become **optionals** (`(…)? `).
//!
//! Our implementation keeps that wrapper language but simplifies the
//! discovery procedure: repetitions are folded
//! per page by structural-shape equality over the DOM, then page
//! templates are merged pairwise with an LCS alignment that generalises
//! mismatched texts to fields and unmatched blocks to optionals. On
//! template-generated sites this finds the same wrapper the full ACME
//! search would; it trades completeness on adversarial inputs for
//! simplicity.
//!
//! The defining property the paper (§6) criticises is preserved: wrapper
//! fields are *anonymous* and *exhaustive* — every varying chunk of the
//! page becomes a field whether the user wants it or not.

use retroweb_html::{parse, Document, NodeData, NodeId};
use retroweb_xpath::normalize_space;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A node of the inferred template (union-free regular expression).
#[derive(Clone, Debug, PartialEq)]
pub enum TNode {
    /// An element with a fixed tag and a template for its children.
    Element { tag: String, children: Vec<TNode> },
    /// Invariant text.
    Const(String),
    /// A variant text slot (`#PCDATA`).
    Field(usize),
    /// One-or-more repetition of a block (`(…)+`).
    Repeat { shape: Box<TNode> },
    /// A block present in only some pages (`(…)? `).
    Optional(Box<TNode>),
}

impl TNode {
    /// Structural signature ignoring text values and field ids: used to
    /// align blocks across pages.
    fn signature(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.sig_feed(&mut hasher);
        hasher.finish()
    }

    fn sig_feed(&self, hasher: &mut DefaultHasher) {
        match self {
            TNode::Element { tag, children } => {
                0u8.hash(hasher);
                tag.hash(hasher);
                for c in children {
                    c.sig_feed(hasher);
                }
                255u8.hash(hasher);
            }
            TNode::Const(_) | TNode::Field(_) => 1u8.hash(hasher),
            TNode::Repeat { shape } => {
                2u8.hash(hasher);
                shape.sig_feed(hasher);
            }
            TNode::Optional(inner) => {
                3u8.hash(hasher);
                inner.sig_feed(hasher);
            }
        }
    }

    /// The block's "kind" for shallow comparison: its tag, with
    /// repetition/optionality wrappers peeled, `#text` for text slots.
    fn kind(&self) -> &str {
        match self {
            TNode::Element { tag, .. } => tag,
            TNode::Const(_) | TNode::Field(_) => "#text",
            TNode::Repeat { shape } => shape.kind(),
            TNode::Optional(inner) => inner.kind(),
        }
    }

    /// Shallow structural signature: the tag plus the run-collapsed list
    /// of child kinds. Two blocks with the same tag and the same child
    /// outline align even when repetition counts or nested text differ —
    /// this is what lets the merge unify per-page variants of the same
    /// template region, and what keeps extraction alignment from feeding
    /// the wrong block to an iterator.
    fn shallow_sig(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        match self {
            TNode::Element { tag, children } => {
                tag.hash(&mut hasher);
                let mut last: Option<&str> = None;
                for c in children {
                    let kind = c.kind();
                    if last != Some(kind) {
                        kind.hash(&mut hasher);
                        last = Some(kind);
                    }
                }
            }
            TNode::Const(_) | TNode::Field(_) => "#text".hash(&mut hasher),
            TNode::Repeat { shape } => return shape.shallow_sig(),
            TNode::Optional(inner) => return inner.shallow_sig(),
        }
        hasher.finish()
    }

    /// Render the wrapper in RoadRunner's notation, for reports.
    pub fn to_notation(&self) -> String {
        match self {
            TNode::Element { tag, children } => {
                let inner: String = children.iter().map(|c| c.to_notation()).collect();
                format!("<{tag}>{inner}</{tag}>")
            }
            TNode::Const(s) => s.clone(),
            TNode::Field(id) => format!("#PCDATA:{id}"),
            TNode::Repeat { shape } => format!("({})+", shape.to_notation()),
            TNode::Optional(inner) => format!("({})?", inner.to_notation()),
        }
    }
}

/// The induced wrapper.
#[derive(Clone, Debug)]
pub struct RoadRunnerWrapper {
    pub template: TNode,
    pub field_count: usize,
}

impl RoadRunnerWrapper {
    /// Induce a wrapper from sample pages (at least one). Returns `None`
    /// when the samples have no common template (different roots).
    pub fn induce(pages: &[&str]) -> Option<RoadRunnerWrapper> {
        let mut iter = pages.iter();
        let first = iter.next()?;
        let mut template = page_template(first)?;
        for page in iter {
            let t = page_template(page)?;
            template = merge(&template, &t)?;
        }
        let mut counter = 0;
        number_fields(&mut template, &mut counter);
        Some(RoadRunnerWrapper { template, field_count: counter })
    }

    /// Extract all field values from a page. Fields are anonymous:
    /// `f0`, `f1`, … in template order; a field inside an iterator yields
    /// one value per occurrence.
    ///
    /// The page is kept *concrete* (no repeat folding) so iterator shapes
    /// in the wrapper consume one page block per occurrence and collect
    /// every text.
    pub fn extract(&self, html: &str) -> BTreeMap<String, Vec<String>> {
        let mut out = BTreeMap::new();
        if let Some(page) = page_concrete(html) {
            collect(&self.template, &page, &mut out);
        }
        out
    }
}

/// Assign stable pre-order ids to fields.
fn number_fields(node: &mut TNode, counter: &mut usize) {
    match node {
        TNode::Field(id) => {
            *id = *counter;
            *counter += 1;
        }
        TNode::Element { children, .. } => {
            for c in children {
                number_fields(c, counter);
            }
        }
        TNode::Repeat { shape } => number_fields(shape, counter),
        TNode::Optional(inner) => number_fields(inner, counter),
        TNode::Const(_) => {}
    }
}

// ---- phase A: page → folded template ----------------------------------------

/// Parse a page and fold it into a template tree (body subtree), with
/// consecutive same-shape sibling blocks folded into `Repeat`s.
fn page_template(html: &str) -> Option<TNode> {
    let doc = parse(html);
    let body = doc.body()?;
    Some(build_element(&doc, body, true))
}

/// Parse a page into a concrete (unfolded) template tree for extraction.
fn page_concrete(html: &str) -> Option<TNode> {
    let doc = parse(html);
    let body = doc.body()?;
    Some(build_element(&doc, body, false))
}

fn build_element(doc: &Document, el: NodeId, fold: bool) -> TNode {
    let mut children: Vec<TNode> = Vec::new();
    for child in doc.children(el) {
        match &doc.node(child).data {
            NodeData::Element(_) => children.push(build_element(doc, child, fold)),
            NodeData::Text(t) => {
                let norm = normalize_space(t);
                if !norm.is_empty() {
                    children.push(TNode::Const(norm));
                }
            }
            _ => {}
        }
    }
    let children = if fold { fold_repeats(children) } else { children };
    TNode::Element { tag: doc.tag_name(el).unwrap_or("").to_string(), children }
}

/// Fold runs of consecutive same-signature blocks into `Repeat`s,
/// generalising their texts to fields.
fn fold_repeats(children: Vec<TNode>) -> Vec<TNode> {
    let mut out: Vec<TNode> = Vec::new();
    let mut i = 0;
    while i < children.len() {
        // Only element blocks fold (text runs don't repeat structurally).
        let sig = children[i].signature();
        let is_element = matches!(children[i], TNode::Element { .. });
        let mut j = i + 1;
        while is_element && j < children.len() && children[j].signature() == sig {
            j += 1;
        }
        if j - i >= 2 {
            // Merge the occurrences into one shape (texts that differ
            // become fields) and wrap in a Repeat.
            let mut shape = children[i].clone();
            for occurrence in &children[i + 1..j] {
                shape = merge(&shape, occurrence).unwrap_or(shape);
            }
            out.push(TNode::Repeat { shape: Box::new(shape) });
        } else {
            out.push(children[i].clone());
        }
        i = j.max(i + 1);
    }
    out
}

// ---- phase B: pairwise merge -------------------------------------------------

/// Merge two templates; `None` when their roots are incompatible.
fn merge(a: &TNode, b: &TNode) -> Option<TNode> {
    match (a, b) {
        (TNode::Element { tag: ta, children: ca }, TNode::Element { tag: tb, children: cb }) => {
            if ta != tb {
                return None;
            }
            Some(TNode::Element { tag: ta.clone(), children: merge_children(ca, cb) })
        }
        (TNode::Const(x), TNode::Const(y)) => {
            if x == y {
                Some(TNode::Const(x.clone()))
            } else {
                Some(TNode::Field(0))
            }
        }
        (TNode::Field(_), TNode::Const(_))
        | (TNode::Const(_), TNode::Field(_))
        | (TNode::Field(_), TNode::Field(_)) => Some(TNode::Field(0)),
        (TNode::Repeat { shape: sa }, TNode::Repeat { shape: sb }) => {
            let merged = merge(sa, sb)?;
            Some(TNode::Repeat { shape: Box::new(merged) })
        }
        // A single occurrence on one side absorbs into the other side's
        // repetition (iterator with one iteration).
        (TNode::Repeat { shape }, one) | (one, TNode::Repeat { shape }) => {
            let merged = merge(shape, one)?;
            Some(TNode::Repeat { shape: Box::new(merged) })
        }
        (TNode::Optional(ia), TNode::Optional(ib)) => {
            let merged = merge(ia, ib)?;
            Some(TNode::Optional(Box::new(merged)))
        }
        (TNode::Optional(inner), other) | (other, TNode::Optional(inner)) => {
            let merged = merge(inner, other)?;
            Some(TNode::Optional(Box::new(merged)))
        }
        _ => None,
    }
}

/// Align two child lists by signature LCS; unmatched blocks become
/// optionals, matched blocks merge recursively.
fn merge_children(a: &[TNode], b: &[TNode]) -> Vec<TNode> {
    // LCS over "alignability": same shallow structure, or both text-like
    // (Repeat/Optional align with single blocks of their shape).
    let alignable = |x: &TNode, y: &TNode| -> bool {
        let text_like = |n: &TNode| matches!(n, TNode::Const(_) | TNode::Field(_));
        if text_like(x) && text_like(y) {
            return true;
        }
        x.shallow_sig() == y.shallow_sig()
    };
    let n = a.len();
    let m = b.len();
    let mut lcs = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if alignable(&a[i], &b[j]) {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    let as_optional = |n: &TNode| -> TNode {
        match n {
            TNode::Optional(_) => n.clone(),
            other => TNode::Optional(Box::new(other.clone())),
        }
    };
    while i < n && j < m {
        if alignable(&a[i], &b[j]) && lcs[i][j] == lcs[i + 1][j + 1] + 1 {
            match merge(&a[i], &b[j]) {
                Some(merged) => out.push(merged),
                None => {
                    out.push(as_optional(&a[i]));
                    out.push(as_optional(&b[j]));
                }
            }
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            out.push(as_optional(&a[i]));
            i += 1;
        } else {
            out.push(as_optional(&b[j]));
            j += 1;
        }
    }
    while i < n {
        out.push(as_optional(&a[i]));
        i += 1;
    }
    while j < m {
        out.push(as_optional(&b[j]));
        j += 1;
    }
    out
}

// ---- extraction ---------------------------------------------------------------

/// Walk the wrapper against a concrete page template, collecting field
/// values.
fn collect(template: &TNode, page: &TNode, out: &mut BTreeMap<String, Vec<String>>) {
    match (template, page) {
        (TNode::Field(id), TNode::Const(text)) => {
            out.entry(format!("f{id}")).or_default().push(text.clone());
        }
        (TNode::Field(_), _) | (TNode::Const(_), _) => {}
        (TNode::Element { tag: tt, children: tc }, TNode::Element { tag: pt, children: pc }) => {
            if tt != pt {
                return;
            }
            align_and_collect(tc, pc, out);
        }
        (TNode::Repeat { shape }, TNode::Repeat { shape: pshape }) => {
            // The page side folded its occurrences too; distribute.
            collect(shape, pshape, out);
        }
        (TNode::Repeat { shape }, single) => collect(shape, single, out),
        (TNode::Optional(inner), other) => collect(inner, other, out),
        (inner, TNode::Optional(pinner)) => collect(inner, pinner, out),
        _ => {}
    }
}

fn align_and_collect(tc: &[TNode], pc: &[TNode], out: &mut BTreeMap<String, Vec<String>>) {
    // Greedy alignment: template children vs page children.
    let mut pi = 0;
    for t in tc {
        match t {
            TNode::Optional(inner) => {
                if pi < pc.len() && compatible(inner, &pc[pi]) {
                    collect(inner, &pc[pi], out);
                    pi += 1;
                }
            }
            TNode::Repeat { shape } => {
                // The page may hold a folded Repeat or a single block.
                if pi < pc.len() && compatible(t, &pc[pi]) {
                    collect(t, &pc[pi], out);
                    pi += 1;
                }
                // Also absorb further single blocks matching the shape.
                while pi < pc.len() && compatible(shape, &pc[pi]) {
                    collect(shape, &pc[pi], out);
                    pi += 1;
                }
            }
            other => {
                if pi < pc.len() && compatible(other, &pc[pi]) {
                    collect(other, &pc[pi], out);
                    pi += 1;
                } else {
                    // Skip page blocks that don't fit (noise), up to 2.
                    let mut skipped = 0;
                    while pi < pc.len() && skipped < 2 && !compatible(other, &pc[pi]) {
                        pi += 1;
                        skipped += 1;
                    }
                    if pi < pc.len() && compatible(other, &pc[pi]) {
                        collect(other, &pc[pi], out);
                        pi += 1;
                    }
                }
            }
        }
    }
}

fn compatible(t: &TNode, p: &TNode) -> bool {
    match (t, p) {
        (TNode::Field(_), TNode::Const(_)) | (TNode::Const(_), TNode::Const(_)) => true,
        (TNode::Element { tag: a, .. }, TNode::Element { tag: b, .. }) => {
            a == b && t.shallow_sig() == p.shallow_sig()
        }
        (TNode::Repeat { shape }, TNode::Repeat { shape: ps }) => {
            shape.signature() == ps.signature() || compatible(shape, ps)
        }
        (TNode::Repeat { shape }, other) => compatible(shape, other),
        (TNode::Optional(inner), other) => compatible(inner, other),
        (inner, TNode::Optional(pinner)) => compatible(inner, pinner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: &str = "<body><h1>Brazil</h1><div>Runtime: <b>142 min</b></div>\
                      <ul><li>Drama</li><li>Comedy</li></ul></body>";
    const P2: &str = "<body><h1>Alien</h1><div>Runtime: <b>117 min</b></div>\
                      <ul><li>Horror</li><li>SciFi</li><li>Thriller</li></ul></body>";

    #[test]
    fn induces_fields_for_variant_text() {
        let w = RoadRunnerWrapper::induce(&[P1, P2]).unwrap();
        let notation = w.template.to_notation();
        assert!(notation.contains("#PCDATA"), "{notation}");
        assert!(notation.contains("Runtime:"), "{notation}");
        assert!(w.field_count >= 3, "{}", w.field_count);
    }

    #[test]
    fn folds_repeated_list_items() {
        let w = RoadRunnerWrapper::induce(&[P1]).unwrap();
        let notation = w.template.to_notation();
        assert!(notation.contains(")+"), "{notation}");
    }

    #[test]
    fn extraction_recovers_values() {
        let w = RoadRunnerWrapper::induce(&[P1, P2]).unwrap();
        let vals = w.extract(P1);
        let all: Vec<&String> = vals.values().flatten().collect();
        assert!(all.iter().any(|v| v.as_str() == "Brazil"), "{vals:?}");
        assert!(all.iter().any(|v| v.as_str() == "142 min"), "{vals:?}");
        assert!(all.iter().any(|v| v.as_str() == "Drama"), "{vals:?}");
        assert!(all.iter().any(|v| v.as_str() == "Comedy"), "{vals:?}");
    }

    #[test]
    fn optional_blocks_survive() {
        let a = "<body><h1>T1</h1><div>Also Known As: X</div><p>Country: USA</p></body>";
        let b = "<body><h1>T2</h1><p>Country: France</p></body>";
        let w = RoadRunnerWrapper::induce(&[a, b]).unwrap();
        let notation = w.template.to_notation();
        assert!(notation.contains(")?"), "{notation}");
        // Extraction works on both shapes.
        let va = w.extract(a);
        let vb = w.extract(b);
        assert!(va.values().flatten().any(|v| v == "T1"));
        assert!(vb.values().flatten().any(|v| v == "T2"));
    }

    #[test]
    fn extracts_everything_including_unwanted() {
        // The flexibility criticism from §6: all varying chunks become
        // fields — here the ad banner text too.
        let a = "<body><div>Ad: cheap flights</div><p>142 min</p></body>";
        let b = "<body><div>Ad: hotel deals</div><p>117 min</p></body>";
        let w = RoadRunnerWrapper::induce(&[a, b]).unwrap();
        let vals = w.extract(a);
        let all: Vec<&String> = vals.values().flatten().collect();
        assert!(all.iter().any(|v| v.contains("cheap flights")));
        assert!(all.iter().any(|v| v.as_str() == "142 min"));
    }

    #[test]
    fn incompatible_roots_yield_none() {
        // merge() root mismatch is unreachable through public induce()
        // (body vs body), but nested incompatibilities must not panic.
        let w = RoadRunnerWrapper::induce(&[
            "<body><div><p>x</p></div></body>",
            "<body><span><p>y</p></span></body>",
        ]);
        assert!(w.is_some()); // handled as optionals
    }
}
