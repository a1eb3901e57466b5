//! Error-tolerant tree construction.
//!
//! Implements the recovery behaviours that matter for wrapper induction
//! over real pages: implied end tags (`<li>`, `<td>`, `<tr>`, `<p>`, …),
//! void elements, head/body structure synthesis, and tolerance for stray
//! end tags. Three deliberate deviations from WHATWG:
//!
//! - no `<tbody>` synthesis: `<table><tr>` keeps `tr` as a direct child of
//!   `table`, matching the DOM implied by the paper's location paths
//!   (`TABLE[3]/TR[1]`, `BODY//TABLE[1]/TR[2]/TD[2]`);
//! - no foster parenting / adoption agency: misnested formatting elements
//!   are closed where their nearest enclosing scope ends;
//! - at most [`MAX_OPEN_ELEMENTS`] open elements, as in Blink: an element
//!   started past the cap is appended to the current parent but not
//!   opened, so its content lands in that parent and its end tag is
//!   handled like any end tag of an element that is not open. This
//!   bounds the one scan of the open-element stack left (for the end tag
//!   of an element the builder does not track), which keeps tree
//!   building linear on hostile nesting.

use crate::dom::{Document, NodeId};
use crate::tokenizer::{Token, Tokenizer};

/// Open elements the builder nests; deeper start tags become siblings
/// inside the innermost open element.
const MAX_OPEN_ELEMENTS: usize = 512;

/// Elements that never have children or end tags.
pub fn is_void(tag: &str) -> bool {
    matches!(
        tag,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Elements whose start tag implicitly closes an open `<p>`.
fn closes_p(tag: &str) -> bool {
    matches!(
        tag,
        "address"
            | "article"
            | "aside"
            | "blockquote"
            | "center"
            | "dir"
            | "div"
            | "dl"
            | "fieldset"
            | "footer"
            | "form"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "header"
            | "hr"
            | "li"
            | "main"
            | "menu"
            | "nav"
            | "ol"
            | "p"
            | "pre"
            | "section"
            | "table"
            | "ul"
    )
}

/// Tags with a slot in [`Builder::open`].
const TRACKED_TAGS: usize = 20;

/// Slot in [`Builder::open`] for each tag that `auto_close` pops to or
/// stops at, and that `end_tag` looks up.
fn tracked_slot(tag: &str) -> Option<usize> {
    Some(match tag {
        "li" => 0,
        "dt" => 1,
        "dd" => 2,
        "option" => 3,
        "optgroup" => 4,
        "td" => 5,
        "th" => 6,
        "tr" => 7,
        "tbody" => 8,
        "thead" => 9,
        "tfoot" => 10,
        "col" => 11,
        "p" => 12,
        "ul" => 13,
        "ol" => 14,
        "dl" => 15,
        "select" => 16,
        "table" => 17,
        "colgroup" => 18,
        "caption" => 19,
        _ => return None,
    })
}

/// Elements that belong in `<head>` when seen before any body content.
fn is_head_element(tag: &str) -> bool {
    matches!(tag, "title" | "base" | "link" | "meta" | "style" | "script")
}

/// Parse an HTML string into a [`Document`].
pub fn parse(html: &str) -> Document {
    let mut builder = Builder::new();
    for token in Tokenizer::new(html) {
        builder.token(token);
    }
    builder.finish()
}

struct Builder {
    doc: Document,
    /// Open elements below `body` (or below `head` for head content).
    /// Changed only through `push_open` and `truncate_open`.
    stack: Vec<NodeId>,
    /// The `stack` positions of the open elements of each [`tracked_slot`]
    /// tag, lowest first, so the nearest one is the last. Finding a target
    /// or a scope boundary never scans `stack`: a scan per block start tag
    /// is quadratic on deep nesting.
    open: [Vec<usize>; TRACKED_TAGS],
    html: Option<NodeId>,
    head: Option<NodeId>,
    body: Option<NodeId>,
    /// True once body content has started; head elements seen after this
    /// point are appended to the body instead.
    in_body: bool,
    /// Set while the insertion point is inside `<head>` (e.g. `<title>`).
    head_stack: bool,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            doc: Document::new(),
            stack: Vec::new(),
            open: Default::default(),
            html: None,
            head: None,
            body: None,
            in_body: false,
            head_stack: false,
        }
    }

    fn ensure_html(&mut self) -> NodeId {
        if let Some(h) = self.html {
            return h;
        }
        let h = self.doc.create_element("html");
        self.doc.append_child(Document::ROOT, h);
        self.html = Some(h);
        h
    }

    fn ensure_head(&mut self) -> NodeId {
        if let Some(h) = self.head {
            return h;
        }
        let html = self.ensure_html();
        let h = self.doc.create_element("head");
        self.doc.append_child(html, h);
        self.head = Some(h);
        h
    }

    fn ensure_body(&mut self) -> NodeId {
        if let Some(b) = self.body {
            self.in_body = true;
            return b;
        }
        // Make sure head exists (possibly empty) before body, so documents
        // always have the html > head + body shape.
        self.ensure_head();
        let html = self.ensure_html();
        let b = self.doc.create_element("body");
        self.doc.append_child(html, b);
        self.body = Some(b);
        self.in_body = true;
        self.head_stack = false;
        b
    }

    /// Current insertion parent.
    fn parent(&mut self) -> NodeId {
        if let Some(&top) = self.stack.last() {
            return top;
        }
        if self.head_stack {
            return self.ensure_head();
        }
        self.ensure_body()
    }

    fn token(&mut self, token: Token) {
        match token {
            Token::Doctype(name) => {
                if self.html.is_none() {
                    let dt = self.doc.create_doctype(&name);
                    self.doc.append_child(Document::ROOT, dt);
                }
            }
            Token::Comment(text) => {
                let c = self.doc.create_comment(&text);
                if self.html.is_none() && self.stack.is_empty() {
                    self.doc.append_child(Document::ROOT, c);
                } else {
                    let p = self.parent();
                    self.doc.append_child(p, c);
                }
            }
            Token::Text(text) => self.text(&text),
            Token::StartTag { name, attrs, self_closing } => {
                self.start_tag(&name, attrs, self_closing)
            }
            Token::EndTag { name } => self.end_tag(&name),
        }
    }

    fn text(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        let ws_only = text.chars().all(|c| c.is_whitespace());
        if ws_only && self.stack.is_empty() && !self.in_body && !self.head_stack {
            // Inter-element whitespace before content starts: drop it, as
            // browsers effectively do for the before-head/before-body modes.
            return;
        }
        let parent = self.parent();
        // Merge with a trailing text node so "a&amp;b" becomes one node.
        if let Some(last) = self.doc.last_child(parent) {
            if let Some(existing) = self.doc.text(last) {
                let merged = format!("{existing}{text}");
                self.doc.set_text(last, &merged);
                return;
            }
        }
        let t = self.doc.create_text(text);
        self.doc.append_child(parent, t);
    }

    fn start_tag(&mut self, name: &str, attrs: Vec<(String, String)>, self_closing: bool) {
        match name {
            "html" => {
                let h = self.ensure_html();
                self.merge_attrs(h, attrs);
                return;
            }
            "head" => {
                let h = self.ensure_head();
                self.merge_attrs(h, attrs);
                if !self.in_body {
                    self.head_stack = true;
                }
                return;
            }
            "body" => {
                let b = self.ensure_body();
                self.merge_attrs(b, attrs);
                return;
            }
            _ => {}
        }

        if is_head_element(name) && !self.in_body && self.stack.is_empty() {
            self.head_stack = true;
            let head = self.ensure_head();
            let el = self.create(name, attrs);
            self.doc.append_child(head, el);
            if !is_void(name) && !self_closing {
                self.push_open(el, name);
            }
            return;
        }

        // A non-head element at the top level ends the head phase.
        if self.head_stack && self.stack.is_empty() {
            self.head_stack = false;
        }
        self.auto_close(name);
        let parent = self.parent();
        let el = self.create(name, attrs);
        self.doc.append_child(parent, el);
        if !is_void(name) && !self_closing {
            self.push_open(el, name);
        }
    }

    fn create(&mut self, name: &str, attrs: Vec<(String, String)>) -> NodeId {
        let el = self.doc.create_element(name);
        for (k, v) in attrs {
            self.doc.element_mut(el).unwrap().set_attr(&k, &v);
        }
        el
    }

    fn merge_attrs(&mut self, el: NodeId, attrs: Vec<(String, String)>) {
        for (k, v) in attrs {
            let element = self.doc.element_mut(el).unwrap();
            if element.attr(&k).is_none() {
                element.set_attr(&k, &v);
            }
        }
    }

    /// Close elements whose end tag is implied by the start of `name`.
    fn auto_close(&mut self, name: &str) {
        match name {
            "li" => self.pop_to_nearest(&["li"], &["ul", "ol"]),
            "dt" | "dd" => self.pop_to_nearest(&["dt", "dd"], &["dl"]),
            "option" => self.pop_to_nearest(&["option"], &["select"]),
            "optgroup" => {
                self.pop_to_nearest(&["option"], &["select"]);
                self.pop_to_nearest(&["optgroup"], &["select"]);
            }
            "td" | "th" => self.pop_to_nearest(&["td", "th"], &["table", "tr"]),
            "tr" => {
                // A new row closes any open cell and the previous row.
                self.pop_to_nearest(&["tr"], &["table"]);
                self.pop_to_nearest(&["td", "th"], &["table"]);
            }
            "tbody" | "thead" | "tfoot" => {
                self.pop_to_nearest(&["tr"], &["table"]);
                self.pop_to_nearest(&["td", "th"], &["table"]);
                self.pop_to_nearest(&["tbody", "thead", "tfoot"], &["table"]);
            }
            "col" => self.pop_to_nearest(&["col"], &["colgroup", "table"]),
            _ => {}
        }
        if closes_p(name) {
            self.pop_to_nearest(&["p"], &["table", "td", "th", "caption"]);
        }
    }

    fn push_open(&mut self, el: NodeId, tag: &str) {
        if self.stack.len() >= MAX_OPEN_ELEMENTS {
            return;
        }
        if let Some(slot) = tracked_slot(tag) {
            self.open[slot].push(self.stack.len());
        }
        self.stack.push(el);
    }

    /// Pop the open elements above the first `len`.
    fn truncate_open(&mut self, len: usize) {
        for (i, id) in (len..).zip(self.stack.drain(len..)) {
            if let Some(slot) = self.doc.tag_name(id).and_then(tracked_slot) {
                let popped = self.open[slot].pop();
                debug_assert_eq!(popped, Some(i), "open positions out of step");
            }
        }
    }

    /// Stack position of the nearest open element among `tags`, all of
    /// them tracked.
    fn nearest(&self, tags: &[&str]) -> Option<usize> {
        tags.iter()
            .filter_map(|tag| {
                let slot = tracked_slot(tag).expect("untracked tag");
                self.open[slot].last().copied()
            })
            .max()
    }

    /// If the nearest open element among `targets` sits above the nearest
    /// among `scopes` (or no scope is open), pop everything down to and
    /// including it.
    fn pop_to_nearest(&mut self, targets: &[&str], scopes: &[&str]) {
        if let Some(target) = self.nearest(targets) {
            if self.nearest(scopes).is_none_or(|scope| scope < target) {
                self.truncate_open(target);
            }
        }
    }

    fn end_tag(&mut self, name: &str) {
        match name {
            "html" | "body" => return, // structure is synthesised
            "head" => {
                self.head_stack = false;
                self.truncate_open(0);
                return;
            }
            // Void elements are never open.
            _ if is_void(name) => return,
            _ => {}
        }
        // Find the nearest matching open element and pop through it.
        // Unmatched end tags are ignored: for `</p>` with no open `<p>`
        // browsers synthesise an empty element, and for extraction
        // purposes dropping it is enough.
        let nearest = match tracked_slot(name) {
            Some(slot) => self.open[slot].last().copied(),
            None => self.stack.iter().rposition(|&id| self.doc.tag_name(id) == Some(name)),
        };
        if let Some(i) = nearest {
            self.truncate_open(i);
        }
    }

    fn finish(mut self) -> Document {
        // Guarantee the html/head/body skeleton even for empty input.
        self.ensure_body();
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outline(doc: &Document) -> String {
        fn walk(doc: &Document, id: NodeId, out: &mut String) {
            for child in doc.children(id) {
                if let Some(tag) = doc.tag_name(child) {
                    out.push('(');
                    out.push_str(tag);
                    walk(doc, child, out);
                    out.push(')');
                } else if let Some(t) = doc.text(child) {
                    let trimmed = t.trim();
                    if !trimmed.is_empty() {
                        out.push('\'');
                        out.push_str(trimmed);
                        out.push('\'');
                    }
                }
            }
        }
        let mut out = String::new();
        walk(doc, Document::ROOT, &mut out);
        out
    }

    #[test]
    fn skeleton_synthesised() {
        let doc = parse("hello");
        assert_eq!(outline(&doc), "(html(head)(body'hello'))");
    }

    #[test]
    fn explicit_structure_preserved() {
        let doc = parse("<html><head><title>T</title></head><body><p>x</p></body></html>");
        assert_eq!(outline(&doc), "(html(head(title'T'))(body(p'x')))");
    }

    #[test]
    fn li_implies_end() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        assert_eq!(outline(&doc), "(html(head)(body(ul(li'a')(li'b')(li'c'))))");
    }

    #[test]
    fn table_cells_imply_ends_no_tbody() {
        let doc = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tr(td'a')(td'b'))(tr(td'c')))))");
    }

    #[test]
    fn explicit_tbody_kept() {
        let doc = parse("<table><tbody><tr><td>a</td></tr></tbody></table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tbody(tr(td'a'))))))");
    }

    #[test]
    fn nested_table_inside_cell() {
        let doc = parse("<table><tr><td><table><tr><td>x</table></table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tr(td(table(tr(td'x'))))))))");
    }

    #[test]
    fn p_closed_by_block() {
        let doc = parse("<p>a<div>b</div><p>c<p>d");
        assert_eq!(outline(&doc), "(html(head)(body(p'a')(div'b')(p'c')(p'd')))");
    }

    #[test]
    fn void_elements_have_no_children() {
        let doc = parse("Run<br>time<hr><img src=x>z");
        assert_eq!(outline(&doc), "(html(head)(body'Run'(br)'time'(hr)(img)'z'))");
    }

    #[test]
    fn unclosed_inline_closed_by_cell_boundary() {
        let doc = parse("<table><tr><td><b>x<td>y</table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tr(td(b'x'))(td'y')))))");
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = parse("</div><p>a</span></p>");
        assert_eq!(outline(&doc), "(html(head)(body(p'a')))");
    }

    #[test]
    fn head_elements_routed_to_head() {
        let doc = parse("<title>T</title><meta charset=utf-8><p>b</p>");
        assert_eq!(outline(&doc), "(html(head(title'T')(meta))(body(p'b')))");
    }

    #[test]
    fn script_after_body_stays_in_body() {
        let doc = parse("<p>a</p><script>1<2</script>");
        assert_eq!(outline(&doc), "(html(head)(body(p'a')(script'1<2')))");
    }

    #[test]
    fn doctype_and_comment_at_root() {
        let doc = parse("<!DOCTYPE html><!-- c --><p>x</p>");
        let root_kinds: Vec<bool> =
            doc.children(Document::ROOT).map(|c| doc.is_element(c)).collect();
        // doctype, comment, html
        assert_eq!(root_kinds, vec![false, false, true]);
        assert_eq!(outline(&doc), "(html(head)(body(p'x')))");
    }

    #[test]
    fn adjacent_text_tokens_merged() {
        let doc = parse("<p>a&amp;b</p>");
        let p = doc.elements_by_tag("p")[0];
        let kids: Vec<NodeId> = doc.children(p).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.text(kids[0]), Some("a&b"));
    }

    #[test]
    fn dl_dt_dd_sequence() {
        let doc = parse("<dl><dt>t<dd>d<dt>t2</dl>");
        assert_eq!(outline(&doc), "(html(head)(body(dl(dt't')(dd'd')(dt't2'))))");
    }

    #[test]
    fn select_options() {
        let doc = parse("<select><option>a<option selected>b</select>");
        assert_eq!(outline(&doc), "(html(head)(body(select(option'a')(option'b'))))");
    }

    #[test]
    fn paper_figure4_fragment_shape() {
        // The left page of Figure 4 in the paper.
        let doc = parse(
            "<BODY><TR></TR><TR><TD>\
             <B>Runtime:</B> 108 min <BR>\
             <B>Country:</B> USA/UK <BR>\
             <B>Language:</B> English <BR>\
             </TD></TR></BODY>",
        );
        // TRs without a table survive as children of body (error tolerance,
        // matching the paper's abstracted markup).
        let body = doc.body().unwrap();
        let trs: Vec<&str> = doc.child_elements(body).map(|c| doc.tag_name(c).unwrap()).collect();
        assert_eq!(trs, vec!["tr", "tr"]);
        let td = doc.elements_by_tag("td")[0];
        assert!(doc.text_content(td).contains("108 min"));
    }
}
