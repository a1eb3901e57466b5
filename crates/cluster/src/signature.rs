//! Page signatures: the features the clustering heuristics run on.
//!
//! §2.1 of the paper defines page clusters by three intuitive criteria —
//! same site, same concept, close HTML structure — and cites URL analysis,
//! tag periodicity and keyword frequency as practical techniques. A
//! [`PageSignature`] captures all three views of a page.

use retroweb_html::{Document, NodeData, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// Cap on the pre-order tag sequence length kept per page (quadratic
/// alignment cost downstream).
const TAG_SEQUENCE_CAP: usize = 300;

/// Structural and lexical features of one page.
#[derive(Clone, Debug)]
pub struct PageSignature {
    /// Host part of the URL (same-site condition).
    pub host: String,
    /// Normalised URL path tokens (digits collapsed to `#`).
    pub url_tokens: Vec<String>,
    /// Tag → count over the whole document.
    pub tag_histogram: BTreeMap<String, u32>,
    /// Hashed root-to-element tag paths → count (structural shingles).
    pub path_shingles: HashMap<u64, u32>,
    /// Pre-order tag sequence, capped at `TAG_SEQUENCE_CAP`.
    pub tag_sequence: Vec<String>,
    /// Lower-cased word → count over visible text (keyword condition).
    pub keywords: HashMap<String, u32>,
}

/// Build a signature from a URL and parsed document.
pub fn signature(url: &str, doc: &Document) -> PageSignature {
    let (host, url_tokens) = tokenize_url(url);
    let mut tag_histogram = BTreeMap::new();
    let mut path_shingles = HashMap::new();
    let mut tag_sequence = Vec::new();
    let mut keywords = HashMap::new();

    let mut path: Vec<&str> = Vec::new();
    collect(
        doc,
        doc.root(),
        &mut path,
        &mut tag_histogram,
        &mut path_shingles,
        &mut tag_sequence,
        &mut keywords,
    );

    PageSignature { host, url_tokens, tag_histogram, path_shingles, tag_sequence, keywords }
}

fn collect<'d>(
    doc: &'d Document,
    node: NodeId,
    path: &mut Vec<&'d str>,
    histogram: &mut BTreeMap<String, u32>,
    shingles: &mut HashMap<u64, u32>,
    sequence: &mut Vec<String>,
    keywords: &mut HashMap<String, u32>,
) {
    match &doc.node(node).data {
        NodeData::Element(el) => {
            *histogram.entry(el.name.clone()).or_insert(0) += 1;
            if sequence.len() < TAG_SEQUENCE_CAP {
                sequence.push(el.name.clone());
            }
            path.push(el.name.as_str());
            let mut hasher = DefaultHasher::new();
            path.hash(&mut hasher);
            *shingles.entry(hasher.finish()).or_insert(0) += 1;
            let mut child = doc.first_child(node);
            while let Some(c) = child {
                collect(doc, c, path, histogram, shingles, sequence, keywords);
                child = doc.next_sibling(c);
            }
            path.pop();
        }
        NodeData::Text(text) => {
            for word in text.split(|c: char| !c.is_alphanumeric()) {
                if word.len() >= 3 {
                    *keywords.entry(word.to_ascii_lowercase()).or_insert(0) += 1;
                }
            }
        }
        NodeData::Document => {
            let mut child = doc.first_child(node);
            while let Some(c) = child {
                collect(doc, c, path, histogram, shingles, sequence, keywords);
                child = doc.next_sibling(c);
            }
        }
        _ => {}
    }
}

/// Split a URL into host and normalised path tokens. Digit runs collapse
/// to `#`, so `/title/tt0095159/` and `/title/tt0071853/` produce
/// identical token lists — the simple URL-pattern condition of ref. \[7\] in the paper.
pub fn tokenize_url(url: &str) -> (String, Vec<String>) {
    let rest = url.strip_prefix("http://").or_else(|| url.strip_prefix("https://")).unwrap_or(url);
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, ""),
    };
    let tokens = path
        .split(|c: char| "/?=&.-_".contains(c))
        .filter(|t| !t.is_empty())
        .map(normalize_token)
        .collect();
    (host.to_string(), tokens)
}

fn normalize_token(t: &str) -> String {
    let mut out = String::with_capacity(t.len());
    let mut in_digits = false;
    for c in t.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            out.push(c.to_ascii_lowercase());
            in_digits = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroweb_html::parse;

    #[test]
    fn url_tokens_collapse_ids() {
        let (host, a) = tokenize_url("http://movies.example.org/title/tt0095159/");
        let (_, b) = tokenize_url("http://movies.example.org/title/tt0071853/");
        assert_eq!(host, "movies.example.org");
        assert_eq!(a, vec!["title", "tt#"]);
        assert_eq!(a, b);
    }

    #[test]
    fn url_tokens_distinguish_sections() {
        let (_, a) = tokenize_url("http://x.org/title/tt1/");
        let (_, b) = tokenize_url("http://x.org/name/nm1/");
        assert_ne!(a, b);
    }

    #[test]
    fn histogram_counts_tags() {
        let doc = parse("<body><table><tr><td>a</td><td>b</td></tr></table></body>");
        let sig = signature("http://x.org/p", &doc);
        assert_eq!(sig.tag_histogram["td"], 2);
        assert_eq!(sig.tag_histogram["tr"], 1);
        assert_eq!(sig.tag_histogram["table"], 1);
    }

    #[test]
    fn shingles_distinguish_structure() {
        let a = parse("<body><table><tr><td>x</td></tr></table></body>");
        let b = parse("<body><div><p>x</p></div></body>");
        let sa = signature("http://x.org/a", &a);
        let sb = signature("http://x.org/b", &b);
        let common = sa.path_shingles.keys().filter(|k| sb.path_shingles.contains_key(k)).count();
        // Only the html/head/body skeleton paths coincide.
        assert!(common <= 3, "{common}");
    }

    #[test]
    fn keywords_collected_lowercase() {
        let doc = parse("<body><p>Runtime runtime RUNTIME ab</p></body>");
        let sig = signature("http://x.org/p", &doc);
        assert_eq!(sig.keywords["runtime"], 3);
        assert!(!sig.keywords.contains_key("ab")); // < 3 chars
    }

    #[test]
    fn tag_sequence_capped() {
        let mut html = String::from("<body>");
        for _ in 0..500 {
            html.push_str("<p>x</p>");
        }
        html.push_str("</body>");
        let doc = parse(&html);
        let sig = signature("http://x.org/p", &doc);
        assert_eq!(sig.tag_sequence.len(), 300);
    }
}
