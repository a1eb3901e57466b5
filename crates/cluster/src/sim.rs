//! Similarity metrics between page signatures.

use crate::signature::PageSignature;
use std::collections::HashMap;
use std::hash::Hash;

/// Cosine similarity between two sparse count vectors. Two empty
/// vectors count as identical (1.0) so that a feature absent from both
/// pages does not drag the combined similarity down.
pub fn cosine<K: Eq + Hash>(a: &HashMap<K, u32>, b: &HashMap<K, u32>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut dot = 0.0f64;
    for (k, &va) in a {
        if let Some(&vb) = b.get(k) {
            dot += va as f64 * vb as f64;
        }
    }
    let na: f64 = a.values().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Jaccard similarity between two token lists (as sets).
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::HashSet<&String> = a.iter().collect();
    let sb: std::collections::HashSet<&String> = b.iter().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// LCS-based similarity of two tag sequences: `2·LCS / (|a| + |b|)`.
pub fn sequence_similarity(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // Rolling one-row LCS table.
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for ai in a {
        for (j, bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj { prev[j] + 1 } else { cur[j].max(prev[j + 1]) };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let lcs = prev[b.len()] as f64;
    2.0 * lcs / (a.len() + b.len()) as f64
}

/// Weights for the combined heuristic (the paper: "most often, several
/// techniques are used in parallel … to improve the accuracy").
#[derive(Clone, Copy, Debug)]
pub struct SimilarityWeights {
    pub structure: f64,
    pub url: f64,
    pub sequence: f64,
    pub keywords: f64,
}

impl Default for SimilarityWeights {
    fn default() -> Self {
        SimilarityWeights { structure: 0.45, url: 0.25, sequence: 0.2, keywords: 0.1 }
    }
}

/// Combined page similarity in `[0, 1]`. Pages from different hosts score
/// 0 (the paper's first clustering condition: same Web site).
pub fn page_similarity(a: &PageSignature, b: &PageSignature, w: &SimilarityWeights) -> f64 {
    if a.host != b.host {
        return 0.0;
    }
    let total = w.structure + w.url + w.sequence + w.keywords;
    if total == 0.0 {
        return 0.0;
    }
    let s = w.structure * cosine(&a.path_shingles, &b.path_shingles)
        + w.url * jaccard(&a.url_tokens, &b.url_tokens)
        + w.sequence * sequence_similarity(&a.tag_sequence, &b.tag_sequence)
        + w.keywords * cosine(&a.keywords, &b.keywords);
    s / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::signature;
    use retroweb_html::parse;

    fn sig(url: &str, html: &str) -> PageSignature {
        signature(url, &parse(html))
    }

    #[test]
    fn cosine_bounds() {
        let mut a = HashMap::new();
        a.insert("x", 2u32);
        a.insert("y", 1);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        let empty: HashMap<&str, u32> = HashMap::new();
        assert_eq!(cosine(&a, &empty), 0.0);
        assert_eq!(cosine(&empty, &empty), 1.0);
        let mut b = HashMap::new();
        b.insert("z", 5u32);
        assert_eq!(cosine(&a, &b), 0.0);
    }

    #[test]
    fn jaccard_cases() {
        let a = vec!["title".to_string(), "tt#".to_string()];
        let b = vec!["title".to_string(), "tt#".to_string()];
        assert_eq!(jaccard(&a, &b), 1.0);
        let c = vec!["name".to_string(), "nm#".to_string()];
        assert_eq!(jaccard(&a, &c), 0.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn lcs_similarity() {
        let a: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = ["a", "x", "c"].iter().map(|s| s.to_string()).collect();
        assert!((sequence_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert!((sequence_similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(sequence_similarity(&a, &[]), 0.0);
    }

    #[test]
    fn same_template_pages_are_similar() {
        let a = sig(
            "http://m.org/title/tt1/",
            "<body><table><tr><td>Runtime:</td><td>90 min</td></tr></table></body>",
        );
        let b = sig(
            "http://m.org/title/tt2/",
            "<body><table><tr><td>Runtime:</td><td>101 min</td></tr></table></body>",
        );
        let c = sig(
            "http://m.org/search?q=x",
            "<body><ul><li><a href=\"/title/tt1\">one</a></li><li><a href=\"x\">two</a></li></ul></body>",
        );
        let w = SimilarityWeights::default();
        let sim_ab = page_similarity(&a, &b, &w);
        let sim_ac = page_similarity(&a, &c, &w);
        assert!(sim_ab > 0.9, "{sim_ab}");
        assert!(sim_ac < 0.5, "{sim_ac}");
        assert!(sim_ab > sim_ac);
    }

    #[test]
    fn different_hosts_score_zero() {
        let a = sig("http://a.org/x", "<body><p>t</p></body>");
        let b = sig("http://b.org/x", "<body><p>t</p></body>");
        assert_eq!(page_similarity(&a, &b, &SimilarityWeights::default()), 0.0);
    }
}
