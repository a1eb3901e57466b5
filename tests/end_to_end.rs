//! Cross-crate integration: the full Figure 1 pipeline on generated
//! corpora, repository round trips through extraction, and parallel vs
//! sequential equivalence.

use retroweb::cluster::{cluster_pages, purity, signature, ClusterParams, PageSignature};
use retroweb::html::parse;
use retroweb::retrozilla::{
    build_rules, extract_cluster_compiled, extract_cluster_html,
    extract_cluster_parallel_compiled_to, working_sample, ClusterRules, ClusterStore, CollectSink,
    RepositorySnapshot, ScenarioConfig, ShardedRepository, SimulatedUser, StructureNode,
};
use retroweb::sitegen::{mixed_corpus, movie, news, MovieSiteSpec, NewsSiteSpec, MOVIE_COMPONENTS};

#[test]
fn pipeline_clusters_then_extracts() {
    let corpus = mixed_corpus(42, 6);
    let sigs: Vec<PageSignature> =
        corpus.iter().map(|p| signature(&p.url, &parse(&p.html))).collect();
    let clusters = cluster_pages(&sigs, &ClusterParams::default());
    let labels: Vec<&str> = corpus.iter().map(|p| p.cluster.as_str()).collect();
    let members: Vec<Vec<usize>> = clusters.iter().map(|c| c.members.clone()).collect();
    assert!(purity(&members, &labels) >= 0.95);
    assert_eq!(clusters.len(), 3);
}

#[test]
fn movie_rules_survive_repository_round_trip_and_extract_identically() {
    let spec = MovieSiteSpec { n_pages: 12, seed: 77, ..Default::default() };
    let site = movie::generate(&spec);
    let sample = working_sample(&site, 8);
    let mut user = SimulatedUser::new();
    let reports = build_rules(MOVIE_COMPONENTS, &sample, &mut user, &ScenarioConfig::default());
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    for r in reports {
        assert!(r.ok, "{}", r.component);
        cluster.rules.push(r.rule);
    }
    cluster.structure = Some(vec![
        StructureNode::Component("title".into()),
        StructureNode::Group {
            name: "facts".into(),
            children: vec![
                StructureNode::Component("runtime".into()),
                StructureNode::Component("country".into()),
            ],
        },
        StructureNode::Component("genre".into()),
        StructureNode::Component("actor".into()),
        StructureNode::Component("director".into()),
        StructureNode::Component("aka".into()),
        StructureNode::Component("language".into()),
        StructureNode::Component("rating".into()),
    ]);

    // JSON round trip through the repository.
    let repo = ShardedRepository::new(1);
    repo.record(cluster.clone());
    let text = repo.snapshot().to_json().to_string_pretty();
    let restored = RepositorySnapshot::from_json(&retroweb::json::parse(&text).unwrap()).unwrap();
    let restored_cluster = restored.get("imdb-movies").unwrap().clone();
    assert_eq!(restored_cluster, cluster);

    // Both rule sets extract identical XML.
    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.url.clone(), p.html.clone())).collect();
    let a = extract_cluster_html(&cluster.compile(), &pages).xml.to_string_with(2);
    let b = extract_cluster_html(&restored_cluster.compile(), &pages).xml.to_string_with(2);
    assert_eq!(a, b);
}

#[test]
fn parallel_extraction_equals_sequential_on_news() {
    let spec = NewsSiteSpec { n_pages: 16, seed: 5, ..Default::default() };
    let site = news::generate(&spec);
    let sample = working_sample(&site, 8);
    let mut user = SimulatedUser::new();
    let reports = build_rules(
        &["headline", "date", "paragraph", "comment"],
        &sample,
        &mut user,
        &ScenarioConfig::default(),
    );
    let mut cluster = ClusterRules::new("ledger-articles", "article");
    for r in reports {
        assert!(r.ok, "{}", r.component);
        cluster.rules.push(r.rule);
    }
    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.url.clone(), p.html.clone())).collect();
    let compiled = cluster.compile();
    let parsed: Vec<(String, retroweb::html::Document)> =
        pages.iter().map(|(uri, html)| (uri.clone(), parse(html))).collect();
    let seq = extract_cluster_compiled(&compiled, &parsed);
    for threads in [1, 2, 3, 8] {
        let mut sink = CollectSink::new();
        extract_cluster_parallel_compiled_to(&compiled, &pages, threads, &mut sink).unwrap();
        let par = sink.into_result();
        assert_eq!(seq.xml.to_string_with(0), par.xml.to_string_with(0), "threads={threads}");
        assert_eq!(seq.failures, par.failures);
    }
}

#[test]
fn extraction_output_validates_against_ground_truth() {
    let spec =
        MovieSiteSpec { n_pages: 25, seed: 123, p_mixed_runtime: 0.25, ..Default::default() };
    let site = movie::generate(&spec);
    let sample = working_sample(&site, 10);
    let mut user = SimulatedUser::new();
    let reports = build_rules(MOVIE_COMPONENTS, &sample, &mut user, &ScenarioConfig::default());
    let rules: Vec<retroweb::retrozilla::MappingRule> =
        reports.into_iter().map(|r| r.rule).collect();
    let mut counts = retroweb::retrozilla::Counts::default();
    for page in &site.pages {
        let doc = parse(&page.html);
        let mut got = std::collections::BTreeMap::new();
        for rule in &rules {
            let values = rule.extract_values(&doc).unwrap();
            if !values.is_empty() {
                got.insert(rule.name.as_str().to_string(), values);
            }
        }
        counts.add(retroweb::retrozilla::page_counts(&got, &page.truth, MOVIE_COMPONENTS, false));
    }
    let prf = counts.prf();
    assert!(prf.f1 > 0.97, "{prf:?}");
}
