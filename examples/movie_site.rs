//! Full pipeline on a generated imdb-like site: clustering (Figure 1
//! step 1), rule building for all nine movie components (step 2), and
//! XML + XSD extraction with a-posteriori aggregation (step 3, §4).
//!
//! Run with: `cargo run --example movie_site`

use retroweb::cluster::{cluster_pages, signature, ClusterParams, PageSignature};
use retroweb::html::parse;
use retroweb::retrozilla::User;
use retroweb::retrozilla::{
    build_rules, extract_cluster_html, working_sample, ClusterRules, RepositorySnapshot,
    ScenarioConfig, SimulatedUser, StructureNode,
};
use retroweb::sitegen::{mixed_corpus, movie, MovieSiteSpec, MOVIE_COMPONENTS};

fn main() {
    // ---- Step 1: clustering -------------------------------------------------
    // A mixed crawl: movie pages, product pages, news pages.
    let corpus = mixed_corpus(7, 8);
    let sigs: Vec<PageSignature> =
        corpus.iter().map(|p| signature(&p.url, &parse(&p.html))).collect();
    let clusters = cluster_pages(&sigs, &ClusterParams::default());
    println!("Step 1 — clustering a {}-page crawl:", corpus.len());
    for c in &clusters {
        println!("  cluster \"{}\": {} pages", c.name, c.members.len());
    }

    // ---- Step 2: semantic analysis on the movie cluster ---------------------
    let spec = MovieSiteSpec { n_pages: 20, seed: 7, p_mixed_runtime: 0.2, ..Default::default() };
    let site = movie::generate(&spec);
    let sample = working_sample(&site, 10); // ~10 pages, per §3.1
    let mut user = SimulatedUser::new();
    let reports = build_rules(MOVIE_COMPONENTS, &sample, &mut user, &ScenarioConfig::default());

    println!("\nStep 2 — mapping rules over a {}-page working sample:", sample.len());
    println!(
        "  {:<10} {:>3} {:<11} {:<13} {:<6}  strategies",
        "component", "it", "optionality", "multiplicity", "format"
    );
    for r in &reports {
        println!(
            "  {:<10} {:>3} {:<11} {:<13} {:<6}  {}",
            r.component,
            r.iterations,
            r.rule.optionality.to_string(),
            r.rule.multiplicity.to_string(),
            r.rule.format.to_string(),
            if r.strategies.is_empty() {
                "(candidate was valid)".to_string()
            } else {
                r.strategies.join("; ")
            }
        );
        assert!(r.ok, "{} failed", r.component);
    }
    let stats = user.stats();
    println!(
        "  user effort: {} selections + {} interpretations + {} validations = {} interactions",
        stats.selections,
        stats.interpretations,
        stats.validations,
        stats.total()
    );

    // Record in the repository with an aggregated structure (§4): the
    // people-related leaves nest under a `credits` group.
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    for r in reports {
        cluster.rules.push(r.rule);
    }
    cluster.structure = Some(vec![
        StructureNode::Component("title".into()),
        StructureNode::Component("aka".into()),
        StructureNode::Component("runtime".into()),
        StructureNode::Component("country".into()),
        StructureNode::Component("language".into()),
        StructureNode::Component("rating".into()),
        StructureNode::Component("genre".into()),
        StructureNode::Group {
            name: "credits".into(),
            children: vec![
                StructureNode::Component("director".into()),
                StructureNode::Component("actor".into()),
            ],
        },
    ]);
    let repo: RepositorySnapshot = std::iter::once(cluster.clone()).collect();
    let repo_path = std::env::temp_dir().join("retrozilla-movie-rules.json");
    repo.save(&repo_path).expect("save repository");
    println!("\n  rules recorded to {}", repo_path.display());

    // ---- Step 3: extraction over the whole cluster --------------------------
    let all_pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.url.clone(), p.html.clone())).collect();
    let result = extract_cluster_html(&cluster.compile(), &all_pages);
    println!("\nStep 3 — extraction over {} pages:", all_pages.len());
    println!("  failures detected: {}", result.failures.len());
    let xml = result.xml.to_string_with(2);
    let first_movie_end =
        xml.match_indices("</imdb-movie>").next().map(|(i, m)| i + m.len()).unwrap_or(xml.len());
    println!("  first extracted record:\n");
    for line in xml[..first_movie_end].lines().skip(2) {
        println!("    {line}");
    }
    println!("\n  XML Schema:\n");
    for line in result.schema.to_xsd().to_string_with(2).lines() {
        println!("    {line}");
    }
}
