//! Experiment F5 — reproduce **Figure 5**: the generated XML document for
//! the imdb-movies cluster, "assuming that only the runtime component has
//! been defined".

use retroweb_bench::write_experiment;
use retroweb_json::Json;
use retroweb_sitegen::paper::paper_working_sample;
use retrozilla::{
    build_rule, extract_cluster_html, sample_from_pages, ClusterRules, ScenarioConfig,
    SimulatedUser,
};

fn main() {
    let pages = paper_working_sample();
    let sample = sample_from_pages(pages.clone());
    let mut user = SimulatedUser::new();
    let report = build_rule("runtime", &sample, &mut user, &ScenarioConfig::default()).unwrap();
    assert!(report.ok);

    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    cluster.rules.push(report.rule);
    let sources: Vec<(String, String)> = pages
        .iter()
        .map(|p| (format!("http://imdb.com{}", p.url.trim_start_matches('.')), p.html.clone()))
        .collect();
    let result = extract_cluster_html(&cluster.compile(), &sources);
    let xml = result.xml.to_string_with(0);

    println!("Figure 5. Example of a generated XML document\n");
    print!("{xml}");

    // Byte-shape fidelity with the figure.
    let expected = "<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n\
        <imdb-movies>\n\
        <imdb-movie uri=\"http://imdb.com/title/tt0095159/\">\n\
        <runtime>108 min</runtime>\n\
        </imdb-movie>\n\
        <imdb-movie uri=\"http://imdb.com/title/tt0071853/\">\n\
        <runtime>91 min</runtime>\n\
        </imdb-movie>\n\
        <imdb-movie uri=\"http://imdb.com/title/tt0074103/\">\n\
        <runtime>104 min</runtime>\n\
        </imdb-movie>\n\
        <imdb-movie uri=\"http://imdb.com/title/tt0102059/\">\n\
        <runtime>84 min</runtime>\n\
        </imdb-movie>\n\
        </imdb-movies>\n";
    assert_eq!(xml, expected, "XML diverges from Figure 5");
    assert!(result.failures.is_empty());
    println!("\nShape check vs paper: document matches Figure 5 line for line  ✓");

    write_experiment(
        "figure5_xml",
        &Json::object(vec![
            ("experiment".into(), Json::from("figure5")),
            ("xml".into(), Json::from(xml)),
            ("matches_paper".into(), Json::Bool(true)),
        ]),
    );
}
