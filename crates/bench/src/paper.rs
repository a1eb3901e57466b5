//! The paper's experiments, one function each.
//!
//! Every function prints its paper-style rows on stdout, asserts the
//! experiment's shape check against the paper, and returns its JSON
//! record. [`EXPERIMENTS`] lists them by name; the `paper` binary runs
//! them and rewrites [`RECORD_PATH`], and `tests/paper.rs` runs each one
//! and compares its record with the committed entry. Every experiment is
//! seeded, so a record only moves when extraction quality does.

use crate::{
    build_movie_rules, evaluate_extractions, evaluate_rules, f3, map_roadrunner_fields, mean,
    page_values,
};
use retroweb_baselines::{Extractor, LrWrapper, LrWrapperSet, RoadRunnerWrapper};
use retroweb_cluster::{
    cluster_pages, page_similarity, pairwise_f1, purity, rand_index, signature, ClusterParams,
    PageSignature, SimilarityWeights,
};
use retroweb_html::parse;
use retroweb_json::Json;
use retroweb_sitegen::paper::{figure4_pages, paper_working_sample, AKA_VALUE, TABLE3_RUNTIMES};
use retroweb_sitegen::{
    drift_movie, mixed_corpus, movie, Drift, Layout, MovieSiteSpec, Page, MOVIE_COMPONENTS,
};
use retroweb_xpath::builder::precise_path;
use retroweb_xpath::generalize::{context_label, with_context_predicate, ContextDirection};
use retroweb_xpath::{normalize_space, parse as xparse, parse_lenient, Engine, Expr};
use retrozilla::{
    build_rule, build_rules, check_rule, extract_cluster_html, repair_rules, sample_from_pages,
    working_sample, ClusterRules, ComponentName, Format, MappingRule, Outcome, Prf, RefineConfig,
    ScenarioConfig, SimulatedUser, StructureNode, User,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// An experiment: prints its rows, asserts its shape check and returns
/// its record.
pub type Experiment = fn() -> Json;

/// Every experiment by name, in the order the `paper` binary runs them
/// and [`RECORD_PATH`] lists them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("figure1", figure1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("figure4", figure4),
    ("figure5", figure5),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("e6_convergence", e6_convergence),
    ("e7_depth", e7_depth),
    ("e8_baselines", e8_baselines),
    ("e9_recovery", e9_recovery),
    ("ea_ablation", ea_ablation),
];

/// The committed record of every experiment, keyed by name.
pub const RECORD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");

/// The committed records, or an empty object when the file is missing.
pub fn committed() -> Json {
    match std::fs::read_to_string(RECORD_PATH) {
        Ok(text) => retroweb_json::parse(&text).expect("BENCH_paper.json is valid JSON"),
        Err(_) => Json::object(Vec::new()),
    }
}

fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Mean precision, recall and F1.
fn mean_prf(prfs: &[Prf]) -> (f64, f64, f64) {
    let of = |f: fn(&Prf) -> f64| mean(&prfs.iter().map(f).collect::<Vec<_>>());
    (of(|p| p.precision), of(|p| p.recall), of(|p| p.f1))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A series point: its key, then precision, recall and F1.
fn prf_record(key: (&str, Json), (p, r, f1): (f64, f64, f64)) -> Json {
    obj([key, ("precision", p.into()), ("recall", r.into()), ("f1", f1.into())])
}

/// F1 — **Figure 1**, the three-step pipeline: (1) a mixed crawl is
/// partitioned into page clusters; (2) mapping rules are built per
/// cluster with the simulated user; (3) rules drive the extraction
/// towards XML. Reports clustering and end-to-end extraction quality.
pub fn figure1() -> Json {
    let corpus = mixed_corpus(11, 10);
    let sigs: Vec<PageSignature> =
        corpus.iter().map(|p| signature(&p.url, &parse(&p.html))).collect();
    let clusters = cluster_pages(&sigs, &ClusterParams::default());
    let labels: Vec<&str> = corpus.iter().map(|p| p.cluster.as_str()).collect();
    let members: Vec<Vec<usize>> = clusters.iter().map(|c| c.members.clone()).collect();
    let pur = purity(&members, &labels);
    let ri = rand_index(&members, &labels);
    let (cp, cr, cf1) = pairwise_f1(&members, &labels);

    println!("Figure 1. Overview of our approach — pipeline run\n");
    println!("(1) Clustering a {}-page crawl into page clusters:", corpus.len());
    for c in &clusters {
        println!("    cluster \"{}\" — {} pages", c.name, c.members.len());
    }
    println!(
        "    quality: purity={} rand-index={} pairwise P/R/F1={}/{}/{}",
        f3(pur),
        f3(ri),
        f3(cp),
        f3(cr),
        f3(cf1)
    );
    assert!(pur >= 0.95, "clustering must be essentially pure, got {pur}");

    let mut cluster_records = Vec::new();
    println!("\n(2)+(3) Semantic analysis and extraction per cluster:");
    for c in &clusters {
        let pages: Vec<Page> = c.members.iter().map(|&i| corpus[i].clone()).collect();
        // Majority ground-truth label decides which targets to extract.
        let mut counts = BTreeMap::new();
        for p in &pages {
            *counts.entry(p.cluster.clone()).or_insert(0usize) += 1;
        }
        let majority = counts.into_iter().max_by_key(|(_, n)| *n).map(|(l, _)| l).unwrap();
        let components: &[&str] = match majority.as_str() {
            "imdb-movies" => &["title", "runtime", "country", "genre", "actor"],
            "shop-products" => &["name", "price", "sku", "feature"],
            "ledger-articles" => &["headline", "date", "paragraph", "comment"],
            _ => continue,
        };
        let sample = sample_from_pages(pages.iter().take(6).cloned().collect());
        let mut user = SimulatedUser::new();
        let reports = build_rules(components, &sample, &mut user, &ScenarioConfig::default());
        let rules: Vec<MappingRule> = reports.iter().map(|r| r.rule.clone()).collect();
        let prf = evaluate_rules(&rules, &pages, components);
        println!(
            "    \"{}\" ({}): {} rules, {} interactions, extraction F1={} over {} pages",
            c.name,
            majority,
            rules.len(),
            user.stats().total(),
            f3(prf.f1),
            pages.len()
        );
        assert!(prf.f1 > 0.9, "cluster {majority} extraction too weak: {prf:?}");
        cluster_records.push(obj([
            ("cluster", majority.into()),
            ("pages", pages.len().into()),
            ("rules", rules.len().into()),
            ("interactions", user.stats().total().into()),
            ("f1", prf.f1.into()),
        ]));
    }
    println!("\nShape check vs paper: 3 clusters → rules → XML, all extractions ≥0.9 F1  ✓");
    obj([
        ("purity", pur.into()),
        ("rand_index", ri.into()),
        ("clusters", Json::Array(cluster_records)),
    ])
}

/// F2 — **Figure 2**, "Two pages of the imdb-movies cluster": two pages
/// that display instances of the same concept with a close HTML
/// structure, i.e. that satisfy the §2.1 cluster criteria.
pub fn figure2() -> Json {
    let sample = paper_working_sample();
    let (a, c) = (&sample[0], &sample[2]);

    println!("Figure 2. Two pages of the \"imdb-movies\" cluster\n");
    for page in [a, c] {
        println!("--- {} ---", page.url);
        for line in page.html.lines().take(12) {
            println!("  {line}");
        }
        println!();
    }

    let sig = |p: &Page| {
        signature(&format!("http://imdb.com{}", p.url.trim_start_matches('.')), &parse(&p.html))
    };
    let (sig_a, sig_c) = (sig(a), sig(c));
    let weights = SimilarityWeights::default();
    let sim = page_similarity(&sig_a, &sig_c, &weights);

    println!("Cluster criteria (§2.1):");
    println!("  same Web site (host)     : {}", sig_a.host == sig_c.host);
    println!("  same URL pattern         : {:?} == {:?}", sig_a.url_tokens, sig_c.url_tokens);
    println!("  structural similarity    : {}", f3(sim));
    assert_eq!(sig_a.host, sig_c.host);
    assert_eq!(sig_a.url_tokens, sig_c.url_tokens);
    assert!(sim > 0.8, "same-cluster pages must be structurally close, got {sim}");

    // And a page from a different concept scores much lower.
    let foreign = retroweb_sitegen::products::generate(&retroweb_sitegen::ProductSiteSpec {
        n_pages: 1,
        seed: 1,
        ..Default::default()
    })
    .pages
    .remove(0);
    let sig_f = signature(&foreign.url, &parse(&foreign.html));
    let sim_foreign = page_similarity(&sig_a, &sig_f, &weights);
    println!("  vs a product page        : {}", f3(sim_foreign));
    assert!(sim_foreign < sim);

    println!("\nShape check vs paper: the two pages satisfy all three cluster criteria  ✓");
    obj([("similarity", sim.into()), ("foreign_similarity", sim_foreign.into())])
}

/// F3 — **Figure 3**, the mapping-rules building scenario, traced: for
/// every movie component, candidate building → checking → refinement
/// loop → recording, with iteration counts and the strategies taken on
/// each exit from the "Rule for C is OK?" decision.
pub fn figure3() -> Json {
    let spec = MovieSiteSpec {
        n_pages: 12,
        seed: 2006,
        p_aka: 0.35,
        p_missing_runtime: 0.2,
        p_missing_language: 0.3,
        p_mixed_runtime: 0.25,
        ..Default::default()
    };
    let (reports, stats, sample) = build_movie_rules(&spec, 10, MOVIE_COMPONENTS);

    println!(
        "Figure 3. Mapping rules building scenario — trace over a {}-page sample\n",
        sample.len()
    );
    println!(
        "{:<10} {:>10} {:>6} {:<11} {:<13} {:<6}  refinement path",
        "component", "candidate", "iters", "optionality", "multiplicity", "format"
    );
    let mut records = Vec::new();
    for r in &reports {
        let initial_fail = r.initial_table.failure_count();
        println!(
            "{:<10} {:>7}/{:<2} {:>6} {:<11} {:<13} {:<6}  {}",
            r.component,
            sample.len() - initial_fail,
            sample.len(),
            r.iterations,
            r.rule.optionality.to_string(),
            r.rule.multiplicity.to_string(),
            r.rule.format.to_string(),
            if r.strategies.is_empty() {
                "candidate OK → record".to_string()
            } else {
                r.strategies.join(" → ")
            }
        );
        assert!(r.ok, "{} did not converge", r.component);
        records.push(obj([
            ("component", r.component.as_str().into()),
            ("iterations", r.iterations.into()),
            ("initial_failures", initial_fail.into()),
            ("strategies", r.strategies.clone().into()),
        ]));
    }
    println!(
        "\nUser effort for the whole cluster: {} selections + {} interpretations + {} validations",
        stats.selections, stats.interpretations, stats.validations
    );
    println!("Shape check vs paper: every component exits the loop with a valid recorded rule  ✓");
    obj([
        ("components", Json::Array(records)),
        ("selections", stats.selections.into()),
        ("interpretations", stats.interpretations.into()),
        ("validations", stats.validations.into()),
    ])
}

/// F4 — **Figure 4**, using contextual information: the candidate XPath
/// built on the runtime-first page matches the wrong item on the
/// AKA-shifted page, and the refined expression (Table 2 row b's role)
/// selects the right value in both.
pub fn figure4() -> Json {
    let (left, right) = figure4_pages();
    let left_doc = parse(&left.html);
    let right_doc = parse(&right.html);

    // Selection on the left page: the user points at "108 min".
    let selection = SimulatedUser::find_value_node(&left_doc, "108 min").unwrap();
    let candidate = precise_path(&left_doc, selection).unwrap();
    println!("Figure 4. Using contextual information\n");
    println!("candidate XPath (from selection on the left page):");
    println!("  {candidate}\n");

    let wrong =
        Engine::new(&right_doc).select(&Expr::Path(candidate.clone()), right_doc.root()).unwrap();
    let wrong_text = normalize_space(right_doc.text(wrong[0]).unwrap_or(""));
    println!("applied to the right page it matches the WRONG item:");
    println!("  \"{wrong_text}\"\n");
    assert!(wrong_text.contains("The Wing and the Thigh"));

    // Refinement: the constant string before the value is "Runtime:".
    let label = context_label(&left_doc, selection, ContextDirection::Before).unwrap();
    assert_eq!(label, "Runtime:");
    // Strip the position where the shift occurs (the TR level) and anchor
    // on the label.
    let tr_step = candidate.steps.len() - 3;
    let refined = with_context_predicate(&candidate, tr_step, &label, ContextDirection::Before);
    println!("refined XPath (erroneous position replaced by a predicate on the");
    println!("preceding constant string \"{label}\"):");
    println!("  {refined}\n");

    let mut results = Vec::new();
    for (name, doc, want) in [("left", &left_doc, "108 min"), ("right", &right_doc, "104 min")] {
        let hits = Engine::new(doc).select(&Expr::Path(refined.clone()), doc.root()).unwrap();
        assert_eq!(hits.len(), 1);
        let got = normalize_space(doc.text(hits[0]).unwrap());
        println!("  on the {name} page it now selects: \"{got}\"");
        assert_eq!(got, want);
        results.push(obj([("page", name.into()), ("value", got.into())]));
    }
    println!("\nShape check vs paper: right component values selected in all pages  ✓");
    obj([
        ("candidate", candidate.to_string().into()),
        ("label", label.into()),
        ("refined", refined.to_string().into()),
        ("results", Json::Array(results)),
    ])
}

/// F5 — **Figure 5**, the generated XML document for the imdb-movies
/// cluster, "assuming that only the runtime component has been defined".
pub fn figure5() -> Json {
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
    // An external agent can consume the document with a strict reader.
    let root = retroweb_xml::parse_xml(&xml).unwrap();
    assert_eq!(root.children_named("imdb-movie").count(), 4);
    println!("\nShape check vs paper: document matches Figure 5 line for line  ✓");
    obj([("xml", xml.into())])
}

/// T1 — **Table 1**, candidate-rule checking for `runtime` over the
/// four-page working sample: rows a and b correct, row c matches the
/// "Also Known As" text (wrong value), row d matches nothing (void).
pub fn table1() -> Json {
    let sample = sample_from_pages(paper_working_sample());
    // The candidate rule of §3.2/§3.4 (display form BODY//TR[6]/TD[1]/text()[1]).
    let candidate = MappingRule::candidate(
        ComponentName::new("runtime").unwrap(),
        xparse("/HTML[1]/BODY[1]/TABLE[1]/TR[6]/TD[1]/text()[1]").unwrap(),
        Format::Text,
    );
    let table = check_rule(&candidate, &sample);

    println!("Table 1. Candidate rule checking for component \"runtime\"");
    println!("(location: BODY//TR[6]/TD[1]/text()[1])\n");
    print!("{}", table.render());

    let expected = [
        ("108 min", Outcome::Correct),
        ("91 min", Outcome::Correct),
        (AKA_VALUE, Outcome::Wrong),
        ("-", Outcome::Void),
    ];
    assert_eq!(table.rows.len(), expected.len());
    let mut rows = Vec::new();
    for (row, (want, outcome)) in table.rows.iter().zip(expected) {
        let got = row.display_value();
        assert_eq!(got, want, "row {} diverges from the paper", row.uri);
        assert_eq!(row.outcome, outcome, "row {} diverges from the paper", row.uri);
        rows.push(obj([
            ("uri", row.uri.as_str().into()),
            ("value", got.into()),
            ("outcome", format!("{:?}", row.outcome).into()),
        ]));
    }
    println!("\nShape check vs paper: correct / correct / wrong-value / void  ✓");
    obj([("component", "runtime".into()), ("rows", Json::Array(rows))])
}

/// T2 — **Table 2**, the gallery of valid XPath expressions (rows a–f),
/// evaluated on documents shaped like the paper's.
///
/// Row b's informal predicate
/// (`ancestor-or-self/preceding-sibling//text()[contains("Runtime:")]`)
/// over-selects under strict XPath semantics: every text node *after*
/// the label also has it among its preceding siblings. The row's intent,
/// anchoring on the preceding constant string, is what refinement
/// generates as a nearest-preceding-text predicate, shown as row b'.
pub fn table2() -> Json {
    // Rows a/b run on the paper's page c (the AKA-shifted page); rows c–f
    // run on a 20-row table document.
    let sample = paper_working_sample();
    let page_c = parse(&sample[2].html);
    let mut rows_html = String::from("<html><body><p>heading</p><table>");
    for i in 1..=20 {
        rows_html.push_str(&format!("<tr><td>label {i}</td><td>value {i}</td></tr>"));
    }
    rows_html.push_str("</table></body></html>");
    let table_doc = parse(&rows_html);

    let gallery: [(&str, &str, &retroweb_html::Document); 7] = [
        ("a", "BODY//TR[6]/TD[1]/text()[1]", &page_c),
        (
            "b",
            "BODY//TR[6]/TD[1]/text()[ancestor-or-self/preceding-sibling//text()[contains(\"Runtime:\")]]",
            &page_c,
        ),
        (
            "b'",
            "BODY//TR[6]/TD[1]/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]",
            &page_c,
        ),
        ("c", "BODY//TABLE[1]/TR[1]", &table_doc),
        ("d", "BODY//TABLE[1]/TR[position()>=1]", &table_doc),
        ("e", "BODY//TABLE[1]/TR[2]/TD[2]/text()", &table_doc),
        ("f", "BODY//TABLE[1]/TR[17]/TD[2]/text()", &table_doc),
    ];

    println!("Table 2. Examples of valid XPath expressions\n");
    let mut records = Vec::new();
    let mut hits_by_row = Vec::new();
    for (row, xpath, doc) in gallery {
        // Row b uses the paper's lenient notation; the rest are standard.
        let expr = parse_lenient(xpath).unwrap_or_else(|e| panic!("row {row}: {e}"));
        // The paper's BODY-relative display evaluates from the HTML
        // element, where BODY is a child step.
        let hits = Engine::new(doc).select(&expr, doc.html_element().unwrap()).unwrap();
        let first = hits
            .first()
            .map(|&n| normalize_space(&doc.text_content(n)))
            .unwrap_or_else(|| "(void)".to_string());
        let first_short =
            if first.len() > 42 { format!("{}…", &first[..42]) } else { first.clone() };
        println!("{row:>2}. {xpath}");
        println!("      → {} node(s); first: \"{first_short}\"\n", hits.len());
        records.push(obj([
            ("row", row.into()),
            ("xpath", xpath.into()),
            ("selected", hits.len().into()),
        ]));
        hits_by_row.push((hits.len(), first));
    }

    // Semantics the table illustrates:
    assert_eq!(hits_by_row[0].0, 1, "row a selects one (wrong) text node");
    assert!(hits_by_row[0].1.contains("The Wing"), "row a matches the AKA text");
    assert!(hits_by_row[1].0 >= 1, "row b anchors on the label");
    assert_eq!(hits_by_row[1].1, "104 min", "row b's first match is the runtime");
    assert_eq!(hits_by_row[2].0, 1, "row b' (our refinement) selects exactly one node");
    assert_eq!(hits_by_row[2].1, "104 min");
    assert_eq!(hits_by_row[3].0, 1, "row c selects the first row only");
    assert_eq!(hits_by_row[4].0, 20, "row d selects every row");
    assert_eq!(hits_by_row[5].0, 1, "row e selects the 2nd row's value");
    assert!(hits_by_row[5].1.contains("value 2"));
    assert_eq!(hits_by_row[6].0, 1, "row f selects the 17th row's value");
    assert!(hits_by_row[6].1.contains("value 17"));
    println!("Semantics checks (a:wrong, b:label-anchored, b':exact-1, c:1, d:20, e:1, f:1)  ✓");
    obj([("rows", Json::Array(records))])
}

/// T3 — **Table 3**, rule checking after refinement: the semi-automated
/// loop (candidate → check → refine) on the paper's sample ends at
/// 108 / 91 / 104 / 84 min, through contextual information.
pub fn table3() -> Json {
    let sample = sample_from_pages(paper_working_sample());
    let mut user = SimulatedUser::new();
    let report = build_rule("runtime", &sample, &mut user, &ScenarioConfig::default())
        .expect("runtime component exists");

    println!("Table 3. Rule checking after rule refinement\n");
    print!("{}", report.final_table.render());
    println!("\nRefinements applied: {}", report.strategies.join("; "));
    println!("Refined location   : {}", report.rule.location_display());

    assert!(report.ok, "refinement must converge on the paper sample");
    // Refinement used contextual information, as in Figure 4.
    assert!(report.strategies.iter().any(|s| s.contains("Runtime:")), "{:?}", report.strategies);
    assert_eq!(report.final_table.rows.len(), TABLE3_RUNTIMES.len());
    let mut rows = Vec::new();
    for (row, want) in report.final_table.rows.iter().zip(TABLE3_RUNTIMES) {
        assert_eq!(row.display_value(), want, "{} diverges from Table 3", row.uri);
        rows.push(obj([("uri", row.uri.as_str().into()), ("value", row.display_value().into())]));
    }
    println!("\nShape check vs paper: all four rows correct  ✓");
    obj([
        ("strategies", report.strategies.clone().into()),
        ("location", report.rule.location_display().into()),
        ("rows", Json::Array(rows)),
    ])
}

/// T4 — **Table 4**, the main features of Retrozilla in the Laender et
/// al. taxonomy, each qualitative cell backed by a measurement or a
/// demonstration from this reproduction.
pub fn table4() -> Json {
    const COMPONENTS: &[&str] = &["title", "runtime", "country", "genre"];
    // Runtime present everywhere so its rule stays mandatory — the §7
    // detector only fires for mandatory components.
    let spec =
        MovieSiteSpec { n_pages: 20, seed: 404, p_missing_runtime: 0.0, ..Default::default() };

    let (reports, stats, _) = build_movie_rules(&spec, 8, COMPONENTS);
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    for r in &reports {
        assert!(r.ok);
        cluster.rules.push(r.rule.clone());
    }
    let automatic_steps: usize = reports.iter().map(|r| r.iterations).sum();

    // Complex objects: a-posteriori aggregation works.
    cluster.structure = Some(vec![
        StructureNode::Component("title".into()),
        StructureNode::Group {
            name: "facts".into(),
            children: vec![
                StructureNode::Component("runtime".into()),
                StructureNode::Component("country".into()),
                StructureNode::Component("genre".into()),
            ],
        },
    ]);
    let site = movie::generate(&spec);
    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.url.clone(), p.html.clone())).collect();
    let result = extract_cluster_html(&cluster.compile(), &pages);
    let xml_ok = result.xml.to_string_with(0).contains("<facts>");

    // Flexibility: only the 4 targeted components are extracted although
    // pages carry 9.
    let emitted = page_values(&cluster.rules, &site.pages[0].html).len();

    // Resilience: the paper says "No" — drift is not detected *in the
    // 2006 prototype*; our §7 implementation detects and repairs, so the
    // measured cell is upgraded and footnoted.
    let drifted = movie::generate(&drift_movie(&spec, Drift::Relabel));
    let sample = working_sample(&drifted, 8);
    let detections = retrozilla::detect_failures(&cluster.compile(), &sample).len();
    let mut repair_user = SimulatedUser::new();
    repair_rules(&mut cluster, &sample, &mut repair_user, &ScenarioConfig::default());
    let f1_after_repair = evaluate_rules(&cluster.rules, &drifted.pages, COMPONENTS).f1;

    println!("Table 4. Main features of Retrozilla (paper value → measured evidence)\n");
    let rows: Vec<(&str, &str, String)> = vec![
        (
            "Automation",
            "Semi",
            format!(
                "{} user interactions vs {} automatic check/refine steps for {} rules",
                stats.total(), automatic_steps, reports.len()
            ),
        ),
        (
            "Complex objects",
            "Yes",
            format!("a-posteriori aggregation emits nested <facts> group: {xml_ok}"),
        ),
        (
            "Page content",
            "Data",
            "XPath rules target data-oriented pages (all corpora here are record pages)".to_string(),
        ),
        (
            "Ease of use",
            "Easy",
            format!(
                "user supplies {} selections + {} names; never writes XPath",
                stats.selections, stats.interpretations
            ),
        ),
        (
            "Xml output",
            "Yes",
            format!("XML + XSD generated for {} pages, {} failures", pages.len(), result.failures.len()),
        ),
        (
            "Non-HTML",
            "Could be",
            "first four rule properties are model-independent (location is the only HTML-bound one)".to_string(),
        ),
        (
            "Resilience/adaptiveness",
            "No (paper) / Semi (ours)",
            format!(
                "§7 detectors fired {detections} times after relabel drift; repair restored F1 to {f1_after_repair:.3}"
            ),
        ),
    ];
    println!("{:<26} {:<26} evidence", "Feature", "Value");
    let mut records = Vec::new();
    for (feature, value, evidence) in rows {
        println!("{feature:<26} {value:<26} {evidence}");
        records.push(obj([
            ("feature", feature.into()),
            ("value", value.into()),
            ("evidence", evidence.into()),
        ]));
    }

    assert!(xml_ok);
    assert_eq!(emitted, COMPONENTS.len());
    assert!(detections > 0);
    assert!(f1_after_repair > 0.99);
    println!("\nShape check vs paper: all seven feature rows reproduced with measured evidence  ✓");
    obj([("rows", Json::Array(records))])
}

/// E6 — the §3.1 claim: "mapping rules converge after the analysis of
/// about 5 pages". Sweeps the working-sample size 1..=12, builds rules
/// for all movie components and evaluates F1 on 40 held-out pages,
/// averaged over seeds. The curve rises steeply and saturates near 5.
pub fn e6_convergence() -> Json {
    const SEEDS: [u64; 8] = [101, 102, 103, 104, 105, 106, 107, 108];
    const HELD_OUT: usize = 40;
    println!("E6. Rule convergence vs working-sample size (claim: ~5 pages suffice)\n");
    println!(
        "{:>6} {:>8} {:>8} {:>8}   (mean over {} seeds)",
        "sample",
        "P",
        "R",
        "F1",
        SEEDS.len()
    );

    let mut series = Vec::new();
    let mut f1_by_size = Vec::new();
    for sample_n in 1..=12usize {
        let prf = mean_prf(&SEEDS.map(|seed| {
            let spec = MovieSiteSpec {
                n_pages: sample_n + HELD_OUT,
                seed,
                p_aka: 0.3,
                p_missing_runtime: 0.2,
                p_missing_language: 0.3,
                p_mixed_runtime: 0.2,
                ..Default::default()
            };
            let (reports, _, _) = build_movie_rules(&spec, sample_n, MOVIE_COMPONENTS);
            let rules: Vec<MappingRule> = reports.into_iter().map(|r| r.rule).collect();
            let site = movie::generate(&spec);
            evaluate_rules(&rules, &site.pages[sample_n..], MOVIE_COMPONENTS)
        }));
        println!("{sample_n:>6} {:>8} {:>8} {:>8}", f3(prf.0), f3(prf.1), f3(prf.2));
        f1_by_size.push(prf.2);
        series.push(prf_record(("sample_size", sample_n.into()), prf));
    }

    // Shape checks: steep rise then saturation near 5.
    let f1_1 = f1_by_size[0];
    let f1_5 = f1_by_size[4];
    let f1_12 = f1_by_size[11];
    assert!(f1_5 > f1_1, "F1 must improve with more sample pages");
    assert!(f1_5 > 0.9, "five pages should be nearly enough, got {f1_5}");
    assert!(
        f1_12 - f1_5 < 0.08,
        "gains after 5 pages should be marginal: F1(5)={f1_5} F1(12)={f1_12}"
    );
    println!(
        "\nShape check vs paper: F1(1)={} < F1(5)={} ≈ F1(12)={}  ✓",
        f3(f1_1),
        f3(f1_5),
        f3(f1_12)
    );
    obj([
        ("seeds", SEEDS.len().into()),
        ("held_out_pages", HELD_OUT.into()),
        ("series", Json::Array(series)),
    ])
}

/// E7 — the §7 claim: "Retrozilla is empirically more effective on
/// fine-grained HTML structures (i.e., highly nested documents) rather
/// than on poorly structured (i.e., relatively flat) documents."
///
/// Four structure grades of the same movie facts:
///   0 flat-bare    — values are bare sibling text nodes (no labels)
///   1 flat-labeled — Figure-4 style `<b>Label:</b> value <br>` runs
///   2 rows         — one table row per fact
///   3 rows+wrap    — rows nested two extra div levels deep
///
/// Held-out extraction F1 increases with the structure grade.
pub fn e7_depth() -> Json {
    const SEEDS: [u64; 8] = [201, 202, 203, 204, 205, 206, 207, 208];
    const SAMPLE_N: usize = 6;
    const HELD_OUT: usize = 40;
    // The flat layouts carry these components in the shared cell.
    const COMPONENTS: &[&str] = &["director", "runtime", "country", "language", "rating"];
    println!("E7. Extraction accuracy vs document structure grade\n");
    println!(
        "{:<14} {:>8} {:>8} {:>8}   (mean over {} seeds, {} held-out pages)",
        "structure",
        "P",
        "R",
        "F1",
        SEEDS.len(),
        HELD_OUT
    );

    let grades = [
        ("flat-bare", Layout::Flat, false, 0),
        ("flat-labeled", Layout::Flat, true, 0),
        ("rows", Layout::Rows, true, 0),
        ("rows+wrap", Layout::Rows, true, 2),
    ];
    let mut series = Vec::new();
    let mut f1_by_grade = Vec::new();
    for (name, layout, labeled, wrapper_depth) in grades {
        let prf = mean_prf(&SEEDS.map(|seed| {
            let spec = MovieSiteSpec {
                n_pages: SAMPLE_N + HELD_OUT,
                seed,
                p_aka: 0.35,
                p_missing_runtime: 0.25,
                p_missing_language: 0.3,
                noise_blocks: (0, 2),
                layout,
                labeled,
                wrapper_depth,
                ..Default::default()
            };
            let (reports, _, _) = build_movie_rules(&spec, SAMPLE_N, COMPONENTS);
            let rules: Vec<MappingRule> = reports.into_iter().map(|r| r.rule).collect();
            let site = movie::generate(&spec);
            evaluate_rules(&rules, &site.pages[SAMPLE_N..], COMPONENTS)
        }));
        println!("{name:<14} {:>8} {:>8} {:>8}", f3(prf.0), f3(prf.1), f3(prf.2));
        f1_by_grade.push(prf.2);
        series.push(prf_record(("structure", name.into()), prf));
    }

    // Shape: bare-flat clearly worst; structured grades near-perfect.
    assert!(
        f1_by_grade[0] < f1_by_grade[2] - 0.05,
        "flat-bare ({}) must trail rows ({})",
        f1_by_grade[0],
        f1_by_grade[2]
    );
    assert!(f1_by_grade[1] <= f1_by_grade[2] + 0.02);
    assert!(f1_by_grade[3] > 0.95);
    println!(
        "\nShape check vs paper: accuracy rises with structure ({} < {} ≤ {} ≈ {})  ✓",
        f3(f1_by_grade[0]),
        f3(f1_by_grade[1]),
        f3(f1_by_grade[2]),
        f3(f1_by_grade[3])
    );
    obj([("series", Json::Array(series))])
}

/// E8 — the §6 comparison, quantified: semi-automated targeted rules vs
/// fully automatic RoadRunner-style induction vs supervised LR delimiter
/// wrappers on the same movie cluster. Per system: targeted P/R/F1 on
/// held-out pages, extracted-but-unwanted values (the flexibility
/// criticism) and user interactions. Induction and extraction times are
/// printed but stay out of the record, which must not depend on the host.
pub fn e8_baselines() -> Json {
    const COMPONENTS: &[&str] = &["title", "director", "runtime", "country", "rating", "genre"];
    const TRAIN_N: usize = 8;
    let spec = MovieSiteSpec {
        n_pages: 60,
        seed: 88,
        p_aka: 0.3,
        p_missing_runtime: 0.15,
        p_missing_language: 0.25,
        // Mixed-format runtimes (`<i>108</i> min`) are where tree-level
        // rules outclass string-level delimiters.
        p_mixed_runtime: 0.3,
        ..Default::default()
    };
    let site = movie::generate(&spec);
    let train: Vec<Page> = site.pages[..TRAIN_N].to_vec();
    let held_out = &site.pages[TRAIN_N..];

    println!("E8. Semi-automated targeted rules vs automatic wrapper induction");
    println!(
        "    cluster: imdb-movies; training sample: {TRAIN_N} pages; held-out: {} pages; targets: {:?}\n",
        held_out.len(),
        COMPONENTS
    );
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>9} {:>13} {:>11} {:>11}",
        "system",
        "precision",
        "recall",
        "F1",
        "unwanted",
        "interactions",
        "induce(ms)",
        "extract(ms)"
    );

    let mut records = Vec::new();
    // Extracts every held-out page with `extract`, prints the system's
    // row and records it; returns its F1.
    let mut system =
        |name: &str,
         interactions: usize,
         induce_ms: f64,
         extract: &dyn Fn(&Page) -> BTreeMap<String, Vec<String>>| {
            let t = Instant::now();
            let outputs: Vec<_> = held_out.iter().map(|p| (extract(p), p)).collect();
            let extract_ms = ms_since(t);
            let (prf, unwanted) = evaluate_extractions(&outputs, COMPONENTS, false);
            println!(
                "{:<22} {:>9} {:>8} {:>8} {:>9} {:>13} {:>11} {:>11}",
                name,
                f3(prf.precision),
                f3(prf.recall),
                f3(prf.f1),
                unwanted,
                interactions,
                f3(induce_ms),
                f3(extract_ms)
            );
            records.push(obj([
                ("system", name.into()),
                ("precision", prf.precision.into()),
                ("recall", prf.recall.into()),
                ("f1", prf.f1.into()),
                ("unwanted_values", unwanted.into()),
                ("interactions", interactions.into()),
            ]));
            prf.f1
        };

    // Retrozilla.
    let t0 = Instant::now();
    let (reports, stats, _) = build_movie_rules(&spec, TRAIN_N, COMPONENTS);
    let induce_ms = ms_since(t0);
    let rules: Vec<MappingRule> = reports.into_iter().map(|r| r.rule).collect();
    let f1_retrozilla =
        system("retrozilla", stats.total() as usize, induce_ms, &|p| page_values(&rules, &p.html));

    // RoadRunner-style. Anonymous fields need a manual labelling pass to
    // become components (§6); each mapped field costs one interpretation.
    let t0 = Instant::now();
    let train_html: Vec<&str> = train.iter().map(|p| p.html.as_str()).collect();
    let wrapper = RoadRunnerWrapper::induce(&train_html).expect("wrapper induction");
    let induce_ms = ms_since(t0);
    let mapping = map_roadrunner_fields(&wrapper, &train, COMPONENTS);
    let f1_roadrunner = system("roadrunner-style", mapping.len(), induce_ms, &|p| {
        let fields = Extractor::extract(&wrapper, &p.html);
        let mut got = BTreeMap::new();
        for (component, field) in &mapping {
            if let Some(values) = fields.get(field) {
                got.insert(component.clone(), values.clone());
            }
        }
        // Everything else the wrapper extracted is unwanted output.
        for (field, values) in &fields {
            if !mapping.values().any(|f| f == field) {
                got.insert(format!("rr-{field}"), values.clone());
            }
        }
        got
    });

    // LR wrappers: every training value is a labelled example.
    let t0 = Instant::now();
    let mut wrappers = Vec::new();
    let mut lr_interactions = 0usize;
    for &component in COMPONENTS {
        let examples: Vec<(&str, &[String])> = train
            .iter()
            .filter(|p| !p.expected(component).is_empty())
            .map(|p| (p.html.as_str(), p.expected(component)))
            .collect();
        lr_interactions += examples.iter().map(|(_, vs)| vs.len()).sum::<usize>();
        wrappers.extend(LrWrapper::induce(component, &examples));
    }
    let lr = LrWrapperSet { wrappers };
    let f1_lr = system("lr-wrapper", lr_interactions, ms_since(t0), &|p| lr.extract(&p.html));

    assert!(
        f1_retrozilla > f1_roadrunner,
        "targeted rules must beat anonymous automatic fields on targeted F1"
    );
    assert!(
        f1_retrozilla >= f1_lr,
        "tree-level rules must be at least as robust as string delimiters"
    );
    assert!(f1_retrozilla > 0.95, "retrozilla F1 = {f1_retrozilla}");
    println!(
        "\nShape checks: retrozilla wins targeted F1; automatic induction extracts unwanted data; "
    );
    println!("              LR needs labels on every training value and degrades on shifts  ✓");
    obj([("systems", Json::Array(records))])
}

/// E9 — the §7 failure-detection and semi-automated repair proposal,
/// measured: build rules, let the site drift (relabel / reposition /
/// redesign), check that the detectors fire, repair from negative
/// examples, and compare F1 before drift, after drift and after repair,
/// plus the interaction cost of repair vs rebuilding from scratch.
pub fn e9_recovery() -> Json {
    const COMPONENTS: &[&str] = &["title", "runtime", "country", "rating"];
    const SAMPLE_N: usize = 8;
    println!("E9. Failure detection and semi-automated repair under site drift\n");
    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "drift",
        "F1 before",
        "F1 drifted",
        "F1 repaired",
        "detections",
        "repair cost",
        "rebuild cost"
    );

    let spec = MovieSiteSpec {
        n_pages: 40,
        seed: 900,
        p_aka: 0.3,
        p_missing_runtime: 0.0,
        ..Default::default()
    };
    let mut records = Vec::new();
    for drift in [Drift::Relabel, Drift::Reposition, Drift::Redesign] {
        let (reports, _, _) = build_movie_rules(&spec, SAMPLE_N, COMPONENTS);
        let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
        for r in reports {
            assert!(r.ok, "{}", r.component);
            cluster.rules.push(r.rule);
        }
        let site = movie::generate(&spec);
        let f1_before = evaluate_rules(&cluster.rules, &site.pages, COMPONENTS).f1;

        let drifted = movie::generate(&drift_movie(&spec, drift));
        let f1_drifted = evaluate_rules(&cluster.rules, &drifted.pages, COMPONENTS).f1;

        // Automatic detection (§7) on a fresh sample of the drifted site.
        let sample = working_sample(&drifted, SAMPLE_N);
        let detections = retrozilla::detect_failures(&cluster.compile(), &sample).len();

        // Semi-automated repair from negative examples.
        let mut repair_user = SimulatedUser::new();
        let _ = repair_rules(&mut cluster, &sample, &mut repair_user, &ScenarioConfig::default());
        let f1_repaired = evaluate_rules(&cluster.rules, &drifted.pages, COMPONENTS).f1;
        let repair_cost = repair_user.stats().total();

        // Cost of building everything from scratch on the drifted site.
        let mut rebuild_user = SimulatedUser::new();
        build_rules(COMPONENTS, &sample, &mut rebuild_user, &ScenarioConfig::default());
        let rebuild_cost = rebuild_user.stats().total();

        let drift_name = format!("{drift:?}").to_lowercase();
        println!(
            "{:<12} {:>9} {:>10} {:>10} {:>12} {:>12} {:>14}",
            drift_name,
            f3(f1_before),
            f3(f1_drifted),
            f3(f1_repaired),
            detections,
            repair_cost,
            rebuild_cost
        );

        assert!(f1_before > 0.99, "{drift:?}: baseline must be clean");
        assert!(f1_drifted < f1_before, "{drift:?}: drift must hurt");
        assert!(f1_repaired > 0.99, "{drift:?}: repair must restore, got {f1_repaired}");
        if drift == Drift::Relabel || drift == Drift::Redesign {
            assert!(detections > 0, "{drift:?}: detectors must fire");
        }
        records.push(obj([
            ("drift", drift_name.into()),
            ("f1_before", f1_before.into()),
            ("f1_drifted", f1_drifted.into()),
            ("f1_repaired", f1_repaired.into()),
            ("detections", detections.into()),
            ("repair_interactions", repair_cost.into()),
            ("rebuild_interactions", rebuild_cost.into()),
        ]));
    }
    println!("\nShape check: drift degrades F1, detectors fire, repair restores to ≥0.99  ✓");
    obj([("drifts", Json::Array(records))])
}

/// EA — ablation of the §3.4 refinement strategies. Four configurations
/// over the same movie corpus: full, without contextual information,
/// without alternative paths, and positions-only (both off, property
/// refinements still on). Shows what each strategy contributes to
/// held-out quality and what it costs in user interactions.
pub fn ea_ablation() -> Json {
    const SEEDS: [u64; 6] = [301, 302, 303, 304, 305, 306];
    const SAMPLE_N: usize = 8;
    const HELD_OUT: usize = 30;
    println!("EA. Ablation of the refinement strategies (mean over {} seeds)\n", SEEDS.len());
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>9} {:>13} {:>13}",
        "configuration", "P", "R", "F1", "rules-ok", "interactions", "alt-paths"
    );

    let variants = [
        ("full", true, true),
        ("no-context", false, true),
        ("no-alternative", true, false),
        ("positions-only", false, false),
    ];
    let mut records = Vec::new();
    let mut f1_by_variant = Vec::new();
    for (name, enable_context, enable_alternative) in variants {
        let cfg = ScenarioConfig {
            refine: RefineConfig { enable_context, enable_alternative, ..RefineConfig::default() },
        };
        let (mut prfs, mut ok_frac, mut interactions, mut alt_paths) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &seed in &SEEDS {
            let spec = MovieSiteSpec {
                n_pages: SAMPLE_N + HELD_OUT,
                seed,
                p_aka: 0.35,
                p_missing_runtime: 0.2,
                p_missing_language: 0.3,
                ..Default::default()
            };
            let site = movie::generate(&spec);
            let sample = working_sample(&site, SAMPLE_N);
            let mut user = SimulatedUser::new();
            let reports = build_rules(MOVIE_COMPONENTS, &sample, &mut user, &cfg);
            let ok = reports.iter().filter(|r| r.ok).count();
            ok_frac.push(ok as f64 / reports.len().max(1) as f64);
            interactions.push(user.stats().total() as f64);
            alt_paths.push(
                reports.iter().map(|r| r.rule.locations.len().saturating_sub(1)).sum::<usize>()
                    as f64,
            );
            let rules: Vec<MappingRule> = reports.into_iter().map(|r| r.rule).collect();
            prfs.push(evaluate_rules(&rules, &site.pages[SAMPLE_N..], MOVIE_COMPONENTS));
        }
        let (p, r, f1) = mean_prf(&prfs);
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>9} {:>13} {:>13}",
            name,
            f3(p),
            f3(r),
            f3(f1),
            f3(mean(&ok_frac)),
            f3(mean(&interactions)),
            f3(mean(&alt_paths))
        );
        f1_by_variant.push(f1);
        records.push(obj([
            ("configuration", name.into()),
            ("precision", p.into()),
            ("recall", r.into()),
            ("f1", f1.into()),
            ("rules_ok", mean(&ok_frac).into()),
            ("interactions", mean(&interactions).into()),
            ("alternative_paths", mean(&alt_paths).into()),
        ]));
    }

    // Shapes: full is best; dropping context hurts generalisation (the
    // alternative-path fallback memorises sample positions); dropping
    // everything is clearly worst.
    assert!(f1_by_variant[0] >= f1_by_variant[1] - 1e-9, "full >= no-context");
    assert!(f1_by_variant[0] >= f1_by_variant[3], "full >= positions-only");
    assert!(
        f1_by_variant[0] - f1_by_variant[3] > 0.02,
        "refinement must contribute: full={} positions-only={}",
        f1_by_variant[0],
        f1_by_variant[3]
    );
    println!("\nShape check: full ≥ each ablation; strategies contribute measurably  ✓");
    obj([("variants", Json::Array(records))])
}
