//! Property tests for the XPath engine.
//!
//! The load-bearing invariant of the whole system (§3.2 selection): for
//! ANY node in ANY document, the generated precise path evaluates to
//! exactly that node. Plus display/parse fixpoints and generalisation
//! sanity.

use proptest::prelude::*;
use retroweb_html::{parse, Document, NodeData, NodeId};
use retroweb_xpath::builder::{precise_path, precise_path_from};
use retroweb_xpath::generalize::{
    broaden_step, context_predicate, strip_positions_from, ContextDirection,
};
use retroweb_xpath::{parse as xparse, CompiledXPath, Engine, Executor, Expr};

/// Random nested-table/list documents, in the style of the paper's
/// corpora: labelled cells, whitespace-only text between tags,
/// `&nbsp;`-only cells, comments and attributes.
fn arb_document() -> impl Strategy<Value = String> {
    let gap = prop::sample::select(vec!["", "", " ", "\n  ", "<!-- c -->"]);
    let cell = prop_oneof![
        "[a-zA-Z0-9 ]{1,10}".prop_map(|c| format!("<td>{c}</td>")),
        Just("<td>&nbsp;</td>".to_string()),
        Just("<td> &nbsp; </td>".to_string()),
        prop::sample::select(vec!["Runtime:", "tail", "a"])
            .prop_map(|l| format!("<td class=\"l\"><b>{l}</b> x</td>")),
    ];
    let row = prop::collection::vec((gap.clone(), cell), 1..4).prop_map(|cells| {
        let tds: String = cells.into_iter().map(|(g, c)| format!("{g}{c}")).collect();
        format!("<tr>{tds}</tr>")
    });
    let table = prop::collection::vec(row, 1..5)
        .prop_map(|rows| format!("<table id=\"t\">{}</table>", rows.concat()));
    let list = prop::collection::vec("[a-z]{1,8}", 1..5).prop_map(|items| {
        let lis: String = items.into_iter().map(|i| format!("<li>{i}</li>")).collect();
        format!("<ul>{lis}</ul>")
    });
    let para = "[a-zA-Z ]{1,20}".prop_map(|t| format!("<p><b>{t}</b> tail</p>"));
    let block = prop_oneof![table, list, para];
    prop::collection::vec((gap, block), 1..6).prop_map(|blocks| {
        let body: String = blocks.into_iter().map(|(g, b)| format!("{g}{b}")).collect();
        format!("<html><body>{body}</body></html>")
    })
}

fn all_addressable(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.root())
        .filter(|&n| !matches!(doc.node(n).data, NodeData::Doctype(_)))
        .collect()
}

/// Random rule-shaped XPath expressions: the axes, node tests and
/// predicate forms the precise-path builder and the §3.4 generalisation
/// operators emit, composed freely.
fn arb_xpath() -> impl Strategy<Value = String> {
    let tag = prop::sample::select(vec![
        "TABLE", "TR", "TD", "UL", "LI", "P", "B", "DIV", "*", "text()", "node()",
    ]);
    let axis = prop::sample::select(vec![
        "",
        "descendant::",
        "descendant-or-self::",
        "following::",
        "preceding::",
        "ancestor::",
        "ancestor-or-self::",
        "following-sibling::",
        "preceding-sibling::",
        "self::",
    ]);
    let pred = prop_oneof![
        (1u32..5).prop_map(|n| format!("[{n}]")),
        Just("[position()>=1]".to_string()),
        Just("[position()>1]".to_string()),
        Just("[last()]".to_string()),
        Just("[position() = last()]".to_string()),
        Just("[contains(., \"a\")]".to_string()),
        Just("[normalize-space(.) != \"\"]".to_string()),
        Just("[count(TD) > 1]".to_string()),
        Just("[preceding::text()[1]]".to_string()),
        arb_context_predicate().prop_map(|p| format!("[{p}]")),
        Just(String::new()),
    ];
    let step = (axis, tag, pred).prop_map(|(a, t, p)| format!("{a}{t}{p}"));
    (prop::collection::vec(step, 1..5), any::<bool>()).prop_map(|(steps, double)| {
        format!("{}{}", if double { "//" } else { "/" }, steps.join("/"))
    })
}

/// The §3.4 contextual refinement's predicate, as `context_predicate`
/// emits it, for a label that may or may not occur on the page.
fn arb_context_predicate() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["Runtime:", "tail", "a", ""]),
        prop::sample::select(vec![ContextDirection::Before, ContextDirection::After]),
    )
        .prop_map(|(label, direction)| context_predicate(label, direction).to_string())
}

/// Assert interpreter ≡ compiled IR for one expression on one document:
/// identical node-sets (via `select_refs`) and identical err-ness.
fn assert_engines_agree(
    doc: &Document,
    xpath: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let Ok(expr) = xparse(xpath) else { return Ok(()) };
    let engine = Engine::new(doc);
    let exec = Executor::new(doc);
    let compiled = CompiledXPath::compile(&expr);
    let interpreted = engine.select_refs(&expr, doc.root());
    let executed = exec.select_refs(&compiled, doc.root());
    match (interpreted, executed) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}", xpath),
        (Err(_), Err(_)) => {}
        (a, b) => {
            return Err(proptest::test_runner::TestCaseError::Fail(format!(
                "{xpath}: interpreter {a:?} vs compiled {b:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn precise_path_selects_exactly_its_node(html in arb_document(), pick in any::<u32>()) {
        let doc = parse(&html);
        let nodes = all_addressable(&doc);
        prop_assume!(!nodes.is_empty());
        let target = nodes[pick as usize % nodes.len()];
        let path = precise_path(&doc, target).unwrap();
        let engine = Engine::new(&doc);
        let got = engine.select(&Expr::Path(path.clone()), doc.root()).unwrap();
        prop_assert_eq!(got, vec![target], "path: {}", path);
    }

    #[test]
    fn precise_path_display_parses_back_identically(html in arb_document(), pick in any::<u32>()) {
        let doc = parse(&html);
        let nodes = all_addressable(&doc);
        prop_assume!(!nodes.is_empty());
        let target = nodes[pick as usize % nodes.len()];
        let path = precise_path(&doc, target).unwrap();
        let shown = path.to_string();
        let reparsed = xparse(&shown).unwrap();
        prop_assert_eq!(reparsed.to_string(), shown);
        // And the reparsed expression still selects the same node.
        let engine = Engine::new(&doc);
        let got = engine.select(&reparsed, doc.root()).unwrap();
        prop_assert_eq!(got, vec![target]);
    }

    #[test]
    fn relative_precise_path_matches_from_any_ancestor(
        html in arb_document(),
        pick in any::<u32>(),
        anc_pick in any::<u32>(),
    ) {
        let doc = parse(&html);
        let nodes = all_addressable(&doc);
        prop_assume!(!nodes.is_empty());
        let target = nodes[pick as usize % nodes.len()];
        let ancestors: Vec<NodeId> = doc.ancestors(target).filter(|&a| a != doc.root()).collect();
        prop_assume!(!ancestors.is_empty());
        let anc = ancestors[anc_pick as usize % ancestors.len()];
        let rel = precise_path_from(&doc, target, anc).unwrap();
        let engine = Engine::new(&doc);
        let got = engine.select(&Expr::Path(rel), anc).unwrap();
        prop_assert_eq!(got, vec![target]);
    }

    #[test]
    fn strip_positions_yields_superset(html in arb_document(), pick in any::<u32>()) {
        let doc = parse(&html);
        let nodes = all_addressable(&doc);
        prop_assume!(!nodes.is_empty());
        let target = nodes[pick as usize % nodes.len()];
        let path = precise_path(&doc, target).unwrap();
        let engine = Engine::new(&doc);
        for from in 0..path.steps.len() {
            let loosened = strip_positions_from(&path, from);
            let got = engine.select(&Expr::Path(loosened), doc.root()).unwrap();
            prop_assert!(got.contains(&target), "strip at {} lost the target", from);
        }
    }

    #[test]
    fn broaden_step_yields_superset(html in arb_document(), pick in any::<u32>()) {
        let doc = parse(&html);
        let nodes = all_addressable(&doc);
        prop_assume!(!nodes.is_empty());
        let target = nodes[pick as usize % nodes.len()];
        let path = precise_path(&doc, target).unwrap();
        let engine = Engine::new(&doc);
        for idx in 0..path.steps.len() {
            let broadened = broaden_step(&path, idx);
            let got = engine.select(&Expr::Path(broadened), doc.root()).unwrap();
            prop_assert!(got.contains(&target), "broaden at {} lost the target", idx);
        }
    }

    #[test]
    fn parser_never_panics(input in "\\PC{0,80}") {
        let _ = xparse(&input);
        let _ = retroweb_xpath::parse_lenient(&input);
    }

    #[test]
    fn display_parse_fixpoint_for_parsed_expressions(input in "\\PC{0,60}") {
        if let Ok(expr) = xparse(&input) {
            let shown = expr.to_string();
            let reparsed = xparse(&shown)
                .unwrap_or_else(|e| panic!("display of parsed expr must reparse: {shown} ({e})"));
            prop_assert_eq!(reparsed.to_string(), shown);
        }
    }

    #[test]
    fn node_sets_are_sorted_and_deduped(html in arb_document()) {
        let doc = parse(&html);
        let engine = Engine::new(&doc);
        for xpath in ["//TD | //LI", "//*", "//text()", "//TR/TD/text() | //text()"] {
            let expr = xparse(xpath).unwrap();
            let got = engine.select(&expr, doc.root()).unwrap();
            for pair in got.windows(2) {
                prop_assert_eq!(
                    doc.compare_order(pair[0], pair[1]),
                    std::cmp::Ordering::Less,
                    "{} not sorted/deduped", xpath
                );
            }
        }
    }

    #[test]
    fn compiled_equals_interpreter_on_precise_paths(html in arb_document(), pick in any::<u32>()) {
        // The tentpole invariant: on the exact expressions mapping rules
        // record, the compiled IR engine is indistinguishable from the
        // tree-walking reference engine.
        let doc = parse(&html);
        let nodes = all_addressable(&doc);
        prop_assume!(!nodes.is_empty());
        let target = nodes[pick as usize % nodes.len()];
        let path = precise_path(&doc, target).unwrap();
        assert_engines_agree(&doc, &path.to_string())?;
        // And on its generalisations (position-stripped variants).
        for from in 0..path.steps.len() {
            assert_engines_agree(&doc, &strip_positions_from(&path, from).to_string())?;
        }
    }

    #[test]
    fn compiled_equals_interpreter_on_rule_shapes(html in arb_document(), xpath in arb_xpath()) {
        let doc = parse(&html);
        assert_engines_agree(&doc, &xpath)?;
    }

    #[test]
    fn compiled_equals_interpreter_on_label_anchored_rules(
        html in arb_document(),
        target in prop::sample::select(vec!["TD/text()", "TD", "B", "text()", "node()", "@*"]),
        anchor in arb_context_predicate(),
    ) {
        // The shape every context-refined rule ends in: the label step is
        // answered from the executor's index, the interpreter walks.
        let doc = parse(&html);
        assert_engines_agree(&doc, &format!("//{target}[{anchor}]"))?;
        assert_engines_agree(&doc, &format!("//{target}/{anchor}"))?;
    }

    #[test]
    fn compiled_equals_interpreter_on_unions(
        html in arb_document(),
        a in arb_xpath(),
        b in arb_xpath(),
    ) {
        let doc = parse(&html);
        assert_engines_agree(&doc, &format!("{a} | {b}"))?;
    }

    #[test]
    fn compiled_equals_interpreter_on_values(html in arb_document(), xpath in arb_xpath()) {
        // Value-level equivalence (numbers/strings/booleans), through
        // count()/string()/boolean() wrappers around generated paths.
        let doc = parse(&html);
        for wrapped in [
            format!("count({xpath})"),
            format!("string({xpath})"),
            format!("boolean({xpath})"),
            format!("normalize-space(string({xpath}))"),
        ] {
            let Ok(expr) = xparse(&wrapped) else { continue };
            let compiled = CompiledXPath::compile(&expr);
            let interpreted = Engine::new(&doc).eval(&expr, doc.root());
            let executed = Executor::new(&doc).eval(&compiled, doc.root());
            match (interpreted, executed) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "{}", wrapped),
                (Err(_), Err(_)) => {}
                (x, y) => prop_assert!(false, "{}: {:?} vs {:?}", wrapped, x, y),
            }
        }
    }

    #[test]
    fn count_agrees_with_select(html in arb_document()) {
        let doc = parse(&html);
        let engine = Engine::new(&doc);
        for xpath in ["//TD", "//LI", "//P/B"] {
            let n = engine.select(&xparse(xpath).unwrap(), doc.root()).unwrap().len();
            let counted = engine
                .eval(&xparse(&format!("count({xpath})")).unwrap(), doc.root())
                .unwrap();
            prop_assert_eq!(counted, retroweb_xpath::Value::Num(n as f64));
        }
    }
}
