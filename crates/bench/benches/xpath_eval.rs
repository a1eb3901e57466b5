//! B2 — XPath engine throughput: the expression shapes mapping rules use
//! (precise positional paths, descendant scans, contextual predicates),
//! evaluated against a generated movie page.
//!
//! Two groups run the same cases: `xpath_eval` through the tree-walking
//! interpreter (the reference semantics) and `xpath_eval_compiled`
//! through the compiled-IR executor, so the speedup of the compile →
//! execute path is directly visible. Each compiled iteration builds a
//! fresh `Executor`, as extraction does once per page, so its per-page
//! tables are paid for every time. `xpath_compile` measures the cost
//! of lowering itself (paid once per rule per cluster).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use retroweb_html::parse;
use retroweb_sitegen::{movie, MovieSiteSpec};
use retroweb_xpath::{parse as xparse, CompiledXPath, Engine, Executor};

const CASES: [(&str, &str); 6] = [
    ("precise", "/HTML[1]/BODY[1]/DIV[2]/TABLE[1]/TR[2]/TD[2]/text()[1]"),
    ("descendant", "//TD/text()"),
    ("positional-pred", "//TABLE[1]/TR[position()>=1]/TD[1]"),
    (
        "contextual",
        "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]",
    ),
    ("union", "//UL[1]/LI/text() | //TABLE[2]/TR/TD/text()"),
    ("string-fn", "//TD[contains(normalize-space(.), \"min\")]"),
];

fn movie_page() -> String {
    movie::generate(&MovieSiteSpec {
        n_pages: 1,
        seed: 7,
        actors: (20, 20),
        p_missing_runtime: 0.0,
        ..Default::default()
    })
    .pages
    .remove(0)
    .html
}

fn bench_eval(c: &mut Criterion) {
    let page = movie_page();
    let doc = parse(&page);
    let engine = Engine::new(&doc);

    let mut group = c.benchmark_group("xpath_eval");
    for (name, xpath) in CASES {
        let expr = xparse(xpath).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &expr, |b, expr| {
            b.iter(|| std::hint::black_box(engine.select(expr, doc.root()).unwrap().len()))
        });
    }
    group.finish();
}

fn bench_eval_compiled(c: &mut Criterion) {
    let page = movie_page();
    let doc = parse(&page);

    let mut group = c.benchmark_group("xpath_eval_compiled");
    for (name, xpath) in CASES {
        let compiled = CompiledXPath::parse(xpath).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &compiled, |b, compiled| {
            b.iter(|| {
                let exec = Executor::new(&doc);
                std::hint::black_box(exec.select(compiled, doc.root()).unwrap().len())
            })
        });
    }
    group.finish();
}

fn bench_parse_expr(c: &mut Criterion) {
    let xpath = "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]";
    c.bench_function("xpath_parse/contextual", |b| {
        b.iter(|| std::hint::black_box(xparse(xpath).unwrap()))
    });
    // The one-off cost the compiled path pays per rule.
    let expr = xparse(xpath).unwrap();
    c.bench_function("xpath_compile/contextual", |b| {
        b.iter(|| std::hint::black_box(CompiledXPath::compile(&expr)))
    });
}

criterion_group!(benches, bench_eval, bench_eval_compiled, bench_parse_expr);
criterion_main!(benches);
