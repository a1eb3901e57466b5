//! B4 — extraction-processor throughput (pages/second) on the movie
//! cluster: the data-migration workload of §1.
//!
//! `interpreted-*` drives the rules through the tree-walking reference
//! engine page by page (the pre-compilation architecture); the other
//! entries run the production path — rule set compiled once per cluster
//! (`ClusterRules::compile`) and executed per page — sequentially and
//! across worker threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use retroweb_bench::build_movie_rules;
use retroweb_html::parse;
use retroweb_sitegen::{movie, MovieSiteSpec, MOVIE_COMPONENTS};
use retrozilla::extract::extract_cluster_interpreted;
use retrozilla::{
    extract_cluster_html, extract_cluster_parallel_compiled_to, ClusterRules, CollectSink,
};

fn bench_extraction(c: &mut Criterion) {
    let spec = MovieSiteSpec { n_pages: 64, seed: 13, ..Default::default() };
    let (reports, _, _) = build_movie_rules(&spec, 8, MOVIE_COMPONENTS);
    let mut cluster = ClusterRules::new("imdb-movies", "imdb-movie");
    for r in reports {
        cluster.rules.push(r.rule);
    }
    let site = movie::generate(&spec);
    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.url.clone(), p.html.clone())).collect();

    let mut group = c.benchmark_group("extraction");
    group.throughput(Throughput::Elements(pages.len() as u64));
    group.sample_size(20);
    // Baseline: the reference extraction processor — identical work
    // (parse, failure detection, XML assembly, schema) with per-page
    // AST interpretation instead of compiled rules. Like-for-like with
    // the compiled entry below.
    group.bench_function("interpreted-64-pages", |b| {
        b.iter(|| {
            let parsed: Vec<(String, retroweb_html::Document)> =
                pages.iter().map(|(u, h)| (u.clone(), parse(h))).collect();
            std::hint::black_box(extract_cluster_interpreted(&cluster, &parsed).failures.len())
        })
    });
    // Production path: compiled once (the store caches it), applied per
    // page.
    let compiled = cluster.compile();
    group.bench_function("compiled-64-pages", |b| {
        b.iter(|| std::hint::black_box(extract_cluster_html(&compiled, &pages).failures.len()))
    });
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("compiled-parallel-64-pages", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut sink = CollectSink::new();
                    extract_cluster_parallel_compiled_to(&compiled, &pages, threads, &mut sink)
                        .expect("CollectSink never fails");
                    std::hint::black_box(sink.into_result().failures.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_extraction);
criterion_main!(benches);
