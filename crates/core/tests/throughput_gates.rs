//! Throughput ratios that guard two serving-layer designs against a
//! regression that keeps output correct but gives the speed back:
//!
//! - **contention**: the sharded store with one WAL per shard against a
//!   one-shard store behind a single WAL, under the same mixed
//!   read/write load from 8 threads;
//! - **fusion**: fused one-pass cluster extraction against per-rule
//!   compiled execution on a label-anchored many-attribute cluster.
//!
//! Both are wall-clock ratios, meaningful only in an optimised build, so
//! each test is ignored by default. Run them with
//! `cargo test --release -p retrozilla --test throughput_gates -- --ignored`.

use retrozilla::extract::extract_page_compiled_per_rule;
use retrozilla::{
    extract_page_compiled, ClusterRules, ComponentName, DurableRepository, Format, MappingRule,
    Multiplicity, Optionality, RepositorySnapshot,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The harness runs tests on parallel threads; each timing test holds
/// this lock so neither measures while the other loads the host. It
/// guards no data, so a panicked holder leaves nothing to repair.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn rule(name: &str, optionality: Optionality, location: &str) -> MappingRule {
    MappingRule {
        name: ComponentName::new(name).expect("rule name"),
        optionality,
        multiplicity: Multiplicity::SingleValued,
        format: Format::Text,
        locations: vec![retroweb_xpath::parse(location).expect("rule location")],
        post: vec![],
    }
}

// ---- contention ------------------------------------------------------------

/// Threads in the contention workload, independent of host cores: lock
/// convoys and fsync pipelining are scheduling effects, not parallelism.
const CONTENTION_THREADS: usize = 8;
/// Shards on the sharded side: small per-shard maps, and concurrent
/// fsyncs spread over many independent logs.
const CONTENTION_SHARDS: usize = 32;
/// Mutations folded into a (shard) snapshot per compaction, the same for
/// both stacks: the single-WAL stack rewrites the whole repository per
/// fold, the sharded stack 1/32 of it, 32× less often per shard.
const CONTENTION_COMPACT_EVERY: u64 = 128;
const CONTENTION_CLUSTERS: usize = 2_048;
const CONTENTION_WINDOW: Duration = Duration::from_millis(300);
const CONTENTION_ROUNDS: usize = 2;

/// A one-rule cluster, so the workload measures the store rather than
/// rule compilation or deep clones.
fn contention_cluster(name: &str, version: usize) -> ClusterRules {
    let mut c = ClusterRules::new(name, &format!("page-v{version}"));
    c.rules.push(rule("title", Optionality::Mandatory, "/HTML[1]/BODY[1]/H1[1]/text()"));
    c
}

/// Operations per second from [`CONTENTION_THREADS`] threads over
/// `window`. Per 3 operations: one durable `record` (the
/// `PUT /clusters/{name}` path: one fsynced WAL append before it
/// returns), one `get` and one `compiled`. Each thread's operation stream
/// is fixed by its index, so both stacks face the same work.
fn contention_ops_per_s(durable: &DurableRepository, names: &[String], window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let store = durable.store();
    let ops: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONTENTION_THREADS)
            .map(|t| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..16 {
                            rng = rng
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            let r = (rng >> 33) as usize;
                            let name = &names[r % names.len()];
                            match r % 3 {
                                0 => {
                                    durable
                                        .record(contention_cluster(name, r % 4))
                                        .expect("durable record");
                                }
                                1 => drop(std::hint::black_box(store.get(name))),
                                _ => drop(std::hint::black_box(store.compiled(name))),
                            }
                            ops += 1;
                        }
                    }
                    ops
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().expect("contention worker")).sum()
    });
    ops as f64 / window.as_secs_f64()
}

/// Healthy runs measure 3.1–4.3× in release on 2 vCPUs. Two regressions
/// this must catch: every cluster behind one lock and one log
/// (`shard_for` routing all names to one shard) measures about 1×, and
/// one global lock around every durable write, with the per-shard logs
/// kept, measures 1.2–1.45×. The 2× bound fails both.
#[test]
#[ignore = "timing ratio: CI runs it in release"]
fn sharded_store_beats_single_wal_under_mixed_load() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let names: Vec<String> = (0..CONTENTION_CLUSTERS).map(|i| format!("cluster-{i:05}")).collect();
    let dir =
        std::env::temp_dir().join(format!("retrozilla-throughput-gates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("contention dir");

    // One store shard, one WAL, so every compaction snapshots the whole
    // store; seeded through the layout's first-start commit.
    let seed: RepositorySnapshot = names.iter().map(|name| contention_cluster(name, 0)).collect();
    let single =
        DurableRepository::open(&dir.join("single"), 1, CONTENTION_COMPACT_EVERY, Some(&seed))
            .expect("single-shard open");
    // The serving stack, seeded through its own durable path.
    let sharded = DurableRepository::open(
        &dir.join("sharded"),
        CONTENTION_SHARDS,
        CONTENTION_COMPACT_EVERY,
        None,
    )
    .expect("sharded open");
    for name in &names {
        sharded.record(contention_cluster(name, 0)).expect("seed");
    }
    for durable in [&single, &sharded] {
        for name in &names {
            durable.store().compiled(name).expect("warm the compiled cache");
        }
    }

    // Warm both, then alternate windows: fsync latency on shared hosts
    // drifts over seconds, and alternating spreads the drift over both.
    contention_ops_per_s(&single, &names, Duration::from_millis(150));
    contention_ops_per_s(&sharded, &names, Duration::from_millis(150));
    let (mut single_ops, mut sharded_ops) = (0.0, 0.0);
    for _ in 0..CONTENTION_ROUNDS {
        single_ops += contention_ops_per_s(&single, &names, CONTENTION_WINDOW);
        sharded_ops += contention_ops_per_s(&sharded, &names, CONTENTION_WINDOW);
    }
    drop((single, sharded));
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = sharded_ops / f64::max(single_ops, f64::MIN_POSITIVE);
    println!(
        "contention: single WAL {:.0} ops/s, {CONTENTION_SHARDS} shards {:.0} ops/s -> {speedup:.2}x",
        single_ops / CONTENTION_ROUNDS as f64,
        sharded_ops / CONTENTION_ROUNDS as f64,
    );
    assert!(
        speedup >= 2.0,
        "the sharded store must beat the single-WAL store by at least 2x under mixed \
         {CONTENTION_THREADS}-thread load, measured {speedup:.2}x"
    );
}

// ---- fusion ----------------------------------------------------------------

const FUSION_LABELS: usize = 14;
const FUSION_PAGES: usize = 24;
const FUSION_ROUNDS: usize = 3;

/// A label-anchored many-attribute cluster, the shape the paper's rules
/// take after refinement: every attribute anchors on the same `//TD`
/// label walk (one shared fused prefix) and differs only in its label,
/// plus two positional rules on the `/HTML/BODY` spine.
fn fusion_cluster() -> ClusterRules {
    let mut c = ClusterRules::new("fusion-gate", "record");
    for i in 0..FUSION_LABELS {
        c.rules.push(rule(
            &format!("attr{i}"),
            Optionality::Optional,
            &format!(
                "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
                 [contains(normalize-space(.), \"Label{i}:\")]]"
            ),
        ));
    }
    c.rules.push(rule(
        "pos0",
        Optionality::Optional,
        "/HTML[1]/BODY[1]/TABLE[1]/TR[1]/TD[2]/text()",
    ));
    c.rules.push(rule("pos1", Optionality::Optional, "/HTML[1]/BODY[1]/H1[1]/text()"));
    c
}

/// A fact page: the label/value table every rule anchors on, amid the
/// boilerplate of a real detail page, which the shared `//TD` walk wades
/// through once fused and once per rule otherwise.
fn fusion_page(seed: usize) -> String {
    let mut html = format!("<html><body><h1>Record {seed}</h1><div>");
    for i in 0..250 {
        html.push_str(&format!("<p>nav {seed}-{i} <span>x</span> <em>y</em> <a>link</a></p>"));
    }
    html.push_str("</div><table>");
    for i in 0..FUSION_LABELS {
        html.push_str(&format!("<tr><td><b>Label{i}:</b></td><td>value-{seed}-{i}</td></tr>"));
    }
    html.push_str("</table><ul>");
    for i in 0..100 {
        html.push_str(&format!("<li>item {seed}-{i} <span>tag</span></li>"));
    }
    html.push_str("</ul><div>");
    for i in 0..100 {
        html.push_str(&format!("<p>footer paragraph {seed}-{i} with <b>markup</b></p>"));
    }
    html.push_str("</div></body></html>");
    html
}

/// Fused and per-rule execution agree on every page, and fused runs at
/// least twice the per-rule pages/s. A fused path that falls back to
/// per-rule execution measures about 1×.
#[test]
#[ignore = "timing ratio: CI runs it in release"]
fn fused_extraction_doubles_per_rule_throughput() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let compiled = fusion_cluster().compile();
    let docs: Vec<_> = (0..FUSION_PAGES).map(|i| retroweb_html::parse(&fusion_page(i))).collect();
    for (i, doc) in docs.iter().enumerate() {
        let (mut fused_failures, mut per_rule_failures) = (Vec::new(), Vec::new());
        let fused = extract_page_compiled(&compiled, "u", doc, &mut fused_failures);
        let per_rule = extract_page_compiled_per_rule(&compiled, "u", doc, &mut per_rule_failures);
        assert_eq!(fused, per_rule, "fused/per-rule records diverge on page {i}");
        assert_eq!(
            fused_failures, per_rule_failures,
            "fused/per-rule failures diverge on page {i}"
        );
    }

    let pages_per_s = |fused: bool| {
        let started = Instant::now();
        for _ in 0..FUSION_ROUNDS {
            for doc in &docs {
                let mut failures = Vec::new();
                std::hint::black_box(if fused {
                    extract_page_compiled(&compiled, "u", doc, &mut failures)
                } else {
                    extract_page_compiled_per_rule(&compiled, "u", doc, &mut failures)
                });
            }
        }
        (FUSION_ROUNDS * docs.len()) as f64 / started.elapsed().as_secs_f64()
    };
    // Warm both paths, then measure.
    pages_per_s(false);
    pages_per_s(true);
    let per_rule = pages_per_s(false);
    let fused = pages_per_s(true);
    let speedup = fused / per_rule.max(f64::MIN_POSITIVE);
    println!("fusion: per-rule {per_rule:.0} pages/s, fused {fused:.0} pages/s -> {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "fused one-pass extraction must beat per-rule execution by at least 2x on a \
         shared-anchor cluster, measured {speedup:.2}x"
    );
}
