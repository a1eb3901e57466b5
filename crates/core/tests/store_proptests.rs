//! Concurrency and crash-recovery property suite for the sharded
//! repository ([`ShardedRepository`] behind the [`ClusterStore`] API).
//!
//! Four families of properties:
//!
//! 1. **Sequential model equivalence** — any random op sequence applied
//!    to a sharded store (at any shard count) leaves exactly the state
//!    a plain map would hold, with `get`/`compiled`/`snapshot`/
//!    `cluster_names`/`stats` all agreeing.
//! 2. **Linearizable-enough interleavings** — threads mutating disjoint
//!    key sets while readers take full snapshots: every thread's final
//!    writes are visible, snapshots are point-in-time (internally
//!    consistent), and per-cluster reads always return *some* recorded
//!    version, never a torn or foreign value.
//! 3. **Per-shard crash-sim replay** — random mutation sequences driven
//!    through `DurableRepository::open` (the per-shard WAL
//!    machinery), "crashed" (dropped without compaction) and reopened,
//!    reproduce the in-memory model exactly — the sharded counterpart
//!    of `wal_proptests`, reusing its op/model machinery.
//! 4. **Lock-protocol races** — the two invariants the store's and the
//!    WAL's lock scopes exist for, each forced rather than hoped for:
//!    racing records of a new name report "created" exactly once, and
//!    the per-shard log order equals the apply order.

use proptest::prelude::*;
use retroweb_json::Json;
use retrozilla::wal::replay;
use retrozilla::{ClusterRules, ClusterStore, DurableRepository, ShardedRepository, WalOp};
use retrozilla::{CompiledCluster, RepositorySnapshot, RepositoryStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

static TICKET: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "retrozilla-storeprop-{tag}-{}-{}",
        std::process::id(),
        TICKET.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small cluster whose identity (name + version) is observable
/// through equality — the same shape `wal_proptests` uses.
fn make_cluster(name: &str, version: usize) -> ClusterRules {
    let mut c = ClusterRules::new(name, &format!("page-v{version}"));
    for i in 0..(version % 3) {
        c.rules.push(retrozilla::MappingRule {
            name: retrozilla::ComponentName::new(&format!("c{i}")).unwrap(),
            optionality: retrozilla::Optionality::Mandatory,
            multiplicity: retrozilla::Multiplicity::SingleValued,
            format: retrozilla::Format::Text,
            locations: vec![retroweb_xpath::parse("/HTML[1]/BODY[1]/H1[1]/text()").unwrap()],
            post: vec![],
        });
    }
    c
}

/// Random mutations over a pool of eight cluster names (spread over
/// several shards at every tested shard count).
fn arb_ops() -> impl Strategy<Value = Vec<WalOp>> {
    let name = prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ]);
    let op = (name, 0usize..6, any::<bool>()).prop_map(|(name, version, is_record)| {
        if is_record {
            WalOp::Record(make_cluster(name, version))
        } else {
            WalOp::Remove(name.to_string())
        }
    });
    prop::collection::vec(op, 0..32)
}

fn model_after(ops: &[WalOp]) -> BTreeMap<String, ClusterRules> {
    let mut model = BTreeMap::new();
    for op in ops {
        match op {
            WalOp::Record(c) => {
                model.insert(c.cluster.clone(), c.clone());
            }
            WalOp::Remove(name) => {
                model.remove(name);
            }
        }
    }
    model
}

fn store_as_map(store: &dyn ClusterStore) -> BTreeMap<String, ClusterRules> {
    store.cluster_names().into_iter().map(|n| (n.clone(), store.get(&n).unwrap())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Family 1: a sharded store driven sequentially equals the model,
    // through every read surface.
    #[test]
    fn sequential_ops_match_model(ops in arb_ops(), shards in 1usize..9) {
        let store = ShardedRepository::new(shards);
        for op in &ops {
            op.apply(&store);
        }
        let model = model_after(&ops);
        prop_assert_eq!(store_as_map(&store), model.clone());
        prop_assert_eq!(store.len(), model.len());
        prop_assert_eq!(store.is_empty(), model.is_empty());
        prop_assert_eq!(
            store.cluster_names(),
            model.keys().cloned().collect::<Vec<_>>()
        );
        // The snapshot agrees entry by entry, and shard snapshots
        // partition it.
        let snap = store.snapshot();
        prop_assert_eq!(snap.len(), model.len());
        for (name, rules) in &model {
            prop_assert_eq!(snap.get(name), Some(rules));
            let got = store.get(name);
            prop_assert_eq!(got.as_ref(), Some(rules));
            // Compiled form matches the recorded rules' shape.
            let compiled = store.compiled(name).expect("recorded cluster compiles");
            prop_assert_eq!(compiled.rules.len(), rules.rules.len());
            prop_assert_eq!(&compiled.cluster, name);
        }
        let mut shard_total = 0;
        for s in 0..store.shard_count() {
            let part = store.shard_snapshot(s);
            for (name, _) in part.iter() {
                prop_assert_eq!(store.shard_of(name), s);
            }
            shard_total += part.len();
        }
        prop_assert_eq!(shard_total, model.len());
        // Stats gauges are coherent with the model.
        let stats = store.stats();
        prop_assert_eq!(stats.clusters, model.len());
        prop_assert!(stats.compiled_cache_entries <= stats.clusters);
        prop_assert_eq!(stats.compiled_cache_entries, model.len(), "all compiled above");
    }

    // Family 3: sharded durable round trip — random interleaving of
    // mutations, a crash (drop without compaction), a reopen, the rest
    // of the ops, another reopen; always equal to the model. The final
    // compact + reopen replays nothing.
    #[test]
    fn sharded_durable_replay_reproduces_model(
        ops in arb_ops(),
        shards in 1usize..6,
        compact_every in 1u64..8,
        split in 0usize..32,
    ) {
        let dir = scratch_dir("replay");
        let repo = dir.join("rules");
        let split = split.min(ops.len());
        {
            let durable = DurableRepository::open(&repo, shards, compact_every, None).unwrap();
            for op in &ops[..split] {
                match op {
                    WalOp::Record(c) => { durable.record(c.clone()).unwrap(); }
                    WalOp::Remove(name) => { durable.remove(name).unwrap(); }
                }
            }
        } // crash: wherever each shard's compaction cycle happened to be
        {
            let durable = DurableRepository::open(&repo, shards, compact_every, None).unwrap();
            prop_assert_eq!(durable.store().shard_count(), shards);
            prop_assert_eq!(store_as_map(durable.store().as_ref()), model_after(&ops[..split]));
            for op in &ops[split..] {
                match op {
                    WalOp::Record(c) => { durable.record(c.clone()).unwrap(); }
                    WalOp::Remove(name) => { durable.remove(name).unwrap(); }
                }
            }
            durable.compact().unwrap();
        }
        let durable = DurableRepository::open(&repo, shards, compact_every, None).unwrap();
        prop_assert_eq!(store_as_map(durable.store().as_ref()), model_after(&ops));
        prop_assert_eq!(durable.wal_stats().unwrap().replayed_records, 0, "compacted");
        std::fs::remove_dir_all(&dir).ok();
    }

    // Family 3b: tearing one shard's log at an arbitrary offset loses
    // only that shard's tail — every other shard replays in full, and
    // no byte pattern panics the open.
    #[test]
    fn torn_shard_wal_is_isolated(
        ops in arb_ops(),
        shards in 2usize..6,
        victim_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("torn");
        let repo = dir.join("rules");
        let shard_dir = retrozilla::layout_dir(&repo);
        {
            let durable = DurableRepository::open(&repo, shards, 1_000, None).unwrap();
            for op in &ops {
                match op {
                    WalOp::Record(c) => { durable.record(c.clone()).unwrap(); }
                    WalOp::Remove(name) => { durable.remove(name).unwrap(); }
                }
            }
        }
        let victim = ((victim_frac * shards as f64) as usize).min(shards - 1);
        let wal_path = retrozilla::ShardManifest::wal_path(&shard_dir, victim);
        let bytes = std::fs::read(&wal_path).unwrap();
        let cut = (cut_frac * bytes.len() as f64) as usize;
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        let durable = DurableRepository::open(&repo, shards, 1_000, None).unwrap();
        let store = durable.store();
        let full_model = model_after(&ops);
        // Clusters outside the victim shard: exactly the model.
        // Clusters inside it: the state after some prefix of that
        // shard's ops — so any surviving value must be one the op
        // sequence actually recorded at some point.
        for (name, rules) in &full_model {
            if store.shard_of(name) != victim {
                let got = store.get(name);
                prop_assert_eq!(got.as_ref(), Some(rules), "{} (shard intact)", name);
            }
        }
        for name in store.cluster_names() {
            if store.shard_of(&name) == victim {
                let got = store.get(&name).unwrap();
                let ever_recorded = ops.iter().any(|op| matches!(
                    op, WalOp::Record(c) if c == &got
                ));
                prop_assert!(ever_recorded, "{name} holds a value never recorded");
            } else {
                prop_assert!(full_model.contains_key(&name));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- family 2: threaded interleavings (deterministic, not proptest) --------

/// Threads own disjoint key spaces; a reader thread takes full
/// snapshots throughout. Every interleaving must leave the merged
/// per-thread sequential models, and no read may observe a torn value.
#[test]
fn threaded_disjoint_writers_match_merged_model() {
    const THREADS: usize = 4;
    const KEYS_PER_THREAD: usize = 5;
    const ROUNDS: usize = 120;
    let store = Arc::new(ShardedRepository::new(8));
    let models: Vec<BTreeMap<String, ClusterRules>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            handles.push(scope.spawn(move || {
                // Deterministic per-thread LCG drives an op stream over
                // this thread's own keys; the thread tracks its model.
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                let mut model = BTreeMap::new();
                for _ in 0..ROUNDS {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = (rng >> 33) as usize;
                    let name = format!("t{t}-k{}", r % KEYS_PER_THREAD);
                    match r % 8 {
                        0 => {
                            store.remove(&name);
                            model.remove(&name);
                        }
                        1..=3 => {
                            let c = make_cluster(&name, r % 6);
                            store.record(c.clone());
                            model.insert(name, c);
                        }
                        4..=5 => {
                            // Reads see exactly this thread's model for
                            // its own keys (nobody else writes them).
                            assert_eq!(store.get(&name), model.get(&name).cloned(), "{name}");
                        }
                        _ => {
                            let compiled = store.compiled(&name);
                            match model.get(&name) {
                                Some(c) => assert_eq!(
                                    compiled.expect("recorded").rules.len(),
                                    c.rules.len(),
                                    "{name}"
                                ),
                                None => assert!(compiled.is_none(), "{name}"),
                            }
                        }
                    }
                }
                model
            }));
        }
        // Concurrent full-snapshot readers: every observed value must
        // be internally consistent (name keys match cluster fields —
        // a torn read would break this).
        let store_r = Arc::clone(&store);
        let reader = scope.spawn(move || {
            for _ in 0..300 {
                let snap = store_r.snapshot();
                for (name, rules) in snap.iter() {
                    assert_eq!(name, rules.cluster, "snapshot tore a cluster");
                }
                let stats = store_r.stats();
                assert!(stats.compiled_cache_entries <= stats.clusters, "{stats:?}");
            }
        });
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        reader.join().unwrap();
        models
    });
    let mut merged = BTreeMap::new();
    for model in models {
        merged.extend(model);
    }
    assert_eq!(store_as_map(store.as_ref()), merged);
}

/// Writers hammering the same hot cluster from every thread: the final
/// value is the last write of *some* thread (writes are atomic — never
/// a blend), and every concurrent read returns a version some thread
/// actually wrote.
#[test]
fn contended_single_key_writes_are_atomic() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 200;
    let store = Arc::new(ShardedRepository::new(4));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Each thread writes versions in its own residue
                    // class, so any observed version identifies its
                    // writer and round.
                    let version = round * THREADS + t;
                    let mut c = ClusterRules::new("hot", &format!("page-v{version}"));
                    c.structure =
                        Some(vec![retrozilla::StructureNode::Component(format!("v{version}"))]);
                    store.record(c);
                }
            });
        }
        let store = Arc::clone(&store);
        scope.spawn(move || {
            // The newest round this reader has seen from each writer.
            let mut seen = [0; THREADS];
            for read in 0..400 {
                let got = if read % 2 == 0 {
                    store.get("hot")
                } else {
                    store.snapshot().get("hot").cloned()
                };
                let got = got.expect("always present after first write");
                // Atomicity: page_element and structure were written
                // together; a torn value would disagree.
                let version: usize = got
                    .page_element
                    .strip_prefix("page-v")
                    .expect("page element shape")
                    .parse()
                    .unwrap();
                assert_eq!(
                    got.structure,
                    Some(vec![retrozilla::StructureNode::Component(format!("v{version}"))]),
                    "torn write observed"
                );
                assert!(version < THREADS * ROUNDS);
                // Each writer's rounds are recorded in order, so a later
                // read (`get` or `snapshot`) never shows an older one.
                let (writer, round) = (version % THREADS, version / THREADS);
                assert!(
                    round >= seen[writer],
                    "read {read} saw writer {writer}'s round {round} after round {}",
                    seen[writer]
                );
                seen[writer] = round;
            }
        });
    });
    let last = store.get("hot").unwrap();
    let version: usize = last.page_element.strip_prefix("page-v").unwrap().parse().unwrap();
    // The final value is some thread's final-round write.
    assert!(version >= (ROUNDS - 1) * THREADS, "final value must be a last-round write");
    assert_eq!(store.len(), 1);
}

/// Mutations racing a durable sharded store from several threads: every
/// acknowledged mutation survives a crash + reopen, per shard, and the
/// WAL shard counters account for every append.
#[test]
fn threaded_durable_mutations_survive_crash() {
    const THREADS: usize = 4;
    const KEYS_PER_THREAD: usize = 3;
    const ROUNDS: usize = 25;
    let dir = scratch_dir("threaded-durable");
    let repo = dir.join("rules");
    let models: Vec<BTreeMap<String, ClusterRules>> = {
        let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
        let durable = Arc::new(durable);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let durable = Arc::clone(&durable);
                handles.push(scope.spawn(move || {
                    let mut rng: u64 = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(t as u64 + 1);
                    let mut model = BTreeMap::new();
                    for _ in 0..ROUNDS {
                        rng = rng
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let r = (rng >> 33) as usize;
                        let name = format!("d{t}-k{}", r % KEYS_PER_THREAD);
                        if r.is_multiple_of(5) {
                            durable.remove(&name).unwrap();
                            model.remove(&name);
                        } else {
                            let c = make_cluster(&name, r % 6);
                            durable.record(c.clone()).unwrap();
                            model.insert(name, c);
                        }
                    }
                    model
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }; // crash: durable dropped without compaction
    let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
    let mut merged = BTreeMap::new();
    for model in models {
        merged.extend(model);
    }
    assert_eq!(store_as_map(durable.store().as_ref()), merged, "replayed state == merged models");
    let per_shard = durable.shard_wal_stats().unwrap();
    assert_eq!(per_shard.len(), 4);
    let replayed: u64 = per_shard.iter().map(|s| s.replayed_records).sum();
    assert!(replayed > 0, "appends must have been logged");
    assert!(per_shard.iter().all(|s| s.replay_torn_bytes == 0), "{per_shard:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `PUT` status contract: of racing records of a new name, exactly
/// one reports that it created the cluster. `record` decides that under
/// the shard lock it inserts under; a lookup under a separate lock lets
/// two writers both see the name missing.
#[test]
fn racing_records_of_a_new_name_report_created_once() {
    const WRITERS: usize = 4;
    const TRIALS: usize = 3_000;
    for trial in 0..TRIALS {
        let store = ShardedRepository::new(1);
        let start = Barrier::new(WRITERS);
        let replaced: Vec<bool> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        start.wait();
                        store.record(make_cluster("new", w))
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let created = replaced.iter().filter(|r| !**r).count();
        assert_eq!(created, 1, "trial {trial}: records reported {replaced:?}");
    }
}

/// A [`ClusterStore`] that holds writer A's `record` until writer B's
/// durable record has returned, or for at most 200 ms: it widens the
/// window between logging A's mutation and applying it.
#[derive(Debug)]
struct StallingStore {
    inner: ShardedRepository,
    /// Signalled when A's record reaches the store.
    a_entered: Sender<()>,
    /// Signalled when B's durable record has returned.
    b_returned: Mutex<Receiver<()>>,
}

impl ClusterStore for StallingStore {
    fn get(&self, cluster: &str) -> Option<ClusterRules> {
        self.inner.get(cluster)
    }
    fn compiled(&self, cluster: &str) -> Option<Arc<CompiledCluster>> {
        self.inner.compiled(cluster)
    }
    fn record(&self, rules: ClusterRules) -> bool {
        if rules.page_element == "page-a" {
            let _ = self.a_entered.send(());
            let _ = self.b_returned.lock().unwrap().recv_timeout(Duration::from_millis(200));
        }
        self.inner.record(rules)
    }
    fn remove(&self, cluster: &str) -> bool {
        self.inner.remove(cluster)
    }
    fn snapshot(&self) -> RepositorySnapshot {
        self.inner.snapshot()
    }
    fn stats(&self) -> RepositoryStats {
        self.inner.stats()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn cluster_json(&self, cluster: &str) -> Option<Json> {
        self.inner.cluster_json(cluster)
    }
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
    fn shard_of(&self, cluster: &str) -> usize {
        self.inner.shard_of(cluster)
    }
    fn shard_snapshot(&self, shard: usize) -> RepositorySnapshot {
        self.inner.shard_snapshot(shard)
    }
    fn shard_stats(&self) -> Vec<RepositoryStats> {
        self.inner.shard_stats()
    }
}

/// Per-shard WAL order equals apply order. Writer A logs its record of
/// a cluster and then stalls inside the store; writer B records the
/// same cluster meanwhile. Log-then-apply under one shard lock keeps B
/// waiting until A has applied, so the log's last record is the live
/// value. Released between the two steps, B would log and apply inside
/// A's window, and A's late apply would leave memory disagreeing with
/// the log about who won.
#[test]
fn wal_log_order_equals_apply_order() {
    let dir = scratch_dir("log-order");
    let (a_entered, a_entered_rx) = mpsc::channel();
    let (b_returned_tx, b_returned) = mpsc::channel();
    let store = Arc::new(StallingStore {
        inner: ShardedRepository::new(1),
        a_entered,
        b_returned: Mutex::new(b_returned),
    });
    let wal = dir.join("rules.wal");
    let durable =
        DurableRepository::attach_wal(store.clone(), dir.join("rules.json"), &wal, u64::MAX)
            .unwrap();
    let cluster = |page: &str| ClusterRules::new("c", page);
    std::thread::scope(|scope| {
        let writer_a = scope.spawn(|| durable.record(cluster("page-a")).unwrap());
        a_entered_rx.recv().expect("writer A reaches the store");
        let writer_b = scope.spawn(|| {
            durable.record(cluster("page-b")).unwrap();
            let _ = b_returned_tx.send(());
        });
        writer_a.join().unwrap();
        writer_b.join().unwrap();
    });
    let logged = replay(&wal).unwrap();
    assert_eq!(logged.ops.len(), 2, "both records must be logged");
    let Some(WalOp::Record(last)) = logged.ops.last() else {
        panic!("unexpected tail op: {:?}", logged.ops.last());
    };
    let live = store.get("c").expect("cluster must exist");
    assert_eq!(live.page_element, last.page_element, "store diverged from WAL tail");
    std::fs::remove_dir_all(&dir).ok();
}
