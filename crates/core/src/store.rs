//! The repository storage seam: [`ClusterStore`] and its sharded
//! implementation.
//!
//! The paper's §3.5 repository is "used by external agents, for
//! instance by the XML extractor" — a read-mostly, hot-rewrite access
//! pattern (thousands of extractions per rule reload). One lock over
//! one map makes every reader and writer, for *any* cluster, serialise
//! on the same cache line once extraction itself is fast.
//!
//! This module splits the repository **API** from its **storage**:
//!
//! - [`ClusterStore`] is the trait every rule consumer programs
//!   against — extraction, drift checking, maintenance, the HTTP
//!   service, and the durability layer ([`crate::wal`]) all take a
//!   store, never a concrete map;
//! - [`ShardedRepository`] is the implementation: cluster names hash
//!   (FNV-1a, stable across processes — the on-disk WAL layout depends
//!   on it) onto N shards, each a `Mutex<Arc<ShardMap>>`. A reader
//!   holds the shard's lock only long enough to clone one `Arc` (the
//!   entry it needs, or the whole map for a snapshot); deep clones,
//!   compiles and serialisation run after the lock is released. A
//!   writer edits the map in place through `Arc::make_mut`, which copies
//!   it only while a snapshot of it is still held elsewhere. A write to
//!   cluster A never contends with reads (or writes) of cluster B in
//!   another shard;
//! - [`RepositorySnapshot`] is the point-in-time view the store hands
//!   out, and the in-memory form of a repository JSON file
//!   ([`RepositorySnapshot::load`] / [`save`](RepositorySnapshot::save))
//!   — serialisation works on a snapshot, so a slow save can never
//!   stall mutations.
//!
//! The compiled-rule cache rides inside the map: each recorded
//! cluster's entry owns a `OnceLock<Arc<CompiledCluster>>`, compiled on
//! first use. Re-recording a cluster replaces the entry, so
//! invalidation is free and a compile for one cluster never blocks
//! readers of any other. One shard (`ShardedRepository::new(1)`) is the
//! embedded, single-map configuration.

use crate::repository::{
    cluster_from_json, cluster_to_json, ClusterRules, CompiledCluster, RepositoryError,
    RepositoryStats,
};
use retroweb_json::{parse as json_parse, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Stable shard routing: FNV-1a 64 over the cluster name, modulo the
/// shard count. Deliberately *not* `std::hash` — the per-shard WAL
/// directory layout persists shard assignments on disk, so the hash
/// must never change across processes, platforms or std releases.
pub fn shard_for(cluster: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in cluster.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

// ---- the storage trait -----------------------------------------------------

/// The repository storage API — the **only** interface rule consumers
/// use, implemented by [`ShardedRepository`]. Listing, serialisation
/// and saving are provided on top of the required methods; extraction
/// runs the rules [`compiled`](ClusterStore::compiled) returns.
///
/// Implementations must be safe to share across threads; mutations are
/// `&self` (interior mutability), matching the serving layer where one
/// store is hit by every worker at once.
pub trait ClusterStore: Send + Sync + fmt::Debug {
    /// A cluster's rules by name (cloned out of the store).
    fn get(&self, cluster: &str) -> Option<ClusterRules>;

    /// The cluster's rules in compiled form, built and cached on first
    /// use; callers across threads share the same `Arc`.
    fn compiled(&self, cluster: &str) -> Option<Arc<CompiledCluster>>;

    /// Insert-or-replace a cluster's rules, invalidating any cached
    /// compilation of the same cluster (the hot-reload contract).
    /// Returns whether a cluster of that name was replaced. The store
    /// decides this under its own lock, so of two racing records of a
    /// new name exactly one reports `false`.
    fn record(&self, rules: ClusterRules) -> bool;

    /// Remove a cluster (and its cached compilation). Returns whether
    /// it existed.
    fn remove(&self, cluster: &str) -> bool;

    /// A point-in-time view of every recorded cluster. Cheap (`Arc`
    /// clones, no rule deep-copies); mutations after the call never
    /// affect the returned snapshot.
    fn snapshot(&self) -> RepositorySnapshot;

    /// Aggregate cache/size counters.
    fn stats(&self) -> RepositoryStats;

    /// Number of recorded clusters.
    fn len(&self) -> usize;

    /// True when no clusters are recorded.
    fn is_empty(&self) -> bool;

    /// One cluster's repository-JSON shape (the `GET /clusters/{name}`
    /// payload).
    fn cluster_json(&self, cluster: &str) -> Option<Json>;

    // ---- shard topology ---------------------------------------------------

    /// How many shards this store routes across.
    fn shard_count(&self) -> usize;

    /// Which shard a cluster name routes to. The durability layer uses
    /// this to pick the WAL a mutation is logged in, so it must agree
    /// with where `record` puts the cluster.
    fn shard_of(&self, cluster: &str) -> usize;

    /// Point-in-time view of one shard's clusters.
    fn shard_snapshot(&self, shard: usize) -> RepositorySnapshot;

    /// Per-shard cache/size counters (one entry per shard).
    fn shard_stats(&self) -> Vec<RepositoryStats>;

    // ---- provided consumer surface ----------------------------------------

    /// Recorded cluster names, from a snapshot (never holds a lock
    /// while allocating the list).
    fn cluster_names(&self) -> Vec<String> {
        self.snapshot().cluster_names()
    }
}

// ---- snapshots -------------------------------------------------------------

/// A point-in-time, immutable view of a repository's clusters. Holds
/// `Arc`s of the recorded rules, so taking one is O(clusters) pointer
/// work, never a deep copy — and serialising it can't see (or block)
/// later mutations.
#[derive(Clone, Debug, Default)]
pub struct RepositorySnapshot {
    clusters: BTreeMap<String, Arc<ClusterRules>>,
}

impl RepositorySnapshot {
    pub(crate) fn from_arcs(clusters: BTreeMap<String, Arc<ClusterRules>>) -> RepositorySnapshot {
        RepositorySnapshot { clusters }
    }

    pub fn get(&self, cluster: &str) -> Option<&ClusterRules> {
        self.clusters.get(cluster).map(Arc::as_ref)
    }

    pub fn cluster_names(&self) -> Vec<String> {
        self.clusters.keys().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Iterate clusters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ClusterRules)> {
        self.clusters.iter().map(|(n, c)| (n.as_str(), c.as_ref()))
    }

    /// The repository JSON document (array of cluster objects) for this
    /// snapshot's state.
    pub fn to_json(&self) -> Json {
        Json::Array(self.clusters.values().map(|c| cluster_to_json(c)).collect())
    }

    /// Crash-safe save of exactly this snapshot's state (see
    /// [`crate::wal::atomic_replace`] for the durability sequence).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.save_with_observer(path, &mut |_| {})
    }

    /// [`save`](Self::save) with the durability-step observer seam
    /// exposed for tests that assert the fsync ordering.
    pub fn save_with_observer(
        &self,
        path: &Path,
        observe: &mut dyn FnMut(crate::wal::FsStep),
    ) -> std::io::Result<()> {
        let text = self.to_json().to_string_pretty();
        crate::wal::atomic_replace(path, text.as_bytes(), observe)
    }

    /// Parse a repository JSON document (an array of cluster objects).
    /// A later entry for the same cluster name replaces an earlier one.
    pub fn from_json(json: &Json) -> Result<RepositorySnapshot, RepositoryError> {
        let items = json
            .as_array()
            .ok_or_else(|| RepositoryError::new("repository document must be an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| cluster_from_json(item).map_err(|e| e.prefix_key(format!("[{i}]"))))
            .collect()
    }

    /// Read a repository JSON file written by [`save`](Self::save).
    /// Errors name the file.
    pub fn load(path: &Path) -> Result<RepositorySnapshot, RepositoryError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RepositoryError::new(format!("cannot read file: {e}")).with_path(path))?;
        let json = json_parse(&text)
            .map_err(|e| RepositoryError::new(format!("bad JSON: {e}")).with_path(path))?;
        RepositorySnapshot::from_json(&json).map_err(|e| e.with_path(path))
    }
}

/// Collect clusters into a snapshot; a later cluster with the same name
/// replaces an earlier one, as `record` would.
impl FromIterator<ClusterRules> for RepositorySnapshot {
    fn from_iter<I: IntoIterator<Item = ClusterRules>>(clusters: I) -> RepositorySnapshot {
        RepositorySnapshot::from_arcs(
            clusters.into_iter().map(|c| (c.cluster.clone(), Arc::new(c))).collect(),
        )
    }
}

// ---- the sharded repository ------------------------------------------------

/// One recorded cluster plus its lazily-built compilation. Entries are
/// immutable once inserted — a re-record swaps in a *new* entry, which
/// is what makes compiled-cache invalidation free.
#[derive(Debug)]
struct ClusterEntry {
    rules: Arc<ClusterRules>,
    compiled: OnceLock<Arc<CompiledCluster>>,
}

type ShardMap = BTreeMap<String, Arc<ClusterEntry>>;

#[derive(Debug)]
struct Shard {
    /// The shard's clusters. Readers clone an `Arc` out under the lock;
    /// writers edit in place through `Arc::make_mut`, which copies the
    /// map only while a snapshot of it is still held elsewhere.
    map: Mutex<Arc<ShardMap>>,
    /// Compiled-cache statistics. Every access is `Relaxed`: each counter
    /// only ever grows, and nothing orders other memory by it or branches
    /// on it, so a stats read may lag a racing update but never misleads.
    hits: AtomicU64,
    builds: AtomicU64,
    invalidations: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: Mutex::new(Arc::new(ShardMap::new())),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Arc<ShardMap>> {
        self.map.lock().expect("shard map lock poisoned")
    }

    /// The shard's map as of now; later writes copy rather than touch it.
    fn map(&self) -> Arc<ShardMap> {
        Arc::clone(&self.lock())
    }

    /// One cluster's entry, cloned out so the caller works unlocked.
    fn entry(&self, cluster: &str) -> Option<Arc<ClusterEntry>> {
        self.lock().get(cluster).cloned()
    }

    /// Count the compilation a replaced or removed entry drops.
    fn count_invalidation(&self, entry: Option<&Arc<ClusterEntry>>) {
        if entry.is_some_and(|e| e.compiled.get().is_some()) {
            self.invalidations.fetch_add(1, Ordering::Relaxed); // a statistic only
        }
    }
}

/// The [`ClusterStore`]: N shards by cluster-name hash, each one map
/// behind its own mutex. See the module docs for the read/write
/// protocol; see [`crate::wal`] for the per-shard durability layer that
/// pairs with it.
#[derive(Debug)]
pub struct ShardedRepository {
    shards: Box<[Shard]>,
}

impl ShardedRepository {
    /// A store with `shards` shards (clamped to at least 1). Shard
    /// count is fixed for the store's lifetime — resharding an on-disk
    /// layout is a ROADMAP follow-up.
    pub fn new(shards: usize) -> ShardedRepository {
        let n = shards.max(1);
        ShardedRepository { shards: (0..n).map(|_| Shard::new()).collect() }
    }

    fn shard(&self, cluster: &str) -> &Shard {
        &self.shards[shard_for(cluster, self.shards.len())]
    }

    fn snapshot_of(&self, indices: std::ops::Range<usize>) -> RepositorySnapshot {
        let mut merged = BTreeMap::new();
        for shard in &self.shards[indices] {
            for (name, entry) in shard.map().iter() {
                merged.insert(name.clone(), Arc::clone(&entry.rules));
            }
        }
        RepositorySnapshot::from_arcs(merged)
    }
}

impl ClusterStore for ShardedRepository {
    fn get(&self, cluster: &str) -> Option<ClusterRules> {
        let entry = self.shard(cluster).entry(cluster)?;
        Some((*entry.rules).clone())
    }

    fn compiled(&self, cluster: &str) -> Option<Arc<CompiledCluster>> {
        let shard = self.shard(cluster);
        let entry = shard.entry(cluster)?;
        // Compilation happens outside the map lock: a slow compile for
        // this cluster only ever blocks other first-readers of this
        // same entry (OnceLock), never readers of other clusters —
        // even in the same shard.
        let mut built = false;
        let compiled = entry
            .compiled
            .get_or_init(|| {
                built = true;
                Arc::new(entry.rules.compile())
            })
            .clone();
        if built {
            shard.builds.fetch_add(1, Ordering::Relaxed); // a statistic only
        } else {
            shard.hits.fetch_add(1, Ordering::Relaxed); // a statistic only
        }
        Some(compiled)
    }

    fn record(&self, rules: ClusterRules) -> bool {
        let shard = self.shard(&rules.cluster);
        let name = rules.cluster.clone();
        let entry = Arc::new(ClusterEntry { rules: Arc::new(rules), compiled: OnceLock::new() });
        // The guard is a temporary: the lock is released before the
        // replaced entry (and any compilation it cached) drops.
        let previous = Arc::make_mut(&mut shard.lock()).insert(name, entry);
        shard.count_invalidation(previous.as_ref());
        previous.is_some()
    }

    fn remove(&self, cluster: &str) -> bool {
        let shard = self.shard(cluster);
        let removed = {
            let mut map = shard.lock();
            if !map.contains_key(cluster) {
                return false;
            }
            Arc::make_mut(&mut map).remove(cluster)
        };
        shard.count_invalidation(removed.as_ref());
        true
    }

    fn snapshot(&self) -> RepositorySnapshot {
        self.snapshot_of(0..self.shards.len())
    }

    fn stats(&self) -> RepositoryStats {
        let mut total = RepositoryStats::default();
        for per_shard in self.shard_stats() {
            total.accumulate(&per_shard);
        }
        total
    }

    fn len(&self) -> usize {
        // O(shards), not the stats() entry walk — /healthz polls this.
        // Read under the lock rather than through `map()`: holding no
        // map clone, it never makes the next write copy the shard.
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.lock().is_empty())
    }

    fn cluster_json(&self, cluster: &str) -> Option<Json> {
        // Serialise from the shared entry rather than a deep clone.
        let entry = self.shard(cluster).entry(cluster)?;
        Some(entry.rules.to_json())
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, cluster: &str) -> usize {
        shard_for(cluster, self.shards.len())
    }

    fn shard_snapshot(&self, shard: usize) -> RepositorySnapshot {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        self.snapshot_of(shard..shard + 1)
    }

    fn shard_stats(&self) -> Vec<RepositoryStats> {
        self.shards
            .iter()
            .map(|shard| {
                let map = shard.map();
                let mut stats = RepositoryStats {
                    clusters: map.len(),
                    compiled_cache_entries: map
                        .values()
                        .filter(|e| e.compiled.get().is_some())
                        .count(),
                    // Statistics only, so `Relaxed` (see `Shard`).
                    compiled_cache_hits: shard.hits.load(Ordering::Relaxed),
                    compiled_cache_builds: shard.builds.load(Ordering::Relaxed),
                    compiled_cache_invalidations: shard.invalidations.load(Ordering::Relaxed),
                    ..RepositoryStats::default()
                };
                for compiled in map.values().filter_map(|e| e.compiled.get()) {
                    stats.observe_fused_plan(&compiled.fused().stats());
                    stats.observe_lint(compiled.lint());
                }
                stats
            })
            .collect()
    }
}

impl Default for ShardedRepository {
    /// Eight shards: the service default, and the shard count the
    /// committed contention benchmarks use.
    fn default() -> ShardedRepository {
        ShardedRepository::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ComponentName, Format, Multiplicity, Optionality};
    use crate::MappingRule;

    fn cluster(name: &str, n_rules: usize) -> ClusterRules {
        let mut c = ClusterRules::new(name, "page");
        for i in 0..n_rules {
            c.rules.push(MappingRule {
                name: ComponentName::new(&format!("c{i}")).unwrap(),
                optionality: Optionality::Mandatory,
                multiplicity: Multiplicity::SingleValued,
                format: Format::Text,
                locations: vec![retroweb_xpath::parse("/HTML[1]/BODY[1]/H1[1]/text()").unwrap()],
                post: vec![],
            });
        }
        c
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        // Pinned values: the on-disk WAL layout depends on this hash
        // never changing. If this test fails, you broke every existing
        // sharded repository directory.
        assert_eq!(shard_for("imdb-movies", 8), shard_for("imdb-movies", 8));
        assert_eq!(shard_for("", 8), 5);
        assert_eq!(shard_for("imdb-movies", 8), 5);
        assert_eq!(shard_for("demo-movies", 8), 0);
        for n in 1..32 {
            for name in ["a", "b", "imdb-movies", "x y z", "日本語"] {
                assert!(shard_for(name, n) < n);
            }
        }
        // Names actually spread: 256 names over 8 shards never leave a
        // shard empty (probability of a false failure ~ 8·(7/8)^256).
        let mut counts = [0usize; 8];
        for i in 0..256 {
            counts[shard_for(&format!("cluster-{i}"), 8)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn record_get_remove_round_trip() {
        let store = ShardedRepository::new(4);
        assert!(store.is_empty());
        for i in 0..20 {
            store.record(cluster(&format!("c{i}"), i % 3));
        }
        assert_eq!(store.len(), 20);
        assert_eq!(store.get("c7"), Some(cluster("c7", 1)));
        assert!(store.get("nope").is_none());
        // Replacement is observable, and reported.
        assert!(store.record(cluster("c7", 2)));
        assert!(!store.record(cluster("fresh", 0)));
        assert!(store.remove("fresh"));
        assert_eq!(store.get("c7"), Some(cluster("c7", 2)));
        assert_eq!(store.len(), 20);
        assert!(store.remove("c7"));
        assert!(!store.remove("c7"));
        assert_eq!(store.len(), 19);
        let names = store.cluster_names();
        assert_eq!(names.len(), 19);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "names sorted: {names:?}");
    }

    #[test]
    fn compiled_is_cached_per_entry_and_invalidated_by_rerecord() {
        let store = ShardedRepository::new(2);
        store.record(cluster("a", 2));
        let first = store.compiled("a").unwrap();
        let second = store.compiled("a").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.rules.len(), 2);
        store.record(cluster("a", 1));
        let third = store.compiled("a").unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(third.rules.len(), 1);
        assert!(store.compiled("nope").is_none());
        let stats = store.stats();
        assert_eq!(stats.compiled_cache_builds, 2);
        assert_eq!(stats.compiled_cache_hits, 1);
        assert_eq!(stats.compiled_cache_invalidations, 1);
        assert_eq!(stats.compiled_cache_entries, 1);
        assert!(stats.compiled_cache_entries <= stats.clusters);
    }

    #[test]
    fn snapshots_are_point_in_time() {
        let store = ShardedRepository::new(4);
        store.record(cluster("a", 1));
        store.record(cluster("b", 2));
        let snap = store.snapshot();
        // Mutate after the snapshot: it must not move.
        store.record(cluster("a", 2));
        store.remove("b");
        store.record(cluster("c", 1));
        assert_eq!(snap.cluster_names(), vec!["a", "b"]);
        assert_eq!(snap.get("a"), Some(&cluster("a", 1)));
        assert_eq!(snap.get("b"), Some(&cluster("b", 2)));
        assert!(snap.get("c").is_none());
        // And the live store reflects the mutations.
        assert_eq!(store.cluster_names(), vec!["a", "c"]);
        // Serialising the snapshot equals serialising its contents.
        let json = snap.to_json();
        assert_eq!(json.as_array().unwrap().len(), 2);
    }

    #[test]
    fn shard_snapshots_partition_the_store() {
        let store = ShardedRepository::new(8);
        for i in 0..64 {
            store.record(cluster(&format!("c{i}"), 1));
        }
        let mut union = Vec::new();
        let mut total = 0;
        for s in 0..store.shard_count() {
            let part = store.shard_snapshot(s);
            for (name, _) in part.iter() {
                assert_eq!(store.shard_of(name), s, "{name} must live in its routed shard");
                union.push(name.to_string());
            }
            total += part.len();
        }
        assert_eq!(total, 64);
        union.sort();
        assert_eq!(union, store.cluster_names());
        // Per-shard stats sum to the aggregate.
        let agg = store.stats();
        let sum: usize = store.shard_stats().iter().map(|s| s.clusters).sum();
        assert_eq!(agg.clusters, sum);
    }

    #[test]
    fn trait_object_surface_works() {
        let store: Arc<dyn ClusterStore> = Arc::new(ShardedRepository::new(3));
        store.record(cluster("dyn", 1));
        assert_eq!(store.len(), 1);
        assert!(store.cluster_json("dyn").is_some());
        assert_eq!(store.snapshot().to_json().as_array().unwrap().len(), 1);
        assert!(store.compiled("dyn").is_some());
    }

    #[test]
    fn reads_never_go_back_while_a_writer_rerecords() {
        // 4 readers poll one cluster through get, compiled and snapshot
        // while a writer re-records it with increasing versions: every
        // read sees a whole recorded version, and versions never go
        // down. Catches ordering regressions under real scheduling (run
        // with --release too).
        fn version(page_element: &str) -> usize {
            page_element.trim_start_matches('v').parse().expect("a recorded version")
        }
        let store = Arc::new(ShardedRepository::new(1));
        assert!(!store.record(ClusterRules::new("c", "v0")));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for reader in 0..4usize {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut last = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let page_element = match reader % 3 {
                        0 => store.get("c").map(|c| c.page_element),
                        1 => store.compiled("c").map(|c| c.page_element.clone()),
                        _ => store.snapshot().get("c").map(|c| c.page_element.clone()),
                    };
                    let seen = version(&page_element.expect("never removed"));
                    assert!(seen >= last, "reads must be monotone: {seen} < {last}");
                    last = seen;
                }
            }));
        }
        for v in 1..2_000usize {
            assert!(store.record(ClusterRules::new("c", &format!("v{v}"))), "a re-record replaces");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.get("c").unwrap().page_element, "v1999");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn concurrent_mixed_ops_stay_coherent() {
        // 4 writer threads over disjoint name spaces + shared readers:
        // after the dust settles, the store equals the per-thread
        // sequential models merged.
        let store = Arc::new(ShardedRepository::new(8));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for round in 0..50usize {
                        for k in 0..4usize {
                            let name = format!("t{t}-k{k}");
                            store.record(cluster(&name, (round + k) % 3));
                            let got = store.get(&name).expect("just recorded");
                            assert_eq!(got.rules.len(), (round + k) % 3);
                            store.compiled(&name).expect("compilable");
                        }
                        store.remove(&format!("t{t}-k0"));
                    }
                });
            }
            // A reader thread taking full snapshots throughout.
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = store.snapshot();
                    for (name, rules) in snap.iter() {
                        assert_eq!(name, rules.cluster);
                    }
                }
            });
        });
        // Final state: k0 removed, k1..k3 at their last version.
        for t in 0..4usize {
            assert!(store.get(&format!("t{t}-k0")).is_none());
            for k in 1..4usize {
                assert_eq!(
                    store.get(&format!("t{t}-k{k}")).unwrap().rules.len(),
                    (49 + k) % 3,
                    "t{t}-k{k}"
                );
            }
        }
        assert_eq!(store.len(), 12);
    }
}
