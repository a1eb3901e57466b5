//! The repository storage seam: [`ClusterStore`] and its sharded,
//! lock-free-read implementation.
//!
//! The paper's §3.5 repository is "used by external agents, for
//! instance by the XML extractor" — a read-mostly, hot-rewrite access
//! pattern (thousands of extractions per rule reload). One
//! `RwLock<BTreeMap>` serves that fine for thousands of clusters, but
//! at the ROADMAP's millions-of-users scale the single lock becomes the
//! bottleneck once extraction itself is fast: every reader and writer,
//! for *any* cluster, serialises on the same cache line.
//!
//! This module splits the repository **API** from its **storage**:
//!
//! - [`ClusterStore`] is the trait every rule consumer programs
//!   against — extraction, drift checking, maintenance, the HTTP
//!   service, and the durability layer ([`crate::wal`]) all take a
//!   store, never a concrete map;
//! - [`ShardedRepository`] is the primary implementation: cluster names
//!   hash (FNV-1a, stable across processes — the on-disk WAL layout
//!   depends on it) onto N shards, each shard an immutable snapshot map
//!   behind an atomically-swapped snapshot cell. **Readers never take
//!   a lock**: a read
//!   is two atomic counter bumps plus an `Arc` clone of the current
//!   snapshot. Writers copy-on-write the one shard they touch under a
//!   per-shard mutex and atomically swap the snapshot in, so a write to
//!   cluster A never contends with reads (or writes) of cluster B in
//!   another shard;
//! - [`RepositorySnapshot`] is the point-in-time view the store hands
//!   out, and the in-memory form of a repository JSON file
//!   ([`RepositorySnapshot::load`] / [`save`](RepositorySnapshot::save))
//!   — serialisation works on a snapshot, so a slow save can never
//!   stall mutations.
//!
//! The compiled-rule cache rides inside the snapshot: each recorded
//! cluster's entry owns a `OnceLock<Arc<CompiledCluster>>`, compiled on
//! first use. Re-recording a cluster replaces the entry, so
//! invalidation is free and a compile for one cluster never blocks
//! readers of any other. One shard (`ShardedRepository::new(1)`) is the
//! embedded, single-map configuration.

use crate::extract::{
    extract_cluster_compiled, extract_cluster_compiled_to, extract_cluster_parallel_compiled,
    extract_cluster_parallel_compiled_to, ExtractionResult,
};
use crate::repository::{
    cluster_from_json, cluster_to_json, ClusterRules, CompiledCluster, RepositoryError,
    RepositoryStats,
};
use crate::sink::{ExtractionSink, ExtractionStats};
use retroweb_html::Document;
use retroweb_json::{parse as json_parse, Json};
use retroweb_sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use retroweb_sync::{arc_raw, Arc, Mutex, OnceLock};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

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
/// use, implemented by [`ShardedRepository`]. Listing, serialisation,
/// saving and the extraction entry points are provided on top of the
/// required methods.
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
    fn record(&self, rules: ClusterRules);

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

    /// The whole repository's JSON document, serialised from a snapshot
    /// — mutations proceed while this runs.
    fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }

    /// Crash-safe save of a snapshot: temp write → fsync → atomic
    /// rename → directory fsync (see [`crate::wal::atomic_replace`]).
    /// The snapshot is taken up front, so a slow disk never stalls
    /// concurrent mutations.
    fn save(&self, path: &Path) -> std::io::Result<()> {
        self.snapshot().save(path)
    }

    /// Extract a cluster's pages through the cached compiled rules —
    /// §3.5's "external agents, for instance the XML extractor" entry
    /// point. `None` for an unknown cluster.
    fn extract(&self, cluster: &str, pages: &[(String, Document)]) -> Option<ExtractionResult> {
        let compiled = self.compiled(cluster)?;
        Some(extract_cluster_compiled(&compiled, pages))
    }

    /// Parallel variant of [`ClusterStore::extract`] over raw HTML.
    fn extract_parallel(
        &self,
        cluster: &str,
        pages: &[(String, String)],
        threads: usize,
    ) -> Option<ExtractionResult> {
        let compiled = self.compiled(cluster)?;
        Some(extract_cluster_parallel_compiled(&compiled, pages, threads))
    }

    /// Streaming variant of [`ClusterStore::extract`]: push each page's
    /// record into `sink` as it completes. `None` for an unknown
    /// cluster.
    fn extract_to(
        &self,
        cluster: &str,
        pages: &[(String, Document)],
        sink: &mut dyn ExtractionSink,
    ) -> Option<std::io::Result<ExtractionStats>> {
        let compiled = self.compiled(cluster)?;
        Some(extract_cluster_compiled_to(&compiled, pages, sink))
    }

    /// Streaming parallel variant over raw HTML — the service batch
    /// path. Deterministic sink order, O(threads) buffering.
    fn extract_parallel_to(
        &self,
        cluster: &str,
        pages: &[(String, String)],
        threads: usize,
        sink: &mut dyn ExtractionSink,
    ) -> Option<std::io::Result<ExtractionStats>> {
        let compiled = self.compiled(cluster)?;
        Some(extract_cluster_parallel_compiled_to(&compiled, pages, threads, sink))
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

// ---- the lock-free snapshot cell -------------------------------------------

/// One shard's atomically-swapped snapshot slot.
///
/// Readers ([`SnapshotCell::load`]) are lock-free: bump the current
/// generation's guard counter, load the pointer, clone the `Arc`, drop
/// the guard — no mutex, no writer can ever block them. Writers
/// ([`SnapshotCell::swap`]) publish a new snapshot with one atomic
/// pointer swap, advance the generation, then wait for the *previous*
/// generation's guard counter to drain before releasing their
/// reference to the old snapshot.
///
/// The counters are split by generation **parity** so the writer's
/// wait is bounded: once the generation advances, new readers register
/// in the other slot, so the drained slot's population is fixed at
/// swap time and strictly shrinks — a continuous stream of readers can
/// never hold the counter above zero indefinitely (a single counter
/// would let them, stalling every writer of the shard).
///
/// # Safety argument
///
/// The hazard is a reader holding the *raw* old pointer after the
/// writer dropped its `Arc`. The guard protocol closes it. A reader
/// (a) reads the generation `g`, (b) increments `readers[g & 1]`,
/// (c) **re-reads the generation and retries from (a) if it moved** —
/// so a reader only proceeds to the pointer load while registered in
/// the slot matching the generation current *after* its increment —
/// then (d) loads the pointer and clones, (e) decrements. The writer
/// swaps the pointer, advances the generation from `g` to `g + 1`, and
/// drains `readers[g & 1]`. All operations are `SeqCst`; consider a
/// reader that dereferences the old pointer: its pointer load saw the
/// pre-swap value, so it passed its generation re-check with `g`,
/// which orders its increment of slot `g & 1` before the writer's
/// drain observes zero — the writer cannot free the old `Arc` until
/// that reader has cloned (refcount bumped) and left. A reader whose
/// re-check fails decrements and retries while holding no pointer, so
/// being registered in a stale slot is harmless. Generation parity
/// cannot alias within one drain: slot `g & 1` is reused by generation
/// `g + 2`, and a second swap cannot begin until the first finished
/// its drain (swaps are serialised by the shard write mutex).
///
/// `swap` must be externally serialised (the shard's write mutex does
/// this) — concurrent swaps would race generation advances against
/// their COW bases.
///
/// Public so the model-check suite (`tests/conc_model.rs`, run under
/// `--cfg conc_check`) can exercise the cell directly; it is not part
/// of the stable consumer API, which is [`ClusterStore`].
pub struct SnapshotCell<T> {
    /// Always a valid pointer produced by `Arc::into_raw`; the cell
    /// owns one strong reference to it.
    ptr: AtomicPtr<T>,
    /// Swap count; its parity selects the live reader slot.
    generation: AtomicUsize,
    /// Readers currently between their counter bump and their `Arc`
    /// clone completing, by generation parity.
    readers: [AtomicUsize; 2],
}

// SAFETY: the cell owns an `Arc<T>` (via the raw pointer) and hands out
// clones; it is exactly as Send/Sync as `Arc<T>` itself.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T> SnapshotCell<T> {
    pub fn new(value: Arc<T>) -> SnapshotCell<T> {
        SnapshotCell {
            ptr: AtomicPtr::new(arc_raw::into_raw(value) as *mut T),
            generation: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// Clone the current snapshot. Lock-free: a handful of atomic ops,
    /// with at most one retry per concurrent swap of this shard.
    pub fn load(&self) -> Arc<T> {
        loop {
            let generation = self.generation.load(Ordering::SeqCst);
            let slot = &self.readers[generation & 1];
            slot.fetch_add(1, Ordering::SeqCst);
            if self.generation.load(Ordering::SeqCst) != generation {
                // A swap advanced the generation between our read and
                // our registration: our slot may be the one a writer is
                // draining (or about to reuse), so step out — holding
                // no pointer, this is always safe — and re-register.
                slot.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let ptr = self.ptr.load(Ordering::SeqCst);
            // SAFETY: `ptr` came from `Arc::into_raw` and the guard
            // protocol (see the type-level safety argument) guarantees
            // no writer drops that reference while we are registered in
            // the generation-checked slot, so bumping the strong count
            // and rebuilding an `Arc` is sound.
            let arc = unsafe {
                arc_raw::increment_strong_count(ptr);
                arc_raw::from_raw(ptr)
            };
            slot.fetch_sub(1, Ordering::SeqCst);
            return arc;
        }
    }

    /// Publish `new`, then drop the cell's reference to the previous
    /// snapshot once the previous generation's in-window readers have
    /// left (a fixed, strictly-shrinking set — the wait is bounded by
    /// reader window lengths, not by reader arrival rate). Caller must
    /// hold the shard's write mutex.
    ///
    /// Returns how many drain iterations the writer spent waiting for
    /// in-window readers — 0 on the uncontended path. Callers surface
    /// the sum as the `swap_spins` shard stat, which is both a
    /// production contention signal and the liveness bound the model
    /// checker asserts on (the parity protocol guarantees the drained
    /// set only shrinks).
    pub fn swap(&self, new: Arc<T>) -> u32 {
        let generation = self.generation.load(Ordering::SeqCst);
        let old = self.ptr.swap(arc_raw::into_raw(new) as *mut T, Ordering::SeqCst);
        self.generation.store(generation.wrapping_add(1), Ordering::SeqCst);
        // Readers' windows are a handful of instructions; the only way
        // this spins for long is a reader preempted mid-window, so
        // yield promptly instead of burning the quantum (single-core
        // hosts would otherwise spin until the scheduler intervenes).
        let mut spins = 0u32;
        while self.readers[generation & 1].load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                retroweb_sync::hint::spin_loop();
            } else {
                retroweb_sync::thread::yield_now();
            }
        }
        // SAFETY: `old` came from `Arc::into_raw` (cell invariant) and
        // no reader still holds it raw (the previous generation's slot
        // drained; later readers see the new pointer), so reclaiming
        // the cell's strong reference is sound.
        unsafe { drop(arc_raw::from_raw(old)) };
        spins
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no readers exist; reclaim the
        // cell's strong reference.
        unsafe { drop(arc_raw::from_raw(self.ptr.load(Ordering::SeqCst))) };
    }
}

impl<T: fmt::Debug> fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotCell").field("value", &self.load()).finish()
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
    snap: SnapshotCell<ShardMap>,
    /// Serialises writers to this shard (readers never touch it).
    write: Mutex<()>,
    hits: AtomicU64,
    builds: AtomicU64,
    invalidations: AtomicU64,
    /// Total snapshot-swap drain iterations writers spent waiting for
    /// in-window readers (see [`SnapshotCell::swap`]).
    swap_spins: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            snap: SnapshotCell::new(Arc::new(ShardMap::new())),
            write: Mutex::new(()),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            swap_spins: AtomicU64::new(0),
        }
    }
}

/// The primary [`ClusterStore`]: N shards by cluster-name hash, each an
/// immutable snapshot map swapped atomically on write. See the module
/// docs for the read/write protocol; see [`crate::wal`] for the
/// per-shard durability layer that pairs with it.
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
            let map = shard.snap.load();
            for (name, entry) in map.iter() {
                merged.insert(name.clone(), Arc::clone(&entry.rules));
            }
        }
        RepositorySnapshot::from_arcs(merged)
    }
}

impl ClusterStore for ShardedRepository {
    fn get(&self, cluster: &str) -> Option<ClusterRules> {
        let map = self.shard(cluster).snap.load();
        map.get(cluster).map(|e| (*e.rules).clone())
    }

    fn compiled(&self, cluster: &str) -> Option<Arc<CompiledCluster>> {
        let shard = self.shard(cluster);
        let entry = {
            let map = shard.snap.load();
            Arc::clone(map.get(cluster)?)
        };
        // Compilation happens outside any map lock or snapshot window:
        // a slow compile for this cluster only ever blocks other
        // first-readers of this same entry (OnceLock), never readers of
        // other clusters — even in the same shard.
        let mut built = false;
        let compiled = entry
            .compiled
            .get_or_init(|| {
                built = true;
                Arc::new(entry.rules.compile())
            })
            .clone();
        if built {
            shard.builds.fetch_add(1, Ordering::Relaxed); // sync-lint: counter
        } else {
            shard.hits.fetch_add(1, Ordering::Relaxed); // sync-lint: counter
        }
        Some(compiled)
    }

    fn record(&self, rules: ClusterRules) {
        let shard = self.shard(&rules.cluster);
        let name = rules.cluster.clone();
        let entry = Arc::new(ClusterEntry { rules: Arc::new(rules), compiled: OnceLock::new() });
        let _writer = shard.write.lock().expect("shard write lock poisoned");
        let current = shard.snap.load();
        let mut next = (*current).clone();
        let previous = next.insert(name, entry);
        if previous.is_some_and(|e| e.compiled.get().is_some()) {
            shard.invalidations.fetch_add(1, Ordering::Relaxed); // sync-lint: counter
        }
        let spins = shard.snap.swap(Arc::new(next));
        shard.swap_spins.fetch_add(u64::from(spins), Ordering::Relaxed); // sync-lint: counter
    }

    fn remove(&self, cluster: &str) -> bool {
        let shard = self.shard(cluster);
        let _writer = shard.write.lock().expect("shard write lock poisoned");
        let current = shard.snap.load();
        if !current.contains_key(cluster) {
            return false;
        }
        let mut next = (*current).clone();
        let removed = next.remove(cluster);
        if removed.is_some_and(|e| e.compiled.get().is_some()) {
            shard.invalidations.fetch_add(1, Ordering::Relaxed); // sync-lint: counter
        }
        let spins = shard.snap.swap(Arc::new(next));
        shard.swap_spins.fetch_add(u64::from(spins), Ordering::Relaxed); // sync-lint: counter
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
        self.shards.iter().map(|shard| shard.snap.load().len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.snap.load().is_empty())
    }

    fn cluster_json(&self, cluster: &str) -> Option<Json> {
        // Serialise from the shared entry — the provided default would
        // deep-clone the whole rule set first (`get`), per request.
        let map = self.shard(cluster).snap.load();
        map.get(cluster).map(|entry| entry.rules.to_json())
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
                let map = shard.snap.load();
                let mut stats = RepositoryStats {
                    clusters: map.len(),
                    compiled_cache_entries: map
                        .values()
                        .filter(|e| e.compiled.get().is_some())
                        .count(),
                    compiled_cache_hits: shard.hits.load(Ordering::Relaxed), // sync-lint: counter
                    compiled_cache_builds: shard.builds.load(Ordering::Relaxed), // sync-lint: counter
                    compiled_cache_invalidations: shard.invalidations.load(Ordering::Relaxed), // sync-lint: counter
                    swap_spins: shard.swap_spins.load(Ordering::Relaxed), // sync-lint: counter
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
        // Replacement is observable.
        store.record(cluster("c7", 2));
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
        assert_eq!(store.to_json().as_array().unwrap().len(), 1);
        assert!(store.compiled("dyn").is_some());
    }

    #[test]
    fn snapshot_cell_survives_concurrent_churn() {
        // Stress the lock-free protocol: 4 readers spinning on load()
        // while a writer swaps continuously. Miri-style proof is out of
        // scope; this catches ordering regressions and use-after-free
        // under real scheduling (run with --release too).
        let cell = Arc::new(SnapshotCell::new(Arc::new(0usize)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut last = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let seen = *cell.load();
                    assert!(seen >= last, "snapshots must be monotone: {seen} < {last}");
                    last = seen;
                }
            }));
        }
        for version in 1..2_000usize {
            cell.swap(Arc::new(version));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*cell.load(), 1_999);
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
