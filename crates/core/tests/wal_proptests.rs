//! Crash-recovery property suite for the rule-mutation WAL.
//!
//! Two families of properties:
//!
//! 1. **Replay fidelity** — any random mutation sequence applied through
//!    a [`DurableRepository`] (at any compaction cadence, including
//!    "crashing" before compaction) reproduces the in-memory model
//!    exactly when the directory layout (one shard: one snapshot + one
//!    log) is reopened.
//! 2. **Torn-tail recovery** — truncating the log at an arbitrary byte
//!    offset, or flipping an arbitrary byte, never panics and always
//!    recovers exactly the longest prefix of intact records (a flip
//!    inside record *i* loses records *i*… — truncate-at-first-bad —
//!    and a flip inside the magic recovers the empty log).

use proptest::prelude::*;
use retrozilla::wal::{replay, Wal, WalOp, WAL_MAGIC};
use retrozilla::{ClusterRules, DurableRepository};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Distinct scratch dir per case so concurrent test binaries (and
/// cases) never share WAL files.
static TICKET: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "retrozilla-walprop-{tag}-{}-{}",
        std::process::id(),
        TICKET.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small cluster whose identity is observable through equality.
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

/// Random mutations over a pool of five cluster names: records carry a
/// version so replacements are distinguishable, removes may target
/// absent clusters (legal no-ops).
fn arb_ops() -> impl Strategy<Value = Vec<WalOp>> {
    let name = prop::sample::select(vec!["alpha", "beta", "gamma", "delta", "epsilon"]);
    let op = (name, 0usize..6, any::<bool>()).prop_map(|(name, version, is_record)| {
        if is_record {
            WalOp::Record(make_cluster(name, version))
        } else {
            WalOp::Remove(name.to_string())
        }
    });
    prop::collection::vec(op, 0..24)
}

/// The in-memory model: the map a perfect store would hold after `ops`.
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

fn repo_as_map(repo: &dyn retrozilla::ClusterStore) -> BTreeMap<String, ClusterRules> {
    repo.cluster_names().into_iter().map(|n| (n.clone(), repo.get(&n).unwrap())).collect()
}

/// Byte offsets where each record ends (magic counts as boundary 0's
/// end), so corruption offsets can be mapped to expected prefixes.
fn record_boundaries(ops: &[WalOp], dir: &std::path::Path) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("probe.wal");
    let (mut wal, _) = Wal::open(&path).unwrap();
    let mut ends = vec![WAL_MAGIC.len()];
    for op in ops {
        wal.append(op).unwrap();
        ends.push(wal.len() as usize);
    }
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    (bytes, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Snapshot + replay ≡ in-memory state, at any compaction cadence
    // and with a "crash" (drop without compaction) in the middle.
    #[test]
    fn replay_reproduces_model(
        ops in arb_ops(),
        compact_every in 1u64..8,
        split in 0usize..24,
    ) {
        let dir = scratch_dir("model");
        let open = || DurableRepository::open(&dir.join("rules"), 1, compact_every, None).unwrap();
        let split = split.min(ops.len());
        {
            let repo = open();
            for op in &ops[..split] {
                match op {
                    WalOp::Record(c) => { repo.record(c.clone()).unwrap(); }
                    WalOp::Remove(name) => { repo.remove(name).unwrap(); }
                }
            }
        } // crash: dropped wherever the compaction cycle happened to be
        {
            let repo = open();
            prop_assert_eq!(repo_as_map(repo.store().as_ref()), model_after(&ops[..split]));
            // Second lifetime applies the rest.
            for op in &ops[split..] {
                match op {
                    WalOp::Record(c) => { repo.record(c.clone()).unwrap(); }
                    WalOp::Remove(name) => { repo.remove(name).unwrap(); }
                }
            }
        }
        let repo = open();
        prop_assert_eq!(repo_as_map(repo.store().as_ref()), model_after(&ops));
        // An explicit compaction folds everything into the snapshot and
        // changes nothing observable.
        repo.compact().unwrap();
        drop(repo);
        let repo = open();
        prop_assert_eq!(repo_as_map(repo.store().as_ref()), model_after(&ops));
        prop_assert_eq!(repo.wal_stats().unwrap().replayed_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Truncating the log at an arbitrary offset recovers exactly the
    // records that are fully below the cut. Never panics.
    #[test]
    fn truncation_recovers_longest_prefix(
        ops in arb_ops(),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("trunc");
        let (bytes, ends) = record_boundaries(&ops, &dir);
        let cut = (cut_frac * bytes.len() as f64) as usize;
        let path = dir.join("torn.wal");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let replayed = replay(&path).unwrap();
        // Expected prefix: every record whose end fits under the cut.
        let intact = ends.iter().skip(1).filter(|&&e| e <= cut).count();
        prop_assert_eq!(replayed.ops.len(), intact);
        prop_assert_eq!(&replayed.ops[..], &ops[..intact]);
        // Opening for append truncates the torn tail and stays usable.
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalOp::Remove("post-recovery".into())).unwrap();
        drop(wal);
        let after = replay(&path).unwrap();
        prop_assert_eq!(after.ops.len(), intact + 1);
        prop_assert_eq!(after.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Flipping one byte anywhere in the log recovers exactly the
    // records before the one containing the flip (or nothing, for a
    // flip inside the magic). Never panics.
    #[test]
    fn byte_flip_truncates_at_first_bad_record(
        ops in arb_ops(),
        ofs_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let dir = scratch_dir("flip");
        let (mut bytes, ends) = record_boundaries(&ops, &dir);
        prop_assume!(!bytes.is_empty());
        let ofs = ((ofs_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[ofs] ^= mask; // mask ≥ 1: the byte genuinely changes
        let path = dir.join("flipped.wal");
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        let expect = if ofs < WAL_MAGIC.len() {
            0 // corrupt magic: the whole log is discarded, snapshot rules
        } else {
            // Records strictly before the one containing the flip.
            ends.iter().skip(1).filter(|&&e| e <= ofs).count()
        };
        prop_assert_eq!(replayed.ops.len(), expect, "flip at {} (mask {:#x})", ofs, mask);
        prop_assert_eq!(&replayed.ops[..], &ops[..expect]);
        prop_assert!(replayed.torn_bytes > 0, "corruption must be surfaced");
        // Recovery through Wal::open leaves an appendable, clean log.
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalOp::Record(make_cluster("resumed", 1))).unwrap();
        drop(wal);
        let after = replay(&path).unwrap();
        prop_assert_eq!(after.ops.len(), expect + 1);
        prop_assert_eq!(after.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
