//! Model-checked concurrency suite for the core crate: the sharded
//! store's reads and writes under its per-shard map lock, and the
//! durable repository's log-then-apply discipline.
//!
//! Built only under `RUSTFLAGS="--cfg conc_check"`; see
//! `docs/CONCURRENCY.md` for the invariants and how to replay a
//! failing schedule.
#![cfg(conc_check)]

use retroweb_sync::check::{model_with, Config};
use retroweb_sync::{thread, Arc};
use retrozilla::store::{ClusterStore, ShardedRepository};
use retrozilla::wal::{layout_dir, replay, DurableRepository, ShardManifest, WalOp};
use retrozilla::{ClusterRules, ComponentName, Format, MappingRule, Multiplicity, Optionality};

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

/// Point-in-time reads: two readers `get` and then `snapshot` one
/// cluster while a writer re-records it. On every interleaving each
/// read sees exactly the old rules or the new ones, and a reader's
/// later read is never older than its earlier one.
#[test]
fn store_readers_see_old_or_new_rules_while_a_writer_rerecords() {
    let explored = model_with(Config::dfs(2), || {
        let store = Arc::new(ShardedRepository::new(1));
        store.record(cluster("c", 1));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    let got = store.get("c").expect("never removed").rules.len();
                    let snap = store.snapshot().get("c").expect("never removed").rules.len();
                    assert!(got == 1 || got == 2, "torn get: {got} rules");
                    assert!(snap == 1 || snap == 2, "torn snapshot: {snap} rules");
                    assert!(snap >= got, "snapshot older than an earlier get: {snap} < {got}");
                })
            })
            .collect();
        assert!(store.record(cluster("c", 2)), "a re-record replaces");
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.get("c").unwrap().rules.len(), 2, "record did not publish");
    });
    assert!(!explored.truncated);
    assert!(explored.iterations > 1, "expected multiple interleavings");
}

/// The PUT status contract: two racing records of a new name through
/// the durable layer, and on every interleaving exactly one of them
/// reports that it created the cluster (`false`, nothing replaced).
#[test]
fn racing_records_of_a_new_name_report_new_exactly_once() {
    let explored = model_with(Config::dfs(2), || {
        let store: Arc<dyn ClusterStore> = Arc::new(ShardedRepository::new(1));
        let durable = Arc::new(DurableRepository::ephemeral(store));
        let writers: Vec<_> = (1..=2usize)
            .map(|n| {
                let durable = Arc::clone(&durable);
                thread::spawn(move || durable.record(cluster("c", n)).unwrap())
            })
            .collect();
        let replaced: Vec<bool> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        let created = replaced.iter().filter(|r| !**r).count();
        assert_eq!(created, 1, "records reported {replaced:?}");
    });
    assert!(!explored.truncated);
    assert!(explored.iterations > 1, "expected multiple interleavings");
}

/// Per-shard WAL order == apply order: two writers race `record`s of
/// the same cluster; on every interleaving the store's final rules must
/// be the *last* record the log holds — log-then-apply under one shard
/// lock means the log can never disagree with memory about who won.
#[test]
fn wal_log_order_equals_apply_order() {
    // Each explored schedule gets a fresh directory; a plain std atomic
    // (deliberately not the instrumented facade — setup bookkeeping,
    // not modelled state) hands out unique names.
    let seq = std::sync::atomic::AtomicUsize::new(0);
    let explored = model_with(Config::dfs(2), || {
        let dir = std::env::temp_dir().join(format!(
            "retrozilla-conc-wal-{}-{}",
            std::process::id(),
            seq.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = dir.join("rules");
        let durable = DurableRepository::open(&repo, 1, u64::MAX, None).unwrap();
        let durable = Arc::new(durable);
        let writers: Vec<_> = (1..=2u8)
            .map(|n| {
                let durable = Arc::clone(&durable);
                thread::spawn(move || durable.record(cluster("c", n as usize)).unwrap())
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let logged = replay(&ShardManifest::wal_path(&layout_dir(&repo), 0)).unwrap();
        assert_eq!(logged.ops.len(), 2, "both records must be logged");
        let last = match logged.ops.last().unwrap() {
            WalOp::Record(rules) => rules.rules.len(),
            other => panic!("unexpected tail op: {other:?}"),
        };
        let live = durable.store().get("c").expect("cluster must exist").rules.len();
        assert_eq!(live, last, "store state diverged from WAL tail");
        let _ = std::fs::remove_dir_all(&dir);
    });
    assert!(!explored.truncated);
}
