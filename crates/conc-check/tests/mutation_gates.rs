//! Mutation gates: deliberately broken replicas of synchronisation
//! protocols, each of which the model checker MUST catch — with the
//! interleaving trace in the report. These pin the checker's power:
//! if a refactor of the checker stops failing one of these, the
//! checker has lost the ability to see that bug class, and the gate —
//! not production — is where that shows up.
//!
//! Each replica mirrors a protocol `crates/core/tests/conc_model.rs`
//! checks on the real store and WAL, and comes in two builds: the
//! correct one, which must pass exhaustively, and the one with a single
//! mutation applied, which must fail.
//!
//! Run with `RUSTFLAGS="--cfg conc_check" cargo test -p
//! retroweb-conc-check --test mutation_gates`.
#![cfg(conc_check)]

use retroweb_sync::check::{model_with, Config};
use retroweb_sync::{thread, Arc, Mutex};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn expect_failure(cfg: Config, f: impl Fn() + Send + 'static) -> String {
    let result = catch_unwind(AssertUnwindSafe(move || model_with(cfg, f)));
    match result {
        Ok(_) => panic!("mutant survived: the checker failed to catch it"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into()),
    }
}

fn expect_pass(cfg: Config, f: impl Fn()) {
    let explored = model_with(cfg, f);
    assert!(!explored.truncated);
    assert!(explored.iterations > 1, "expected multiple interleavings");
}

// ---- gate 1: `replaced` decided outside the insert -------------------------
//
// The store's `record` reports whether it replaced a cluster, and the
// `PUT` handler answers `201` only when it did not. The answer must come
// from the insert itself, under the shard lock. Deciding it by a lookup
// taken under a separate lock acquisition lets two racing creators of
// the same name both see "absent", and both report that they created it.

struct Shard {
    map: Mutex<BTreeMap<&'static str, usize>>,
    split_lookup: bool,
}

impl Shard {
    fn record(&self, name: &'static str, rules: usize) -> bool {
        if self.split_lookup {
            // MUTATION: the lookup and the insert take the lock twice.
            let replaced = self.map.lock().unwrap().contains_key(name);
            self.map.lock().unwrap().insert(name, rules);
            return replaced;
        }
        self.map.lock().unwrap().insert(name, rules).is_some()
    }
}

fn racing_creators(split_lookup: bool) -> impl Fn() + Send + 'static {
    move || {
        let shard = Arc::new(Shard { map: Mutex::new(BTreeMap::new()), split_lookup });
        let writers: Vec<_> = (1..=2)
            .map(|n| {
                let shard = Arc::clone(&shard);
                thread::spawn(move || shard.record("c", n))
            })
            .collect();
        let replaced: Vec<bool> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        let created = replaced.iter().filter(|r| !**r).count();
        assert_eq!(created, 1, "records reported {replaced:?}");
    }
}

#[test]
fn record_replaced_by_the_insert_passes() {
    expect_pass(Config::dfs(2), racing_creators(false));
}

#[test]
fn record_replaced_by_a_separate_lookup_is_caught() {
    let report = expect_failure(Config::dfs(2), racing_creators(true));
    assert!(report.contains("records reported [false, false]"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}

// ---- gate 2: WAL shard lock released between append and apply -------------
//
// `DurableRepository::record` holds the WAL shard lock across append to
// the log and apply to the store, so the log's order is the store's
// order. Releasing it between the two lets a second writer append and
// apply in the gap; the first writer's late apply then leaves the store
// holding a value that is not the log's tail, and a replay would
// disagree with what was served.

struct Durable {
    log: Mutex<Vec<usize>>,
    store: Mutex<Option<usize>>,
    split_apply: bool,
}

impl Durable {
    fn record(&self, rules: usize) {
        let mut log = self.log.lock().unwrap();
        log.push(rules);
        if self.split_apply {
            // MUTATION: the shard lock is released before the apply.
            drop(log);
        }
        *self.store.lock().unwrap() = Some(rules);
    }
}

fn racing_durable_records(split_apply: bool) -> impl Fn() + Send + 'static {
    move || {
        let durable =
            Arc::new(Durable { log: Mutex::new(Vec::new()), store: Mutex::new(None), split_apply });
        let writers: Vec<_> = (1..=2)
            .map(|n| {
                let durable = Arc::clone(&durable);
                thread::spawn(move || durable.record(n))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let tail = durable.log.lock().unwrap().last().copied();
        let live = *durable.store.lock().unwrap();
        assert_eq!(live, tail, "store state diverged from WAL tail");
    }
}

#[test]
fn wal_append_then_apply_under_one_lock_passes() {
    expect_pass(Config::dfs(2), racing_durable_records(false));
}

#[test]
fn wal_lock_released_between_append_and_apply_is_caught() {
    let report = expect_failure(Config::dfs(2), racing_durable_records(true));
    assert!(report.contains("store state diverged from WAL tail"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}
