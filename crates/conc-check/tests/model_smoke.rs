//! Self-tests for the model checker: known-good programs must pass
//! exhaustively, and each failure class the checker claims to detect
//! (racy assertion, deadlock, livelock) must actually be detected, with
//! the interleaving trace present in the report. The programs use only
//! what the doubles model: mutexes, spawn and join.
//!
//! Run with `RUSTFLAGS="--cfg conc_check" cargo test -p
//! retroweb-conc-check --test model_smoke`.
#![cfg(conc_check)]

use retroweb_sync::check::{model, model_with, Config};
use retroweb_sync::{thread, Arc, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f` expecting a model failure; returns the rendered report.
fn expect_failure(f: impl Fn() + Send + 'static) -> String {
    let result = catch_unwind(AssertUnwindSafe(move || model(f)));
    match result {
        Ok(_) => panic!("model unexpectedly passed"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into()),
    }
}

#[test]
fn mutex_protected_counter_passes_exhaustively() {
    let explored = model(|| {
        let counter = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let mut n = counter.lock().unwrap();
                    *n += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 2);
    });
    assert!(!explored.truncated);
    // More than one interleaving exists (who locks first), and DFS
    // must have visited them all.
    assert!(explored.iterations >= 2, "explored {} schedules", explored.iterations);
}

/// Two threads each add one to a shared counter, reading it under one
/// lock acquisition and writing it back under a second — a
/// read-modify-write that the lock does not cover as a whole.
fn split_increment_body() {
    let v = Arc::new(Mutex::new(0usize));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let v = Arc::clone(&v);
            thread::spawn(move || {
                let cur = *v.lock().unwrap();
                *v.lock().unwrap() = cur + 1;
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*v.lock().unwrap(), 2, "lost update");
}

#[test]
fn dfs_finds_lost_update() {
    // Both threads read 0 before either writes, both write 1. DFS must
    // find the interleaving where the final value is 1.
    let report = expect_failure(split_increment_body);
    assert!(report.contains("lost update"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}

#[test]
fn abba_deadlock_detected() {
    let report = expect_failure(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_gb, _ga));
        t.join().unwrap();
    });
    assert!(report.contains("deadlock"), "report:\n{report}");
    assert!(report.contains("blocked locking"), "report:\n{report}");
}

#[test]
fn random_mode_finds_race_and_reports_seed() {
    let result =
        catch_unwind(AssertUnwindSafe(|| model_with(Config::random(7, 200), split_increment_body)));
    let report = match result {
        Ok(_) => panic!("random exploration missed an easy race in 200 schedules"),
        Err(payload) => payload.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(report.contains("CONC_CHECK_SEED="), "report lacks replay seed:\n{report}");
}

#[test]
fn livelock_reported_not_hung() {
    let report = expect_failure(|| {
        // Both threads poll a mutex-held flag that nobody sets: every
        // poll is a scheduling point, and no schedule makes progress.
        let flag = Arc::new(Mutex::new(false));
        let flag2 = Arc::clone(&flag);
        let t = thread::spawn(move || while !*flag2.lock().unwrap() {});
        while !*flag.lock().unwrap() {}
        t.join().unwrap();
    });
    assert!(report.contains("livelock"), "report:\n{report}");
    assert!(report.contains("interleaving"), "report lacks trace:\n{report}");
}
