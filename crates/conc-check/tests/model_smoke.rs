//! Self-tests for the model checker: known-good programs must pass
//! exhaustively, and each failure class the checker claims to detect
//! (racy assertion, deadlock, missed notify, livelock) must actually be
//! detected, with the interleaving trace present in the report.
//!
//! Run with `RUSTFLAGS="--cfg conc_check" cargo test -p
//! retroweb-conc-check --test model_smoke`.
#![cfg(conc_check)]

use retroweb_sync::atomic::{AtomicUsize, Ordering};
use retroweb_sync::check::{model, model_with, Config};
use retroweb_sync::{thread, Arc, Condvar, Mutex};
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

#[test]
fn dfs_finds_lost_update() {
    // Classic read-modify-write race: both threads load 0, both store
    // 1. DFS must find the interleaving where the final value is 1.
    let report = expect_failure(|| {
        let v = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let v = Arc::clone(&v);
                thread::spawn(move || {
                    let cur = v.load(Ordering::SeqCst);
                    v.store(cur + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
    });
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
fn missed_notify_detected_as_deadlock() {
    // The flag is set *without* holding the mutex across the notify
    // ordering: schedule the notify before the wait and the waiter
    // sleeps forever.
    let report = expect_failure(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            // BUG: no mutex held, no loop — pure fire-and-forget.
            pair2.1.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock().unwrap();
        if !*ready {
            ready = cv.wait(ready).unwrap();
        }
        let _ = *ready;
        drop(ready);
        t.join().unwrap();
    });
    assert!(report.contains("deadlock"), "report:\n{report}");
}

#[test]
fn spin_loop_with_eventual_progress_terminates() {
    let explored = model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let flag2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            flag2.store(1, Ordering::SeqCst);
        });
        // Yielded threads are deprioritised, so the setter always gets
        // scheduled and the spin terminates on every explored path.
        while flag.load(Ordering::SeqCst) == 0 {
            retroweb_sync::hint::spin_loop();
        }
        t.join().unwrap();
    });
    assert!(!explored.truncated);
}

#[test]
fn random_mode_finds_race_and_reports_seed() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model_with(Config::random(7, 200), || {
            let v = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let v = Arc::clone(&v);
                    thread::spawn(move || {
                        let cur = v.load(Ordering::SeqCst);
                        v.store(cur + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(v.load(Ordering::SeqCst), 2);
        })
    }));
    let report = match result {
        Ok(_) => panic!("random exploration missed an easy race in 200 schedules"),
        Err(payload) => payload.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(report.contains("CONC_CHECK_SEED="), "report lacks replay seed:\n{report}");
}

#[test]
fn livelock_reported_not_hung() {
    let report = expect_failure(|| {
        // Two threads spin forever on each other's flag without any
        // store: no schedule makes progress.
        let a = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || {
            while a2.load(Ordering::SeqCst) == 0 {
                retroweb_sync::hint::spin_loop();
            }
        });
        while a.load(Ordering::SeqCst) == 0 {
            retroweb_sync::hint::spin_loop();
        }
        t.join().unwrap();
    });
    assert!(report.contains("livelock") || report.contains("deadlock"), "report:\n{report}");
}

#[test]
fn pool_style_handoff_passes() {
    // A miniature of the ThreadPool handoff: bounded queue of 1,
    // producer blocks on not_full, consumer on not_empty.
    let explored = model_with(Config::dfs(2), || {
        let state = Arc::new((Mutex::new(Vec::<u32>::new()), Condvar::new(), Condvar::new()));
        let consumer_state = Arc::clone(&state);
        let consumer = thread::spawn(move || {
            let (lock, not_empty, not_full) = &*consumer_state;
            let mut got = 0;
            while got < 2 {
                let mut q = lock.lock().unwrap();
                while q.is_empty() {
                    q = not_empty.wait(q).unwrap();
                }
                q.pop();
                got += 1;
                not_full.notify_one();
            }
        });
        let (lock, not_empty, not_full) = &*state;
        for i in 0..2u32 {
            let mut q = lock.lock().unwrap();
            while !q.is_empty() {
                q = not_full.wait(q).unwrap();
            }
            q.push(i);
            not_empty.notify_one();
        }
        consumer.join().unwrap();
    });
    assert!(!explored.truncated);
}
