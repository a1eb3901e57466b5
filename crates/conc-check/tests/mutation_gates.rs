//! Mutation gates: deliberately broken replicas of synchronisation
//! protocols, each of which the model checker MUST catch — with the
//! interleaving trace in the report. These pin the checker's power:
//! if a refactor of the checker stops failing one of these, the
//! checker has lost the ability to see that bug class, and the gate —
//! not production — is where that shows up.
//!
//! Each replica is a protocol with one deletion applied. The bounded
//! byte-pipe and worker-pool replicas no longer mirror production
//! types — streamed replies write straight to their socket, and the
//! server runs requests on its event loops — and stay as checker
//! self-tests: an abort or a shutdown flag flipped without `notify_all`
//! is a lost-wakeup shape the checker must keep catching.
//!
//! Run with `RUSTFLAGS="--cfg conc_check" cargo test -p
//! retroweb-conc-check --test mutation_gates`.
#![cfg(conc_check)]

use retroweb_sync::check::{model_with, Config};
use retroweb_sync::{thread, Arc, Condvar, Mutex};
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

// ---- mutant 1: bounded pipe abort without notify_all -----------------------
//
// A bounded pipe's abort exists to fail a producer that is parked on
// the budget condvar. Setting the flag without the wakeup leaves the
// producer parked forever — a deadlock the checker reports with both
// threads' positions.

struct NoNotifyPipe {
    state: Mutex<(Vec<u8>, bool)>,
    space: Condvar,
    budget: usize,
}

impl NoNotifyPipe {
    fn push(&self, data: &[u8]) -> Result<(), ()> {
        let mut state = self.state.lock().unwrap();
        while state.0.len() >= self.budget && !state.1 {
            state = self.space.wait(state).unwrap();
        }
        if state.1 {
            return Err(());
        }
        state.0.extend_from_slice(data);
        Ok(())
    }

    fn abort(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 = true;
        // MUTATION: `self.space.notify_all()` deleted — the parked
        // producer never learns the connection died.
    }
}

#[test]
fn pipe_abort_without_notify_is_caught_as_deadlock() {
    let report = expect_failure(Config::dfs(2), || {
        let pipe = Arc::new(NoNotifyPipe {
            state: Mutex::new((Vec::new(), false)),
            space: Condvar::new(),
            budget: 1,
        });
        let producer = {
            let pipe = Arc::clone(&pipe);
            thread::spawn(move || {
                let _ = pipe.push(b"xx");
                let _ = pipe.push(b"yy");
            })
        };
        pipe.abort();
        let _ = producer.join();
    });
    assert!(report.contains("deadlock"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}

// ---- mutant 2: pool shutdown that forgets to wake idle workers -------------
//
// A worker with an empty queue parks on `not_empty`; shutdown must
// notify after flipping the flag, or join waits on a worker that will
// never re-check it.

#[test]
fn pool_shutdown_without_notify_is_caught_as_deadlock() {
    let report = expect_failure(Config::dfs(2), || {
        let state = Arc::new((Mutex::new((Vec::<u8>::new(), false)), Condvar::new()));
        let worker = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let (lock, not_empty) = &*state;
                let mut guard = lock.lock().unwrap();
                loop {
                    if guard.0.pop().is_some() || guard.1 {
                        return;
                    }
                    guard = not_empty.wait(guard).unwrap();
                }
            })
        };
        let (lock, _not_empty) = &*state;
        lock.lock().unwrap().1 = true;
        // MUTATION: `not_empty.notify_all()` deleted — the idle worker
        // never observes `shutting_down`.
        let _ = worker.join();
    });
    assert!(report.contains("deadlock"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}
