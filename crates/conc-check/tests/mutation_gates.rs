//! Mutation gates: deliberately broken replicas of the repo's
//! primitives, each of which the model checker MUST catch — with the
//! interleaving trace in the report. These pin the checker's power:
//! if a refactor of the checker stops failing one of these, the
//! checker has lost the ability to see that bug class, and the gate —
//! not production — is where that shows up.
//!
//! Each replica is a faithful copy of a protocol with one deletion
//! applied. The `SnapshotCell` replicas mirror
//! `retrozilla::store::SnapshotCell` (kept self-contained here so a
//! gate never depends on unpublished internals of that crate). The
//! bounded byte-pipe and worker-pool replicas no longer mirror
//! production types — streamed replies write straight to their socket,
//! and the server runs requests on its event loops — and stay as
//! checker self-tests: an abort or a shutdown flag flipped without
//! `notify_all` is a lost-wakeup shape the checker must keep catching.
//!
//! Run with `RUSTFLAGS="--cfg conc_check" cargo test -p
//! retroweb-conc-check --test mutation_gates`.
#![cfg(conc_check)]

use retroweb_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use retroweb_sync::check::{model_with, Config};
use retroweb_sync::{arc_raw, thread, Arc, Condvar, Mutex};
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

// ---- mutant 1: SnapshotCell::load without the generation re-check ----------
//
// The real reader re-reads the generation after registering; if a swap
// moved it, the registration landed in a slot the writer may already
// have drained, so the reader steps out and retries. Delete the
// re-check and a stale registration silently "protects" nothing: one
// more swap drains the *other* slot, sees zero, and reclaims the
// pointer the reader is about to clone.

struct NoRecheckCell {
    ptr: AtomicPtr<usize>,
    generation: AtomicUsize,
    readers: [AtomicUsize; 2],
}

unsafe impl Send for NoRecheckCell {}
unsafe impl Sync for NoRecheckCell {}

impl NoRecheckCell {
    fn new(value: Arc<usize>) -> NoRecheckCell {
        NoRecheckCell {
            ptr: AtomicPtr::new(arc_raw::into_raw(value) as *mut usize),
            generation: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    fn load(&self) -> Arc<usize> {
        let generation = self.generation.load(Ordering::SeqCst);
        let slot = &self.readers[generation & 1];
        slot.fetch_add(1, Ordering::SeqCst);
        // MUTATION: the `generation` re-check (and its retry loop) is
        // deleted — a registration in a stale slot goes unnoticed.
        let ptr = self.ptr.load(Ordering::SeqCst);
        let arc = unsafe {
            arc_raw::increment_strong_count(ptr);
            arc_raw::from_raw(ptr)
        };
        slot.fetch_sub(1, Ordering::SeqCst);
        arc
    }

    fn swap(&self, new: Arc<usize>) {
        let generation = self.generation.load(Ordering::SeqCst);
        let old = self.ptr.swap(arc_raw::into_raw(new) as *mut usize, Ordering::SeqCst);
        self.generation.store(generation.wrapping_add(1), Ordering::SeqCst);
        while self.readers[generation & 1].load(Ordering::SeqCst) != 0 {
            retroweb_sync::hint::spin_loop();
        }
        unsafe { drop(arc_raw::from_raw(old)) };
    }
}

impl Drop for NoRecheckCell {
    fn drop(&mut self) {
        unsafe { drop(arc_raw::from_raw(self.ptr.load(Ordering::SeqCst))) };
    }
}

/// Needs 3 preemptions (reader on the root thread, writer spawned):
/// the reader's generation read goes stale across the writer's FIRST
/// swap, its registration lands in the already drained slot, and the
/// SECOND swap (draining the other slot) frees the pointer under it.
#[test]
fn no_generation_recheck_is_caught_as_use_after_reclaim() {
    let report = expect_failure(Config::dfs(3), || {
        let cell = Arc::new(NoRecheckCell::new(Arc::new(0usize)));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.swap(Arc::new(1usize));
                cell.swap(Arc::new(2usize));
            })
        };
        let v = cell.load();
        assert!(*v <= 2);
        let _ = writer.join();
    });
    assert!(report.contains("use-after-reclaim"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}

// ---- mutant 2: single-counter reclamation, registered after the read ------
//
// Collapsing the two parity slots to one counter invites the natural
// "simplification" of the reader to read-then-register (without the
// generation handshake there is nothing for register-first to
// re-check against). That reopens the exact window the protocol
// exists to close: between the reader's pointer read and its
// registration, a complete swap+drain observes a zero counter and
// reclaims the snapshot the reader is holding raw.

struct SingleCounterCell {
    ptr: AtomicPtr<usize>,
    readers: AtomicUsize,
}

unsafe impl Send for SingleCounterCell {}
unsafe impl Sync for SingleCounterCell {}

impl SingleCounterCell {
    fn new(value: Arc<usize>) -> SingleCounterCell {
        SingleCounterCell {
            ptr: AtomicPtr::new(arc_raw::into_raw(value) as *mut usize),
            readers: AtomicUsize::new(0),
        }
    }

    fn load(&self) -> Arc<usize> {
        // MUTATION: pointer read happens before the (single-counter)
        // registration — the writer cannot tell this reader is
        // mid-window.
        let ptr = self.ptr.load(Ordering::SeqCst);
        self.readers.fetch_add(1, Ordering::SeqCst);
        let arc = unsafe {
            arc_raw::increment_strong_count(ptr);
            arc_raw::from_raw(ptr)
        };
        self.readers.fetch_sub(1, Ordering::SeqCst);
        arc
    }

    fn swap(&self, new: Arc<usize>) {
        let old = self.ptr.swap(arc_raw::into_raw(new) as *mut usize, Ordering::SeqCst);
        while self.readers.load(Ordering::SeqCst) != 0 {
            retroweb_sync::hint::spin_loop();
        }
        unsafe { drop(arc_raw::from_raw(old)) };
    }
}

impl Drop for SingleCounterCell {
    fn drop(&mut self) {
        unsafe { drop(arc_raw::from_raw(self.ptr.load(Ordering::SeqCst))) };
    }
}

#[test]
fn single_counter_reclamation_is_caught_as_use_after_reclaim() {
    let report = expect_failure(Config::dfs(2), || {
        let cell = Arc::new(SingleCounterCell::new(Arc::new(0usize)));
        let reader = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                let v = cell.load();
                assert!(*v <= 1);
            })
        };
        cell.swap(Arc::new(1usize));
        let _ = reader.join();
    });
    assert!(report.contains("use-after-reclaim"), "report:\n{report}");
    assert!(report.contains("interleaving:"), "report lacks trace:\n{report}");
}

// ---- mutant 3: bounded pipe abort without notify_all -----------------------
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

// ---- mutant 4: pool shutdown that forgets to wake idle workers -------------
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
