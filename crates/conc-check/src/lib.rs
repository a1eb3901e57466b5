//! `retroweb_sync` — the concurrency facade the repo's shared-state
//! protocols are written against, plus (behind `--cfg conc_check`) a
//! loom-style deterministic model checker for them.
//!
//! # Two build modes
//!
//! **Normal builds** (the default): every item in this crate is a plain
//! re-export of its `std` counterpart — `retroweb_sync::Mutex` *is*
//! `std::sync::Mutex`, `retroweb_sync::thread::spawn` *is*
//! `std::thread::spawn`, and so on. There is zero runtime overhead and zero new behaviour; the
//! facade only pins down *which* primitives the ported modules use so
//! the checker (and the `xtask sync-lint` pass) can reason about them.
//!
//! **Checker builds** (`RUSTFLAGS="--cfg conc_check"`): `Mutex` and
//! `thread::spawn`/`JoinHandle` become instrumented doubles, and the
//! `check` module appears. Inside `check::model` every lock, spawn and
//! join is a *scheduling point*: a cooperative scheduler runs exactly
//! one thread at a time and explores thread interleavings — exhaustive
//! DFS with preemption bounding, or seed-replayable random walks —
//! failing with the exact per-thread operation trace on assertion
//! failure, panic, deadlock, or livelock.
//!
//! Outside a `model()` run the doubles degrade to real `std`
//! behaviour, so a full `--cfg conc_check` build of the workspace
//! still works; only code executed inside a model body is scheduled.
//!
//! # What is modelled
//!
//! Mutexes and threads: the ported modules synchronise through nothing
//! else. The checker's contract is that modelled code does not
//! busy-wait — a thread waits only by blocking on a lock or a join. A
//! loop that polls shared state without ever blocking makes no progress
//! the scheduler can see, and is reported as a livelock once it runs
//! past the `max_steps` cap of scheduling points (`check::Config`).
//!
//! The atomics are std's in both modes: the ported modules use them
//! only as `// sync-lint: counter` statistics that no control flow and
//! no model assertion reads. `Arc` and `OnceLock` are std's too (a
//! wrapper `Arc` could not coerce to `Arc<dyn Trait>`), and so is
//! `thread::scope`, which the ported modules use only for startup-time
//! parallel I/O that model tests run during setup.
//!
//! # Running and replaying
//!
//! ```text
//! RUSTFLAGS="--cfg conc_check" cargo test -p retroweb-conc-check --test model_smoke
//! ```
//!
//! DFS failures are deterministic: re-running the test reproduces the
//! interleaving. Random-mode failures print their seed; replay with
//! `CONC_CHECK_SEED=<seed>` (forces random mode with one iteration).

#[cfg(conc_check)]
pub mod check;
#[cfg(conc_check)]
mod doubles;

pub use std::sync::{Arc, OnceLock};

#[cfg(not(conc_check))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(conc_check)]
pub use doubles::{Mutex, MutexGuard};

/// Atomic counters — std's in both modes (see the crate docs).
pub mod atomic {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}

/// Thread spawning (instrumented under `conc_check`) and std's scoped
/// threads.
pub mod thread {
    #[cfg(not(conc_check))]
    pub use std::thread::{spawn, JoinHandle};

    #[cfg(conc_check)]
    pub use crate::doubles::thread::{spawn, JoinHandle};

    pub use std::thread::scope;
}
