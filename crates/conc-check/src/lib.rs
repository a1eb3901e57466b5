//! `retroweb_sync` — the concurrency facade the repo's hand-rolled
//! sync primitives are written against, plus (behind `--cfg
//! conc_check`) a loom-style deterministic model checker for them.
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
//! **Checker builds** (`RUSTFLAGS="--cfg conc_check"`): `Mutex`,
//! `Condvar`, the atomics, `hint::spin_loop` and
//! `thread::spawn`/`yield_now` become instrumented doubles, and the
//! `check` module appears. Inside `check::model` every operation on a
//! double is a *scheduling point*: a cooperative scheduler runs exactly
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
//! The scheduler serialises execution, so all atomic operations are
//! explored under **sequential consistency** regardless of the
//! `Ordering` argument. The ported modules synchronise through mutexes
//! and use atomics only as counters and flags, so weaker-ordering bugs
//! are out of scope; the `xtask sync-lint` pass separately flags
//! `Ordering::Relaxed` on non-counter atomics. `Arc` stays
//! `std::sync::Arc` in both modes (its refcounts are std's problem, and
//! a wrapper could not coerce to `Arc<dyn Trait>`).
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

pub use std::sync::{LockResult, OnceLock, PoisonError, TryLockError, Weak};

/// Atomically reference-counted pointer — always `std::sync::Arc`; see
/// the crate docs for why it is not instrumented.
pub use std::sync::Arc;

#[cfg(not(conc_check))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(conc_check)]
pub use doubles::{Condvar, Mutex, MutexGuard};

/// Atomic integer and flag types (instrumented under `conc_check`).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(conc_check))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

    #[cfg(conc_check)]
    pub use crate::doubles::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
}

/// Spin-loop hint (a yield point under the checker).
pub mod hint {
    #[cfg(not(conc_check))]
    pub use std::hint::spin_loop;

    #[cfg(conc_check)]
    pub use crate::doubles::spin_loop;
}

/// Thread spawning and yielding (instrumented under `conc_check`).
///
/// `scope` and `sleep` are always the std versions: the ported modules
/// only use scoped threads for startup-time parallel I/O (sharded WAL
/// replay), which model tests run during setup, before any contended
/// section — see `docs/CONCURRENCY.md`.
pub mod thread {
    #[cfg(not(conc_check))]
    pub use std::thread::{spawn, yield_now, Builder, JoinHandle};

    #[cfg(conc_check)]
    pub use crate::doubles::thread::{spawn, yield_now, Builder, JoinHandle};

    pub use std::thread::{scope, sleep, Scope, ScopedJoinHandle};
}
