//! Instrumented doubles for the facade types (compiled only under
//! `--cfg conc_check`).
//!
//! Each double wraps the real std primitive and adds a *model* layer
//! consulted only while the calling thread belongs to an active
//! [`crate::check::model`] execution; outside a model run every
//! operation falls through to std ("degrade mode"), so a checker build
//! of the whole workspace still behaves normally.
//!
//! In-model mutual exclusion is enforced by the model (a thread model-
//! acquires before touching the inner std lock, and the scheduler runs
//! one thread at a time), so the inner std mutex is never contended —
//! `try_lock` on it cannot block. Poisoning is absorbed: a poisoned
//! inner lock can only be observed after a failure has already been
//! recorded and every thread is unwinding.

use crate::check::{self, current, Execution, Status, StopExecution, Waiting};
use std::sync::{Arc as StdArc, LockResult, PoisonError, TryLockError};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const () as usize
}

// ---- Mutex -----------------------------------------------------------------

pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    modeled: bool,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { inner: StdMutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Inner lock acquisition once model-level exclusion is held (or in
    /// degrade mode, a plain contended lock).
    fn raw_guard(&self) -> StdMutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("conc-check model lock held but inner std mutex contended")
            }
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some((exec, me)) = current() {
            let addr = addr_of(self);
            model_lock(&exec, me, addr);
            return Ok(MutexGuard { lock: self, inner: Some(self.raw_guard()), modeled: true });
        }
        match self.inner.lock() {
            Ok(guard) => Ok(MutexGuard { lock: self, inner: Some(guard), modeled: false }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: Some(poisoned.into_inner()),
                modeled: false,
            })),
        }
    }
}

/// Model-acquire `addr` for thread `me`, blocking (in model time) while
/// another thread holds it.
fn model_lock(exec: &StdArc<Execution>, me: usize, addr: usize) {
    let label = {
        let mut st = exec.lock();
        let name = st.mutex_name(addr);
        format!("{name}.lock")
    };
    // The scheduling point sits *before* the acquire: other threads may
    // win the race to this lock in some schedules.
    exec.schedule(me, label);
    loop {
        let mut st = exec.lock();
        let model = st.mutexes.entry(addr).or_default();
        match model.held_by {
            None => {
                model.held_by = Some(me);
                return;
            }
            Some(_) => {
                let name = st.mutex_name(addr);
                st.threads[me].status = Status::Blocked;
                st.threads[me].waiting = Waiting::Lock(name);
                exec.switch_blocked(me, st);
            }
        }
    }
}

/// Model-release `addr`; wakes lock waiters. Not a scheduling point by
/// itself (the release happens at the holder's current step; the next
/// interleaving choice comes at the next operation).
fn model_unlock(exec: &StdArc<Execution>, me: usize, addr: usize) {
    let mut st = exec.lock();
    if st.failure.is_none() {
        let name = st.mutex_name(addr);
        st.record(me, format!("{name}.unlock"));
    }
    if let Some(model) = st.mutexes.get_mut(&addr) {
        model.held_by = None;
    }
    let mut woke = false;
    for t in 0..st.threads.len() {
        if st.threads[t].status == Status::Blocked {
            if let Waiting::Lock(_) = st.threads[t].waiting {
                // Cheap over-wake: every lock waiter retries; only the
                // one whose lock is now free (and is scheduled first)
                // acquires, the rest re-block.
                st.threads[t].status = Status::Runnable;
                st.threads[t].waiting = Waiting::None;
                woke = true;
            }
        }
    }
    if woke {
        st.wake_all();
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.modeled {
            if let Some((exec, me)) = current() {
                // Release the inner guard before the model release so a
                // woken thread can never contend the std lock.
                self.inner = None;
                model_unlock(&exec, me, addr_of(self.lock));
                return;
            }
        }
        self.inner = None;
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("conc-check guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("conc-check guard accessed after release")
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

// ---- threads ---------------------------------------------------------------

pub mod thread {
    use super::*;

    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        tid: Option<usize>,
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                if let Some((exec, me)) = current() {
                    exec.schedule(me, format!("join t{tid}"));
                    let mut st = exec.lock();
                    if st.threads[tid].status != Status::Finished {
                        st.threads[me].status = Status::Blocked;
                        st.threads[me].waiting = Waiting::Join(tid);
                        exec.switch_blocked(me, st);
                    }
                }
            }
            self.inner.join()
        }
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some((exec, me)) = current() else {
            return JoinHandle { inner: std::thread::spawn(f), tid: None };
        };
        let tid = {
            let mut st = exec.lock();
            st.threads.push(check::TState::new(None));
            st.threads.len() - 1
        };
        let child_exec = StdArc::clone(&exec);
        let inner = std::thread::spawn(move || {
            check::set_current(Some((StdArc::clone(&child_exec), tid)));
            // Waiting for the first turn sits inside the unwind guard: an
            // execution that fails before the child ever runs unwinds it
            // from here, and it must still be marked finished.
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(child_exec.park_until_active(tid, child_exec.lock()));
                f()
            }));
            if let Err(payload) = &out {
                if !payload.is::<StopExecution>() {
                    let msg = check::panic_message(payload.as_ref());
                    child_exec.lock().fail("panic", &format!("thread t{tid} panicked: {msg}"));
                }
            }
            child_exec.finish_thread(tid);
            check::set_current(None);
            match out {
                Ok(value) => value,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });
        // The scheduler wakes the child through its handle; it is
        // registered before any scheduling decision can pick the child.
        exec.lock().threads[tid].thread = Some(inner.thread().clone());
        // Spawning is itself a scheduling point: the child may run
        // before the parent's next op in some schedules.
        exec.schedule(me, format!("spawn t{tid}"));
        JoinHandle { inner, tid: Some(tid) }
    }
}
