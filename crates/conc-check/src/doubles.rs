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

macro_rules! fmt_skeleton {
    ($name:literal) => {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct($name).finish_non_exhaustive()
        }
    };
}

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
        let name = st.obj("m", addr);
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
                let name = st.obj("m", addr);
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
        let name = st.obj("m", addr);
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
    drop(st);
    if woke {
        exec.cv.notify_all();
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

// ---- Condvar ---------------------------------------------------------------

#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if guard.modeled {
            if let Some((exec, me)) = current() {
                return Ok(self.model_wait(&exec, me, guard));
            }
        }
        // Degrade mode: delegate to the real condvar with the real guard.
        let lock = guard.lock;
        let mut guard = guard;
        let std_guard = guard.inner.take().expect("conc-check guard accessed after release");
        guard.modeled = false; // neutralise Drop
        std::mem::forget(guard);
        match self.inner.wait(std_guard) {
            Ok(g) => Ok(MutexGuard { lock, inner: Some(g), modeled: false }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                lock,
                inner: Some(p.into_inner()),
                modeled: false,
            })),
        }
    }

    fn model_wait<'a, T>(
        &self,
        exec: &StdArc<Execution>,
        me: usize,
        mut guard: MutexGuard<'a, T>,
    ) -> MutexGuard<'a, T> {
        let cv_addr = addr_of(self);
        let mutex_addr = addr_of(guard.lock);
        let lock = guard.lock;
        // Atomically (in model time): register as a waiter, release the
        // mutex, block. No window where a notify can be missed.
        guard.inner = None;
        guard.modeled = false; // neutralise Drop; release is done here
        std::mem::forget(guard);
        {
            let mut st = exec.lock();
            let cv_name = st.obj("c", cv_addr);
            let m_name = st.obj("m", mutex_addr);
            st.record(me, format!("{cv_name}.wait (releases {m_name})"));
            st.condvars.entry(cv_addr).or_default().waiters.push(me);
            if let Some(model) = st.mutexes.get_mut(&mutex_addr) {
                model.held_by = None;
            }
            for t in 0..st.threads.len() {
                if st.threads[t].status == Status::Blocked {
                    if let Waiting::Lock(_) = st.threads[t].waiting {
                        st.threads[t].status = Status::Runnable;
                        st.threads[t].waiting = Waiting::None;
                    }
                }
            }
            let cv_name = st.obj("c", cv_addr);
            st.threads[me].status = Status::Blocked;
            st.threads[me].waiting = Waiting::Cond(cv_name);
            exec.switch_blocked(me, st);
        }
        // Woken (notified): reacquire the mutex in model and in std.
        model_lock(exec, me, mutex_addr);
        MutexGuard { lock, inner: Some(lock.raw_guard()), modeled: true }
    }

    pub fn notify_one(&self) {
        if let Some((exec, me)) = current() {
            let addr = addr_of(self);
            let label = {
                let mut st = exec.lock();
                let name = st.obj("c", addr);
                format!("{name}.notify_one")
            };
            let index = exec.schedule(me, label);
            let mut st = exec.lock();
            let model = st.condvars.entry(addr).or_default();
            if !model.waiters.is_empty() {
                let t = model.waiters.remove(0);
                st.threads[t].status = Status::Runnable;
                st.threads[t].waiting = Waiting::None;
                st.amend(index, &format!(" -> wakes t{t}"));
                drop(st);
                exec.cv.notify_all();
            }
            return;
        }
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        if let Some((exec, me)) = current() {
            let addr = addr_of(self);
            let label = {
                let mut st = exec.lock();
                let name = st.obj("c", addr);
                format!("{name}.notify_all")
            };
            let index = exec.schedule(me, label);
            let mut st = exec.lock();
            let model = st.condvars.entry(addr).or_default();
            let woken: Vec<usize> = std::mem::take(&mut model.waiters);
            for &t in &woken {
                st.threads[t].status = Status::Runnable;
                st.threads[t].waiting = Waiting::None;
            }
            if !woken.is_empty() {
                st.amend(index, &format!(" -> wakes {} waiter(s)", woken.len()));
                drop(st);
                exec.cv.notify_all();
            }
            return;
        }
        self.inner.notify_all();
    }
}

impl std::fmt::Debug for Condvar {
    fmt_skeleton!("Condvar");
}

// ---- atomics ---------------------------------------------------------------

use std::sync::atomic::Ordering;

/// One scheduling point + traced effect on an atomic double.
fn atomic_op<R: std::fmt::Debug>(
    prefix: &'static str,
    addr: usize,
    op: &str,
    effect: impl FnOnce() -> R,
) -> R {
    // A model thread unwinding (after a recorded failure, or from its
    // own assertion) still runs destructors that touch atomics; those
    // must neither reschedule nor raise StopExecution *inside a Drop*
    // (a panic-in-panic aborts the process). Perform the effect
    // silently.
    if std::thread::panicking() {
        return effect();
    }
    if let Some((exec, me)) = current() {
        let label = {
            let mut st = exec.lock();
            let name = st.obj(prefix, addr);
            format!("{name}.{op}")
        };
        let index = exec.schedule(me, label);
        let out = effect();
        let mut st = exec.lock();
        st.amend(index, &format!(" = {out:?}"));
        return out;
    }
    effect()
}

macro_rules! atomic_int_double {
    ($name:ident, $std:ident, $prim:ty) => {
        #[derive(Debug, Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            pub const fn new(value: $prim) -> $name {
                $name { inner: std::sync::atomic::$std::new(value) }
            }

            pub fn load(&self, _order: Ordering) -> $prim {
                atomic_op("a", addr_of(self), "load", || self.inner.load(Ordering::SeqCst))
            }

            pub fn store(&self, value: $prim, _order: Ordering) {
                atomic_op("a", addr_of(self), &format!("store({value})"), || {
                    self.inner.store(value, Ordering::SeqCst)
                });
            }

            pub fn swap(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op("a", addr_of(self), &format!("swap({value})"), || {
                    self.inner.swap(value, Ordering::SeqCst)
                })
            }

            pub fn fetch_add(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op("a", addr_of(self), &format!("fetch_add({value})"), || {
                    self.inner.fetch_add(value, Ordering::SeqCst)
                })
            }

            pub fn fetch_sub(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op("a", addr_of(self), &format!("fetch_sub({value})"), || {
                    self.inner.fetch_sub(value, Ordering::SeqCst)
                })
            }

            pub fn fetch_max(&self, value: $prim, _order: Ordering) -> $prim {
                atomic_op("a", addr_of(self), &format!("fetch_max({value})"), || {
                    self.inner.fetch_max(value, Ordering::SeqCst)
                })
            }

            #[allow(clippy::result_unit_err)]
            pub fn compare_exchange(
                &self,
                expected: $prim,
                new: $prim,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$prim, $prim> {
                atomic_op("a", addr_of(self), &format!("cas({expected}->{new})"), || {
                    self.inner.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
                })
            }
        }
    };
}

atomic_int_double!(AtomicUsize, AtomicUsize, usize);
atomic_int_double!(AtomicU64, AtomicU64, u64);
atomic_int_double!(AtomicU32, AtomicU32, u32);

#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(value: bool) -> AtomicBool {
        AtomicBool { inner: std::sync::atomic::AtomicBool::new(value) }
    }

    pub fn load(&self, _order: Ordering) -> bool {
        atomic_op("a", addr_of(self), "load", || self.inner.load(Ordering::SeqCst))
    }

    pub fn store(&self, value: bool, _order: Ordering) {
        atomic_op("a", addr_of(self), &format!("store({value})"), || {
            self.inner.store(value, Ordering::SeqCst)
        });
    }

    pub fn swap(&self, value: bool, _order: Ordering) -> bool {
        atomic_op("a", addr_of(self), &format!("swap({value})"), || {
            self.inner.swap(value, Ordering::SeqCst)
        })
    }
}

// ---- hint / yield ----------------------------------------------------------

/// Under the checker a spin hint is a *yield*: the spinning thread is
/// deprioritised until no other thread is runnable, so bounded spin
/// loops terminate along every explored schedule.
pub fn spin_loop() {
    yield_point("spin_loop");
}

fn yield_point(label: &str) {
    if let Some((exec, me)) = current() {
        let mut st = exec.lock();
        st.record(me, label.to_string());
        st.threads[me].status = Status::Yielded;
        if !st.decide() || st.failure.is_some() {
            let failed = st.failure.is_some();
            drop(st);
            exec.cv.notify_all();
            if failed {
                std::panic::panic_any(StopExecution);
            }
            return;
        }
        let next = st.active;
        if next != me {
            drop(st);
            exec.cv.notify_all();
            let st = exec.lock();
            let _running = exec.park_until_active(me, st);
        }
        return;
    }
    std::hint::spin_loop();
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

        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fmt_skeleton!("JoinHandle");
    }

    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder { name: None }
        }

        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if let Some((exec, me)) = current() {
                let tid = {
                    let mut st = exec.lock();
                    st.threads.push(check::TState {
                        status: Status::Runnable,
                        waiting: Waiting::None,
                        name: self.name.clone(),
                    });
                    st.threads.len() - 1
                };
                let child_exec = StdArc::clone(&exec);
                let inner = spawn_named(self.name, move || {
                    check::set_current(Some((StdArc::clone(&child_exec), tid)));
                    {
                        let st = child_exec.lock();
                        let _running = child_exec.park_until_active(tid, st);
                    }
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                    if let Err(payload) = &out {
                        if !payload.is::<StopExecution>() {
                            let msg = check::panic_message(payload.as_ref());
                            child_exec
                                .lock()
                                .fail("panic", &format!("thread t{tid} panicked: {msg}"));
                        }
                    }
                    child_exec.finish_thread(tid);
                    check::set_current(None);
                    match out {
                        Ok(value) => value,
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                })?;
                // Spawning is itself a scheduling point: the child may
                // run before the parent's next op in some schedules.
                exec.schedule(me, format!("spawn t{tid}"));
                return Ok(JoinHandle { inner, tid: Some(tid) });
            }
            let inner = spawn_named(self.name, f)?;
            Ok(JoinHandle { inner, tid: None })
        }
    }

    fn spawn_named<F, T>(name: Option<String>, f: F) -> std::io::Result<std::thread::JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match name {
            Some(name) => std::thread::Builder::new().name(name).spawn(f),
            None => std::thread::Builder::new().spawn(f),
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    pub fn yield_now() {
        super::yield_point("yield_now");
    }
}
