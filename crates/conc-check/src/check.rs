//! The deterministic scheduler: run a closure under exhaustive (or
//! randomised) exploration of thread interleavings.
//!
//! Model threads are real OS threads, but exactly one runs at a time:
//! every instrumented operation first reaches a *scheduling point*
//! where the active thread consults the exploration policy, hands the
//! execution token to the chosen thread, and parks until it is chosen
//! again. Because execution is fully serialised, the doubles can keep
//! their object models (who holds which mutex, who joins whom) in one
//! table without any synchronisation subtleties of their own, and every
//! run is a deterministic function of the choice sequence — which is
//! what makes DFS backtracking and seed replay possible.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread::Thread;
use std::time::Duration;

/// Panic payload used to unwind model threads once an execution has
/// already failed (or must stop); never reported as a failure itself.
pub(crate) struct StopExecution;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(value: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = value);
}

// ---- configuration ---------------------------------------------------------

/// Exploration strategy.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Depth-first search over all schedules (subject to the
    /// preemption bound) — exhaustive for terminating models.
    Dfs,
    /// `iterations` random schedules; iteration `i` uses seed
    /// `seed + i`, and any failure report names the exact seed so
    /// `CONC_CHECK_SEED=<seed>` replays it.
    Random { seed: u64, iterations: usize },
}

/// Knobs for [`model_with`]. `Default` honours the environment:
/// `CONC_CHECK_SEED` forces one random iteration with that seed (the
/// replay workflow), otherwise DFS with a preemption bound of 2.
#[derive(Clone, Debug)]
pub struct Config {
    pub mode: Mode,
    /// Max context switches away from a runnable thread per schedule
    /// (`None` = unbounded). Voluntary switches — the active thread
    /// blocked or finished — are always free, so every model still runs
    /// to completion at bound 0.
    pub preemption_bound: Option<usize>,
    /// Scheduling points allowed per execution before the run is
    /// declared a livelock (a loop that polls shared state and never
    /// blocks).
    pub max_steps: usize,
    /// Hard cap on DFS iterations (a backstop, not a target; the
    /// result reports whether exploration was truncated).
    pub max_iterations: usize,
}

impl Default for Config {
    fn default() -> Config {
        let mode = match std::env::var("CONC_CHECK_SEED") {
            Ok(seed) => Mode::Random { seed: seed.parse().unwrap_or(0), iterations: 1 },
            Err(_) => Mode::Dfs,
        };
        Config { mode, preemption_bound: Some(2), max_steps: 20_000, max_iterations: 500_000 }
    }
}

impl Config {
    /// Exhaustive DFS with the given preemption bound.
    pub fn dfs(preemption_bound: usize) -> Config {
        Config { mode: Mode::Dfs, preemption_bound: Some(preemption_bound), ..Config::default() }
    }

    /// Unbounded exhaustive DFS (every interleaving; small models only).
    pub fn dfs_unbounded() -> Config {
        Config { mode: Mode::Dfs, preemption_bound: None, ..Config::default() }
    }

    /// Random exploration: `iterations` schedules from `seed`.
    pub fn random(seed: u64, iterations: usize) -> Config {
        Config {
            mode: Mode::Random { seed, iterations },
            preemption_bound: None,
            ..Config::default()
        }
    }
}

/// What [`model_with`] returns when no failure was found.
#[derive(Clone, Debug)]
pub struct Explored {
    /// Schedules executed.
    pub iterations: usize,
    /// DFS hit `max_iterations` before exhausting the schedule space.
    pub truncated: bool,
}

// ---- the execution ---------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Blocked,
    Finished,
}

#[derive(Clone, Debug)]
pub(crate) enum Waiting {
    None,
    Lock(String),
    Join(usize),
}

pub(crate) struct TState {
    pub status: Status,
    pub waiting: Waiting,
    /// The OS thread running this model thread, unparked whenever the
    /// schedule changes (`None` until its spawn registers it).
    pub thread: Option<Thread>,
}

impl TState {
    pub fn new(thread: Option<Thread>) -> TState {
        TState { status: Status::Runnable, waiting: Waiting::None, thread }
    }
}

#[derive(Default)]
pub(crate) struct MutexModel {
    pub held_by: Option<usize>,
}

enum Policy {
    Dfs(DfsState),
    Random(u64),
}

#[derive(Default)]
struct DfsState {
    stack: Vec<Decision>,
    depth: usize,
}

struct Decision {
    alts: Vec<usize>,
    cursor: usize,
}

impl DfsState {
    /// Move to the next unexplored branch; false when exhausted.
    fn advance(&mut self) -> bool {
        while let Some(last) = self.stack.last() {
            if last.cursor + 1 < last.alts.len() {
                break;
            }
            self.stack.pop();
        }
        match self.stack.last_mut() {
            Some(last) => {
                last.cursor += 1;
                self.depth = 0;
                true
            }
            None => false,
        }
    }
}

pub(crate) struct ExecState {
    pub threads: Vec<TState>,
    pub active: usize,
    policy: Policy,
    preemption_bound: Option<usize>,
    preemptions: usize,
    max_steps: usize,
    steps: usize,
    pub trace: Vec<(usize, String)>,
    pub failure: Option<String>,
    pub mutexes: HashMap<usize, MutexModel>,
    /// Stable per-execution display ids (`m0`, `m1`, …) by mutex address.
    names: HashMap<usize, String>,
    /// Label shown in the failure banner ("dfs iteration 17" / "seed 42").
    banner: String,
}

pub(crate) struct Execution {
    pub state: StdMutex<ExecState>,
}

impl ExecState {
    /// Display id for the mutex at `addr`, e.g. `m0`.
    pub fn mutex_name(&mut self, addr: usize) -> String {
        let next = self.names.len();
        self.names.entry(addr).or_insert_with(|| format!("m{next}")).clone()
    }

    /// Record an op in the trace (frozen once a failure is recorded).
    pub fn record(&mut self, tid: usize, label: String) {
        if self.failure.is_none() {
            self.trace.push((tid, label));
        }
    }

    fn render_report(&self, kind: &str, detail: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n=== conc-check failure: {kind} ===\n"));
        if !detail.is_empty() {
            out.push_str(detail);
            out.push('\n');
        }
        out.push_str(&format!("schedule: {}\n", self.banner));
        out.push_str("threads:\n");
        for (tid, t) in self.threads.iter().enumerate() {
            let state = match (&t.status, &t.waiting) {
                (Status::Finished, _) => "finished".to_string(),
                (Status::Blocked, Waiting::Lock(m)) => format!("blocked locking {m}"),
                (Status::Blocked, Waiting::Join(j)) => format!("blocked joining t{j}"),
                _ => "runnable".to_string(),
            };
            out.push_str(&format!("  t{tid}: {state}\n"));
        }
        let shown = self.trace.len().min(400);
        if self.trace.len() > shown {
            out.push_str(&format!("interleaving (last {shown} of {} ops):\n", self.trace.len()));
        } else {
            out.push_str("interleaving:\n");
        }
        for (tid, label) in &self.trace[self.trace.len() - shown..] {
            out.push_str(&format!("  [t{tid}] {label}\n"));
        }
        out.push_str("=== end conc-check report ===\n");
        out
    }

    /// Record the first failure (later ones are echoes of the unwind).
    pub fn fail(&mut self, kind: &str, detail: &str) {
        if self.failure.is_none() {
            self.failure = Some(self.render_report(kind, detail));
        }
    }

    /// Pick and activate the next thread. Returns `false` when every
    /// thread is finished (nothing to activate). On deadlock or
    /// livelock records the failure and returns `false` — callers
    /// must check `failure` and unwind.
    pub(crate) fn decide(&mut self) -> bool {
        if self.failure.is_some() {
            return false;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(
                "livelock",
                &format!("no progress after {} scheduling points", self.max_steps),
            );
            return false;
        }
        let candidates: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.threads[t].status == Status::Runnable)
            .collect();
        if candidates.is_empty() {
            if self.threads.iter().all(|t| t.status == Status::Finished) {
                return false;
            }
            self.fail("deadlock", "every unfinished thread is blocked");
            return false;
        }
        // Preference order: keep running the current thread when it
        // can continue (a free choice under any preemption bound),
        // then the others by id.
        let current_runnable = self.threads[self.active].status == Status::Runnable;
        let mut order = Vec::with_capacity(candidates.len());
        if current_runnable {
            order.push(self.active);
        }
        for t in candidates {
            if !(current_runnable && t == self.active) {
                order.push(t);
            }
        }
        // Switching away from a runnable current thread is a
        // preemption; prune those alternatives once the bound is spent.
        if current_runnable {
            if let Some(bound) = self.preemption_bound {
                if self.preemptions >= bound {
                    order.truncate(1);
                }
            }
        }
        let chosen = match &mut self.policy {
            Policy::Dfs(dfs) => {
                let depth = dfs.depth;
                dfs.depth += 1;
                if depth < dfs.stack.len() {
                    let d = &dfs.stack[depth];
                    d.alts[d.cursor.min(d.alts.len() - 1)]
                } else {
                    dfs.stack.push(Decision { alts: order.clone(), cursor: 0 });
                    order[0]
                }
            }
            Policy::Random(rng) => {
                // xorshift64*
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                order[(*rng as usize) % order.len()]
            }
        };
        if current_runnable && chosen != self.active {
            self.preemptions += 1;
        }
        self.active = chosen;
        true
    }

    /// Unpark every other model thread so each re-checks whether it is
    /// now the active one (or must unwind). Cheap over-wake: models have
    /// a handful of threads, and a thread woken for nothing parks again.
    /// The caller is skipped: a token left on itself would turn its next
    /// park into a spin.
    pub(crate) fn wake_all(&self) {
        let me = std::thread::current().id();
        for thread in self.threads.iter().filter_map(|t| t.thread.as_ref()) {
            if thread.id() != me {
                thread.unpark();
            }
        }
    }
}

impl Execution {
    /// Park the calling thread until it is the active one. Panics with
    /// [`StopExecution`] if the execution failed in the meantime.
    pub(crate) fn park_until_active<'a>(
        &'a self,
        me: usize,
        mut st: StdMutexGuard<'a, ExecState>,
    ) -> StdMutexGuard<'a, ExecState> {
        loop {
            if st.failure.is_some() {
                st.wake_all();
                drop(st);
                std::panic::panic_any(StopExecution);
            }
            if st.active == me && st.threads[me].status == Status::Runnable {
                return st;
            }
            // Whoever changes the schedule does so under this lock and
            // then unparks; an unpark that lands before `park` leaves
            // its token behind, so no wake-up is lost.
            drop(st);
            std::thread::park();
            st = self.lock();
        }
    }

    /// One scheduling point: record the op, choose the next thread,
    /// and if it is not the caller, hand over and park.
    pub(crate) fn schedule(&self, me: usize, label: String) {
        let mut st = self.lock();
        st.record(me, label);
        if !st.decide() || st.failure.is_some() {
            let failed = st.failure.is_some();
            st.wake_all();
            drop(st);
            if failed {
                std::panic::panic_any(StopExecution);
            }
            return;
        }
        if st.active != me {
            st.wake_all();
            let _running = self.park_until_active(me, st);
        }
    }

    /// The caller just became unable to run (blocked); pick the next
    /// thread and park until woken *and* scheduled again. The caller
    /// must have set its `status`/`waiting` fields already.
    pub(crate) fn switch_blocked(&self, me: usize, mut st: StdMutexGuard<'_, ExecState>) {
        debug_assert_ne!(st.threads[me].status, Status::Runnable);
        if !st.decide() || st.failure.is_some() {
            let failed = st.failure.is_some();
            st.wake_all();
            drop(st);
            if failed {
                std::panic::panic_any(StopExecution);
            }
            return;
        }
        st.wake_all();
        let _running = self.park_until_active(me, st);
    }

    pub(crate) fn lock(&self) -> StdMutexGuard<'_, ExecState> {
        self.state.lock().expect("conc-check scheduler mutex poisoned")
    }

    /// Mark `me` finished, wake joiners, and schedule whoever is next.
    pub(crate) fn finish_thread(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        st.threads[me].waiting = Waiting::None;
        for t in 0..st.threads.len() {
            if let Waiting::Join(target) = st.threads[t].waiting {
                if target == me && st.threads[t].status == Status::Blocked {
                    st.threads[t].status = Status::Runnable;
                    st.threads[t].waiting = Waiting::None;
                }
            }
        }
        if st.failure.is_none() {
            st.decide();
        }
        st.wake_all();
    }
}

// ---- the driver ------------------------------------------------------------

/// Run `body` under the default exploration [`Config`].
///
/// Panics with a rendered interleaving report on the first schedule
/// that fails (assertion, panic, deadlock or livelock); returns
/// exploration statistics otherwise.
pub fn model<F: Fn()>(body: F) -> Explored {
    model_with(Config::default(), body)
}

/// [`model`] with explicit configuration.
pub fn model_with<F: Fn()>(cfg: Config, body: F) -> Explored {
    assert!(current().is_none(), "conc-check model() calls cannot nest");
    install_panic_hook();
    match cfg.mode.clone() {
        Mode::Dfs => {
            let mut dfs = DfsState::default();
            let mut iterations = 0;
            loop {
                iterations += 1;
                let banner = format!(
                    "dfs iteration {iterations} (preemption bound {})",
                    match cfg.preemption_bound {
                        Some(b) => b.to_string(),
                        None => "unbounded".to_string(),
                    }
                );
                let (policy, failure) = run_one(&cfg, Policy::Dfs(dfs), banner, &body);
                if let Some(report) = failure {
                    eprintln!("{report}");
                    panic!("{report}");
                }
                dfs = match policy {
                    Policy::Dfs(d) => d,
                    Policy::Random(_) => unreachable!(),
                };
                if !dfs.advance() {
                    return Explored { iterations, truncated: false };
                }
                if iterations >= cfg.max_iterations {
                    eprintln!(
                        "conc-check: DFS truncated at {iterations} iterations (max_iterations)"
                    );
                    return Explored { iterations, truncated: true };
                }
            }
        }
        Mode::Random { seed, iterations } => {
            for i in 0..iterations {
                let s = seed.wrapping_add(i as u64);
                let banner = format!("random seed {s} (replay: CONC_CHECK_SEED={s})");
                // Seed 0 would be a fixed point of xorshift; offset it.
                let rng = s.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let (_, failure) = run_one(&cfg, Policy::Random(rng), banner, &body);
                if let Some(report) = failure {
                    eprintln!("{report}");
                    panic!("{report}");
                }
            }
            Explored { iterations: iterations.max(1), truncated: false }
        }
    }
}

fn run_one<F: Fn()>(
    cfg: &Config,
    policy: Policy,
    banner: String,
    body: &F,
) -> (Policy, Option<String>) {
    let exec = Arc::new(Execution {
        state: StdMutex::new(ExecState {
            threads: vec![TState::new(Some(std::thread::current()))],
            active: 0,
            policy,
            preemption_bound: cfg.preemption_bound,
            preemptions: 0,
            max_steps: cfg.max_steps,
            steps: 0,
            trace: Vec::new(),
            failure: None,
            mutexes: HashMap::new(),
            names: HashMap::new(),
            banner,
        }),
    });
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
    let outcome = catch_unwind(AssertUnwindSafe(body));
    if let Err(payload) = outcome {
        if !payload.is::<StopExecution>() {
            let msg = panic_message(payload.as_ref());
            exec.lock().fail("panic", &format!("thread t0 panicked: {msg}"));
        }
    }
    exec.finish_thread(0);
    // Wait for every spawned thread to run to completion (or unwind,
    // once a failure is recorded and wakes them all).
    {
        let mut st = exec.lock();
        loop {
            let all_done = st.threads.iter().all(|t| t.status == Status::Finished);
            if all_done {
                break;
            }
            if st.failure.is_some() {
                // Blocked threads need repeated wakes while they drain.
                st.wake_all();
            }
            drop(st);
            std::thread::park_timeout(Duration::from_millis(50));
            st = exec.lock();
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut st = exec.lock();
    let failure = st.failure.take();
    let policy = std::mem::replace(&mut st.policy, Policy::Random(1));
    (policy, failure)
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Suppress the default panic printout for [`StopExecution`] unwinds —
/// they are scheduler control flow, not failures.
fn install_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<StopExecution>() {
                return;
            }
            previous(info);
        }));
    });
}
