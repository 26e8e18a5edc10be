//! Deterministic concurrency model-checker runtime (the `model` feature).
//!
//! Loom-style cooperative scheduling: inside [`run`], exactly **one** model
//! thread executes at a time. Every tracked-lock acquisition, condvar wait,
//! and explicit [`sched_point`](super::sched_point) is a *yield point* where
//! a pluggable [`Chooser`] decides which runnable thread proceeds. The
//! sequence of decisions it makes — recorded as `(options, chosen)` pairs at
//! every branch point — *is* the schedule: feed the same decisions back and
//! the interleaving replays exactly.
//!
//! Mechanics:
//!
//! * Threads are real OS threads, each parked on a private *token*
//!   (mutex + condvar). The running thread hands the token to its chosen
//!   successor and parks on its own; there is no central controller thread.
//! * Blocking is virtual: a mutex acquisition that fails `try_lock` marks
//!   the thread `Blocked(addr)` and schedules someone else. Guard drops call
//!   [`resource_released`], which marks the blocked threads runnable again.
//! * Timeouts are deterministic: a timeoutable wait (condvar `wait_for` /
//!   `wait_until`) only ever times out when **no thread is runnable** — the
//!   scheduler then picks one timeoutable sleeper (a recorded decision) and
//!   fires it. No runnable threads and no timeoutable sleepers is a detected
//!   **deadlock**; exceeding `max_steps` is a detected **livelock**.
//! * Failure tears the run down: blocked threads are poisoned and unwind
//!   with a private [`ModelAbort`] panic payload (swallowed by the per-
//!   thread `catch_unwind`); runnable threads free-run to completion with
//!   every primitive reverting to its real blocking implementation.
//!
//! Only threads created by [`spawn`] inside a [`run`] are scheduled; any
//! other thread in the process sees the tracked primitives behave exactly
//! as in a non-model build, so unrelated tests in the same binary are
//! unaffected. Runs are serialized behind a global lock.
//!
//! The bookkeeping itself must use raw untracked primitives (scheduling the
//! scheduler would recurse).
// lint: allow-file(raw-parking-lot): sync_model.rs implements the model-checker runtime
// lint: allow-file(std-sync): OnceLock cells holding the runtime's own state; tracked primitives cannot host their own interception layer

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Schedule decision source. `candidates` is the sorted list of runnable
/// thread ids (or timeoutable sleeper ids when firing a timeout); return an
/// index into it. Called only when `candidates.len() > 1` — forced moves are
/// taken silently so the recorded decision vector contains branch points
/// only.
pub trait Chooser: Send {
    fn choose(&mut self, candidates: &[usize]) -> usize;
}

/// Why a schedule failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// No runnable thread and no timeoutable sleeper.
    Deadlock { blocked: Vec<String> },
    /// The schedule exceeded `max_steps` yield points (livelock, or a
    /// scenario that genuinely needs a larger budget).
    StepLimit { steps: usize },
    /// A model thread panicked (e.g. a scenario assertion caught a race).
    Panic { thread: String, message: String },
}

impl Failure {
    /// Coarse kind tag, used by the minimizer to decide whether a shrunk
    /// schedule still exhibits "the same" failure.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Deadlock { .. } => "deadlock",
            Failure::StepLimit { .. } => "step-limit",
            Failure::Panic { .. } => "panic",
        }
    }
}

/// One entry in the schedule trace: thread `tid` hit yield/block point
/// `op` on resource `what` (a lock-class or sched-point label).
#[derive(Clone, Debug)]
pub struct Event {
    pub tid: usize,
    pub op: &'static str,
    pub what: &'static str,
}

/// Outcome of one schedule.
#[derive(Debug)]
pub struct RunResult {
    pub failure: Option<Failure>,
    /// `(options, chosen)` at every branch point, in order. Feed the
    /// `chosen` column to a replay chooser to reproduce this schedule.
    pub decisions: Vec<(u8, u8)>,
    pub trace: Vec<Event>,
    pub thread_names: Vec<String>,
    pub steps: usize,
}

/// Panic payload used to unwind threads stuck at a block point when a run
/// tears down. Swallowed by the runtime; never escapes `run`.
struct ModelAbort;

#[derive(Default)]
struct Token {
    go: bool,
    /// Permanently granted (teardown): `wait_token` returns immediately.
    free: bool,
    poisoned: bool,
    timed_out: bool,
}

type TokenCell = Arc<(parking_lot::Mutex<Token>, parking_lot::Condvar)>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    /// At a [`spin_point`]: not scheduled again until another thread has
    /// taken a step that is not itself a spin (or nobody else can run).
    Spinning,
    Blocked {
        resource: usize,
        timeoutable: bool,
    },
    Finished,
}

struct ThreadInfo {
    name: String,
    state: TState,
    blocked_on: &'static str,
    token: TokenCell,
}

/// Sentinel "resource" for thread 0 waiting in `run`'s join loop. Real
/// resources are heap addresses and can never be 1.
const JOIN_RESOURCE: usize = 1;

struct RunState {
    threads: Vec<ThreadInfo>,
    chooser: Box<dyn Chooser>,
    decisions: Vec<(u8, u8)>,
    trace: Vec<Event>,
    steps: usize,
    max_steps: usize,
    failure: Option<Failure>,
    teardown: bool,
    /// Condvar address → FIFO of waiter tids (stale entries skipped).
    cv_waiters: HashMap<usize, VecDeque<usize>>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

fn run_lock() -> &'static parking_lot::Mutex<()> {
    static L: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();
    L.get_or_init(|| parking_lot::Mutex::new(()))
}

fn state() -> &'static parking_lot::Mutex<Option<RunState>> {
    static S: std::sync::OnceLock<parking_lot::Mutex<Option<RunState>>> =
        std::sync::OnceLock::new();
    S.get_or_init(|| parking_lot::Mutex::new(None))
}

thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

pub(crate) fn addr_of<T>(x: &T) -> usize {
    x as *const T as usize
}

/// Is the calling thread a live model thread in an active (non-teardown)
/// run? Primitives check this before intercepting; everything else — other
/// test threads, teardown stragglers — takes the real blocking path.
pub(crate) fn thread_active() -> bool {
    matches!(thread_status(), Status::Active)
}

/// Three-way status, for primitives whose teardown behavior differs from
/// their non-model behavior (untimed condvar waits must abort, not block).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    NotModel,
    Active,
    Teardown,
}

pub(crate) fn thread_status() -> Status {
    if TID.with(|t| t.get()).is_none() {
        return Status::NotModel;
    }
    let st = state().lock();
    match st.as_ref() {
        Some(s) if s.teardown => Status::Teardown,
        Some(_) => Status::Active,
        None => Status::NotModel,
    }
}

/// Unwind the calling thread out of a wait that can never complete during
/// teardown. The panic payload is swallowed by the runtime's catch_unwind.
pub(crate) fn teardown_abort() -> ! {
    std::panic::panic_any(ModelAbort)
}

/// Should the calling acquisition be model-intercepted? `true` for live
/// model threads. During teardown a model thread *aborts* here instead of
/// falling through to a real acquisition — a livelocked or stuck thread
/// would otherwise free-run forever and `run` could never join it. The one
/// exception is a thread already unwinding: its Drop handlers must be able
/// to take real locks without double-panicking.
pub(crate) fn intercept() -> bool {
    match thread_status() {
        Status::NotModel => false,
        Status::Active => true,
        Status::Teardown => {
            if std::thread::panicking() {
                false
            } else {
                teardown_abort()
            }
        }
    }
}

fn cur_tid() -> Option<usize> {
    TID.with(|t| t.get())
}

fn grant(state: &RunState, tid: usize) {
    let (m, cv) = &*state.threads[tid].token;
    m.lock().go = true;
    cv.notify_one();
}

fn wait_token(token: &TokenCell) -> bool {
    let (m, cv) = &**token;
    let mut t = m.lock();
    while !t.go && !t.free {
        cv.wait(&mut t);
    }
    if !t.free {
        t.go = false;
    }
    let timed_out = t.timed_out;
    t.timed_out = false;
    let poisoned = t.poisoned;
    drop(t);
    if poisoned {
        std::panic::panic_any(ModelAbort);
    }
    timed_out
}

/// Enter teardown: every blocked thread is poisoned (it will unwind with
/// `ModelAbort`), every runnable thread free-runs to completion, and
/// thread 0's join wait — if that is where it is parked — is woken cleanly.
fn begin_teardown(s: &mut RunState) {
    s.teardown = true;
    for (tid, th) in s.threads.iter().enumerate() {
        let (m, cv) = &*th.token;
        let mut t = m.lock();
        t.free = true;
        if let TState::Blocked { resource, .. } = th.state {
            if !(tid == 0 && resource == JOIN_RESOURCE) {
                t.poisoned = true;
                t.timed_out = true;
            }
        }
        cv.notify_all();
    }
}

/// Pick and grant the next thread to run. The caller has already marked the
/// current thread `Blocked` or `Finished` (or wants to hand off from a yield
/// point, in which case it stays `Runnable` and may be re-chosen). Returns
/// the chosen tid, or `None` if the caller should keep running (it was
/// re-chosen) — the caller then must *not* wait on its token.
fn schedule_next(s: &mut RunState, self_tid: Option<usize>) -> Option<usize> {
    loop {
        let runnable: Vec<usize> = s
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() && unspin(s) {
            continue; // only spinners left: one of them goes round again
        }
        if !runnable.is_empty() {
            let idx = if runnable.len() == 1 {
                0
            } else {
                let i = s.chooser.choose(&runnable).min(runnable.len() - 1);
                s.decisions.push((runnable.len() as u8, i as u8));
                i
            };
            let chosen = runnable[idx];
            if Some(chosen) == self_tid {
                return None;
            }
            grant(s, chosen);
            return Some(chosen);
        }
        // Nobody runnable: deterministic timeout firing.
        let sleepers: Vec<usize> = s
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(
                    t.state,
                    TState::Blocked {
                        timeoutable: true,
                        ..
                    }
                )
            })
            .map(|(i, _)| i)
            .collect();
        if !sleepers.is_empty() {
            let idx = if sleepers.len() == 1 {
                0
            } else {
                let i = s.chooser.choose(&sleepers).min(sleepers.len() - 1);
                s.decisions.push((sleepers.len() as u8, i as u8));
                i
            };
            let fired = sleepers[idx];
            s.threads[fired].state = TState::Runnable;
            s.threads[fired].token.0.lock().timed_out = true;
            s.trace.push(Event {
                tid: fired,
                op: "timeout",
                what: s.threads[fired].blocked_on,
            });
            continue;
        }
        // Only thread 0 waiting for the others to finish? Wake it.
        let all_done = s
            .threads
            .iter()
            .enumerate()
            .all(|(i, t)| i == 0 || t.state == TState::Finished);
        if all_done {
            if let TState::Blocked {
                resource: JOIN_RESOURCE,
                ..
            } = s.threads[0].state
            {
                s.threads[0].state = TState::Runnable;
                grant(s, 0);
                return Some(0);
            }
            // Thread 0 is still running (we are a finishing thread and it
            // has not reached the join loop yet): nothing to schedule.
            return None;
        }
        // Genuine deadlock.
        // Thread 0 parked in run()'s join loop is waiting *for* the stuck
        // threads, not part of the cycle — keep it out of the evidence.
        let blocked: Vec<String> = s
            .threads
            .iter()
            .filter(|t| {
                matches!(
                    t.state,
                    TState::Blocked { resource, .. } if resource != JOIN_RESOURCE
                )
            })
            .map(|t| format!("{} blocked on {}", t.name, t.blocked_on))
            .collect();
        s.trace.push(Event {
            tid: self_tid.unwrap_or(0),
            op: "deadlock",
            what: "no runnable thread, no timeoutable sleeper",
        });
        if s.failure.is_none() {
            s.failure = Some(Failure::Deadlock { blocked });
        }
        begin_teardown(s);
        return None;
    }
}

/// Make every thread parked at a [`spin_point`] runnable again; `true` if
/// there was one.
fn unspin(s: &mut RunState) -> bool {
    let mut any = false;
    for t in s.threads.iter_mut().filter(|t| t.state == TState::Spinning) {
        t.state = TState::Runnable;
        any = true;
    }
    any
}

/// Record a step; returns `false` if the run is (now) in teardown and the
/// caller should revert to real-blocking behavior.
fn bump_step(s: &mut RunState, tid: usize, op: &'static str, what: &'static str) -> bool {
    if s.teardown {
        return false;
    }
    s.steps += 1;
    s.trace.push(Event { tid, op, what });
    if s.steps > s.max_steps {
        if s.failure.is_none() {
            s.failure = Some(Failure::StepLimit { steps: s.steps });
        }
        begin_teardown(s);
        return false;
    }
    true
}

/// Yield point: the scheduler may preempt the calling thread here. No-op for
/// non-model threads and during teardown.
pub(crate) fn yield_point(op: &'static str, what: &'static str) {
    yield_as(TState::Runnable, op, what);
}

/// Yield point in the body of a spin-wait loop: the caller cannot progress
/// until another thread does, so it is not scheduled again before one has.
/// A plain yield point here livelocks a priority schedule whose leaders
/// spin on a demoted thread.
pub(crate) fn spin_point(what: &'static str) {
    yield_as(TState::Spinning, "spin_point", what);
}

fn yield_as(as_state: TState, op: &'static str, what: &'static str) {
    let Some(tid) = cur_tid() else { return };
    let token;
    {
        let mut st = state().lock();
        let Some(s) = st.as_mut() else { return };
        if !bump_step(s, tid, op, what) {
            return;
        }
        if as_state == TState::Runnable {
            unspin(s); // a real step: what the spinners wait for may have changed
        }
        s.threads[tid].state = as_state;
        match schedule_next(s, Some(tid)) {
            None => return, // re-chosen (or teardown): keep running
            Some(_) => token = Arc::clone(&s.threads[tid].token),
        }
    }
    wait_token(&token);
}

/// Block the calling thread on `resource` until [`resource_released`] (or a
/// condvar notify) makes it runnable again and the scheduler picks it.
/// Returns `true` if the wait was ended by a deterministic timeout. Returns
/// immediately (false) during teardown.
pub(crate) fn block_self(resource: usize, timeoutable: bool, what: &'static str) -> bool {
    let Some(tid) = cur_tid() else { return false };
    let token;
    {
        let mut st = state().lock();
        let Some(s) = st.as_mut() else { return false };
        if !bump_step(s, tid, "block", what) {
            return false;
        }
        s.threads[tid].state = TState::Blocked {
            resource,
            timeoutable,
        };
        s.threads[tid].blocked_on = what;
        schedule_next(s, None);
        if s.teardown {
            // Deadlock was just detected with us as a participant; our own
            // token is poisoned — fall through to wait_token to unwind.
        }
        token = Arc::clone(&s.threads[tid].token);
    }
    wait_token(&token)
}

/// A resource (mutex / rwlock address) was physically released: make every
/// thread blocked on it runnable so they can retry their acquisition.
pub(crate) fn resource_released(resource: usize) {
    let Some(_tid) = cur_tid() else { return };
    let mut st = state().lock();
    let Some(s) = st.as_mut() else { return };
    if s.teardown {
        return;
    }
    for th in s.threads.iter_mut() {
        if let TState::Blocked { resource: r, .. } = th.state {
            if r == resource {
                th.state = TState::Runnable;
            }
        }
    }
}

/// Condvar wait: the caller has already physically released the mutex.
/// Registers on the condvar's FIFO, wakes mutex waiters, blocks; returns
/// `true` on deterministic timeout. The caller reacquires the mutex itself.
pub(crate) fn cv_wait(cv: usize, mutex: usize, timeoutable: bool, what: &'static str) -> bool {
    let Some(tid) = cur_tid() else { return false };
    let token;
    {
        let mut st = state().lock();
        let Some(s) = st.as_mut() else { return false };
        if !bump_step(s, tid, "cv.wait", what) {
            return true; // teardown: report timeout so predicate loops bail
        }
        for th in s.threads.iter_mut() {
            if let TState::Blocked { resource: r, .. } = th.state {
                if r == mutex {
                    th.state = TState::Runnable;
                }
            }
        }
        s.cv_waiters.entry(cv).or_default().push_back(tid);
        s.threads[tid].state = TState::Blocked {
            resource: cv,
            timeoutable,
        };
        s.threads[tid].blocked_on = what;
        schedule_next(s, None);
        token = Arc::clone(&s.threads[tid].token);
    }
    wait_token(&token)
}

/// Condvar notify: pop one (or all) live waiters and make them runnable.
/// They still race to reacquire the mutex like real condvar waiters. This is
/// itself a yield point — lost-wake bugs hide in notify/wait interleavings.
pub(crate) fn cv_notify(cv: usize, all: bool, what: &'static str) {
    yield_point("cv.notify", what);
    let Some(_tid) = cur_tid() else { return };
    let mut st = state().lock();
    let Some(s) = st.as_mut() else { return };
    if s.teardown {
        return;
    }
    if let Some(q) = s.cv_waiters.get_mut(&cv) {
        while let Some(w) = q.pop_front() {
            // Skip stale entries (waiter already timed out / woken).
            let live = matches!(
                s.threads[w].state,
                TState::Blocked { resource, .. } if resource == cv
            );
            if live {
                s.threads[w].state = TState::Runnable;
                if !all {
                    break;
                }
            }
        }
    }
}

/// Spawn a model thread. Must be called from inside a [`run`]; the new
/// thread starts runnable but does not execute until the scheduler picks it.
pub fn spawn<F>(name: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let parent = cur_tid();
    let mut st = state().lock();
    let s = st.as_mut().expect("model::spawn called outside model::run");
    if parent.is_none() {
        panic!("model::spawn called from a non-model thread");
    }
    if s.teardown {
        // Free-running: no scheduling, just track the handle for join.
        let h = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(f));
            })
            .expect("spawn model thread");
        s.os_handles.push(h);
        return;
    }
    let tid = s.threads.len();
    let token: TokenCell = Arc::default();
    s.threads.push(ThreadInfo {
        name: name.to_string(),
        state: TState::Runnable,
        blocked_on: "",
        token: Arc::clone(&token),
    });
    s.trace.push(Event {
        tid,
        op: "spawn",
        what: "",
    });
    let tname = name.to_string();
    let h = std::thread::Builder::new()
        .name(tname.clone())
        .spawn(move || {
            TID.with(|t| t.set(Some(tid)));
            wait_token(&token);
            let r = catch_unwind(AssertUnwindSafe(f));
            finish_thread(tid, r);
        })
        .expect("spawn model thread");
    s.os_handles.push(h);
}

fn finish_thread(tid: usize, r: Result<(), Box<dyn std::any::Any + Send>>) {
    let mut st = state().lock();
    let Some(s) = st.as_mut() else { return };
    if let Err(p) = r {
        if !p.is::<ModelAbort>() && s.failure.is_none() {
            let message = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            s.failure = Some(Failure::Panic {
                thread: s.threads[tid].name.clone(),
                message,
            });
            begin_teardown(s);
        }
    }
    s.threads[tid].state = TState::Finished;
    s.trace.push(Event {
        tid,
        op: "finish",
        what: "",
    });
    if !s.teardown {
        schedule_next(s, None);
    }
}

/// Execute `f` as thread 0 of a fresh model run, driving every
/// [`spawn`]-ed thread under `chooser` until all finish or a failure is
/// detected. Runs are serialized process-wide.
pub fn run<F>(chooser: Box<dyn Chooser>, max_steps: usize, f: F) -> RunResult
where
    F: FnOnce(),
{
    let _serial = run_lock().lock();
    let token0: TokenCell = Arc::default();
    {
        let mut st = state().lock();
        assert!(st.is_none(), "model::run re-entered");
        *st = Some(RunState {
            threads: vec![ThreadInfo {
                name: "main".to_string(),
                state: TState::Runnable,
                blocked_on: "",
                token: Arc::clone(&token0),
            }],
            chooser,
            decisions: Vec::new(),
            trace: Vec::new(),
            steps: 0,
            max_steps,
            failure: None,
            teardown: false,
            cv_waiters: HashMap::new(),
            os_handles: Vec::new(),
        });
    }
    TID.with(|t| t.set(Some(0)));

    let r = catch_unwind(AssertUnwindSafe(f));
    if let Err(p) = r {
        if !p.is::<ModelAbort>() {
            let mut st = state().lock();
            let s = st.as_mut().expect("run state");
            if s.failure.is_none() {
                let message = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|m| m.to_string()))
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                s.failure = Some(Failure::Panic {
                    thread: "main".to_string(),
                    message,
                });
            }
            begin_teardown(s);
        }
    }

    // Join loop: participate in the schedule until every spawned thread has
    // finished, then reap the OS handles.
    loop {
        let token;
        {
            let mut st = state().lock();
            let s = st.as_mut().expect("run state");
            if s.teardown {
                break;
            }
            let all_done = s
                .threads
                .iter()
                .enumerate()
                .all(|(i, t)| i == 0 || t.state == TState::Finished);
            if all_done {
                break;
            }
            s.threads[0].state = TState::Blocked {
                resource: JOIN_RESOURCE,
                timeoutable: false,
            };
            s.threads[0].blocked_on = "join";
            schedule_next(s, None);
            token = Arc::clone(&s.threads[0].token);
        }
        // Poison is never set on thread 0's join wait; teardown frees it.
        wait_token(&token);
    }

    let handles = {
        let mut st = state().lock();
        std::mem::take(&mut st.as_mut().expect("run state").os_handles)
    };
    for h in handles {
        let _ = h.join();
    }
    TID.with(|t| t.set(None));
    let s = state().lock().take().expect("run state");
    RunResult {
        failure: s.failure,
        decisions: s.decisions,
        trace: s.trace,
        thread_names: s.threads.iter().map(|t| t.name.clone()).collect(),
        steps: s.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{LockClass, TrackedCondvar, TrackedMutex};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deterministic pseudo-random chooser for the runtime's own tests.
    struct Lcg(u64);
    impl Chooser for Lcg {
        fn choose(&mut self, candidates: &[usize]) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((self.0 >> 33) as usize) % candidates.len()
        }
    }

    /// Chooser that always picks the first candidate.
    struct First;
    impl Chooser for First {
        fn choose(&mut self, _c: &[usize]) -> usize {
            0
        }
    }

    #[test]
    fn completes_simple_two_thread_run() {
        for seed in 0..20 {
            let hits = Arc::new(AtomicUsize::new(0));
            let m = Arc::new(TrackedMutex::new(LockClass::new("test.model.m"), 0u32));
            let h2 = Arc::clone(&hits);
            let m2 = Arc::clone(&m);
            let res = run(Box::new(Lcg(seed)), 10_000, move || {
                let h = Arc::clone(&h2);
                let mm = Arc::clone(&m2);
                spawn("a", move || {
                    *mm.lock() += 1;
                    h.fetch_add(1, Ordering::SeqCst);
                });
                let h = Arc::clone(&h2);
                let mm = Arc::clone(&m2);
                spawn("b", move || {
                    *mm.lock() += 1;
                    h.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(res.failure.is_none(), "seed {seed}: {:?}", res.failure);
            assert_eq!(hits.load(Ordering::SeqCst), 2, "seed {seed}");
            assert_eq!(*m.lock(), 2, "seed {seed}");
        }
    }

    #[test]
    fn detects_abba_deadlock() {
        // Hold-and-wait in opposite orders: some schedule must deadlock.
        let mut saw_deadlock = false;
        for seed in 0..50 {
            let a = Arc::new(TrackedMutex::new(LockClass::new("test.model.a"), ()));
            let b = Arc::new(TrackedMutex::new(LockClass::new("test.model.b"), ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let res = run(Box::new(Lcg(seed)), 10_000, move || {
                let (al, bl) = (Arc::clone(&a2), Arc::clone(&b2));
                spawn("ab", move || {
                    let _ga = al.lock();
                    let _gb = bl.lock();
                });
                let (al, bl) = (Arc::clone(&a2), Arc::clone(&b2));
                spawn("ba", move || {
                    let _gb = bl.lock();
                    let _ga = al.lock();
                });
            });
            match &res.failure {
                Some(Failure::Deadlock { blocked }) => {
                    assert_eq!(blocked.len(), 2, "seed {seed}: {blocked:?}");
                    saw_deadlock = true;
                }
                // With sanitize also on, the lock-order graph catches the
                // inversion statically before any schedule deadlocks.
                Some(Failure::Panic { message, .. })
                    if message.contains("lock-order violation") =>
                {
                    saw_deadlock = true;
                }
                _ => {}
            }
        }
        assert!(saw_deadlock, "no seed in 0..50 found the ABBA deadlock");
    }

    #[test]
    fn replaying_decisions_reproduces_the_schedule() {
        // Find a failing seed, then replay its decision vector and demand
        // the identical failure and decision stream.
        struct Replay(Vec<u8>, usize);
        impl Chooser for Replay {
            fn choose(&mut self, candidates: &[usize]) -> usize {
                let i = self.1;
                self.1 += 1;
                self.0
                    .get(i)
                    .map(|&c| (c as usize).min(candidates.len() - 1))
                    .unwrap_or(0)
            }
        }
        let scenario = |chooser: Box<dyn Chooser>| {
            let a = Arc::new(TrackedMutex::new(LockClass::new("test.model.ra"), ()));
            let b = Arc::new(TrackedMutex::new(LockClass::new("test.model.rb"), ()));
            run(chooser, 10_000, move || {
                let (al, bl) = (Arc::clone(&a), Arc::clone(&b));
                spawn("ab", move || {
                    let _ga = al.lock();
                    let _gb = bl.lock();
                });
                let (al, bl) = (Arc::clone(&a), Arc::clone(&b));
                spawn("ba", move || {
                    let _gb = bl.lock();
                    let _ga = al.lock();
                });
            })
        };
        let mut failing = None;
        for seed in 0..100 {
            let res = scenario(Box::new(Lcg(seed)));
            if res.failure.is_some() {
                failing = Some(res);
                break;
            }
        }
        let first = failing.expect("some seed deadlocks");
        let decisions: Vec<u8> = first.decisions.iter().map(|&(_, c)| c).collect();
        let again = scenario(Box::new(Replay(decisions, 0)));
        assert_eq!(
            again.failure.as_ref().map(Failure::kind),
            first.failure.as_ref().map(Failure::kind)
        );
        assert_eq!(again.decisions, first.decisions);
    }

    #[test]
    fn condvar_timeout_fires_only_when_stuck() {
        // A waiter with a timeout and a notifier: under every schedule the
        // waiter must wake (notify or deterministic timeout) and finish.
        for seed in 0..20 {
            let pair = Arc::new((
                TrackedMutex::new(LockClass::new("test.model.cvm"), false),
                TrackedCondvar::new(),
            ));
            let p2 = Arc::clone(&pair);
            let res = run(Box::new(Lcg(seed)), 10_000, move || {
                let p = Arc::clone(&p2);
                spawn("waiter", move || {
                    let (m, cv) = &*p;
                    let mut g = m.lock();
                    while !*g {
                        if cv
                            .wait_for(&mut g, std::time::Duration::from_secs(1))
                            .timed_out()
                        {
                            break;
                        }
                    }
                });
                let p = Arc::clone(&p2);
                spawn("notifier", move || {
                    let (m, cv) = &*p;
                    *m.lock() = true;
                    cv.notify_all();
                });
            });
            assert!(res.failure.is_none(), "seed {seed}: {:?}", res.failure);
        }
    }

    #[test]
    fn lost_wake_without_timeout_is_a_deadlock() {
        // Waiter with no timeout, notify happens before the wait under a
        // first-choice schedule ordering the notifier first — the waiter
        // then sleeps forever: the checker must call it a deadlock.
        let mut saw = false;
        for seed in 0..40 {
            let pair = Arc::new((
                TrackedMutex::new(LockClass::new("test.model.lost"), ()),
                TrackedCondvar::new(),
            ));
            let p2 = Arc::clone(&pair);
            let res = run(Box::new(Lcg(seed)), 10_000, move || {
                let p = Arc::clone(&p2);
                spawn("waiter", move || {
                    let (m, cv) = &*p;
                    let mut g = m.lock();
                    // Deliberately unconditional wait: racy by construction.
                    cv.wait(&mut g);
                });
                let p = Arc::clone(&p2);
                spawn("notifier", move || {
                    let (_m, cv) = &*p;
                    cv.notify_one();
                });
            });
            if matches!(res.failure, Some(Failure::Deadlock { .. })) {
                saw = true;
            }
        }
        assert!(saw, "no schedule exposed the lost wake");
    }

    #[test]
    fn panic_in_model_thread_is_reported() {
        let res = run(Box::new(First), 1_000, || {
            spawn("boom", || panic!("scenario assertion failed: x"));
        });
        match res.failure {
            Some(Failure::Panic { thread, message }) => {
                assert_eq!(thread, "boom");
                assert!(message.contains("scenario assertion failed"));
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_catches_livelock() {
        let res = run(Box::new(First), 200, || {
            spawn("spinner", || {
                let m = TrackedMutex::new(LockClass::new("test.model.spin"), ());
                loop {
                    let _g = m.lock();
                    // Spin forever: the step limit must end the run.
                }
            });
        });
        assert!(
            matches!(res.failure, Some(Failure::StepLimit { .. })),
            "{:?}",
            res.failure
        );
    }
}
