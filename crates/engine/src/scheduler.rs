//! Parkable transaction scheduler (the async engine core), and the engine's
//! one wait primitive.
//!
//! Transactions become state machines that **park** on their wait classes —
//! page-load completion (`pmp-io` CQE), PLock grant, row lock, CTS lease
//! refill and `wal_force` group commit — releasing their worker thread, and
//! are re-queued on wake. A handful of workers therefore multiplexes
//! hundreds of open transactions, which is what lets a 2-worker node keep
//! the fabric and the storage ring full (the disaggregated-memory argument
//! of arXiv 2207.03027 §1: with sub-100µs remote waits the CPU must overlap
//! many in-flight txns per core).
//!
//! ## One wait path
//!
//! Every wait in the engine is written once, against a [`Waiter`] — what
//! the current thread suspends as: the running task's [`Parker`], or the
//! thread itself — in the shape
//!
//! ```text
//! loop { lock; if satisfied { return }; register waiter.waker() under the
//!        same lock; unlock; waiter.suspend(deadline)? }
//! ```
//!
//! [`Waiter::suspend`] is the single branch between the parking and the
//! blocking engine. A task's returns [`PmpError::WouldBlock`]: the
//! statement unwinds to its session actor, the step parks, and the wake
//! re-runs it from the top. A thread's blocks on its own condvar until the
//! waker fires or the deadline passes and returns `Ok(())`, so the caller
//! loops. Either way the wait is re-checked, and its source never asks
//! which of the two it is serving. Code that cannot unwind runs under
//! [`with_parking_disabled`] — "suspend as a thread here" — and a stopped
//! scheduler means the same.
//!
//! ## The park/wake protocol (why wakes can't miss)
//!
//! Each task owns a persistent [`Parker`] with a three-state atomic:
//! `RUNNING → PARKED → (wake) → RUNNING`, plus `NOTIFIED` as a sticky
//! "wake arrived" marker. The ordering discipline is publish-then-check on
//! both sides:
//!
//! * The **worker**, when a step returns [`StepResult::Parked`], first
//!   publishes the step into the parker's slot, *then* CAS-es
//!   `RUNNING → PARKED`. If the CAS fails a wake landed mid-step
//!   (`NOTIFIED`); the worker reclaims the step and re-queues it at once.
//! * A **waker** swaps the state to `NOTIFIED`. Only if it observed
//!   `PARKED` does it take the step from the slot and enqueue it — and
//!   `PARKED` is only observable after the step was published. A waker that
//!   observed `RUNNING` did not touch the slot, but its `NOTIFIED` makes
//!   the worker's CAS fail, so the wake still lands. A waker that observed
//!   `NOTIFIED` is absorbed (someone else already owns the re-queue).
//!
//! Spurious wakes are therefore harmless by construction: a step re-runs,
//! re-checks its wait condition and re-parks. Park points are written to be
//! idempotent (statement retry, staged commit), which the rest of the
//! engine relies on.
//!
//! ## Inline runs
//!
//! A step moves to a worker only when that buys something. Two wakers run
//! the step they claim on their own thread instead, through the same
//! protocol a worker uses (thread-local parker set, publish-then-CAS on
//! `Parked`):
//!
//! * [`Parker::wake_inline`] — the caller has nothing else to do until the
//!   task makes progress (`DbFuture::wait`), so a hand-off would cost a
//!   futex round trip each way for no overlap. A step that meets a real
//!   wait parks as usual and is resumed on a worker by its wait source.
//! * Any wake after [`Scheduler::stop`] (node shutdown or crash).
//!   [`Waiter::current`] then makes every wait suspend as a thread;
//!   combined with stop firing all pending deadline timers, every
//!   outstanding future resolves — usually with `NodeUnavailable` from the
//!   dead node.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pmp_common::sync::{sched_point, LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{Counter, Gauge, PmpError, Result};

/// Run-queue of ready continuations.
const SCHED_QUEUE: LockClass = LockClass::new("sched.queue");
/// Per-task parker slot (step + error + wait bookkeeping).
const SCHED_PARKER: LockClass = LockClass::new("sched.parker");
/// Armed deadline timers.
const SCHED_TIMER: LockClass = LockClass::new("sched.timer");
/// A blocked thread's wake flag (leaf: nothing is acquired under it).
const SCHED_WAITER: LockClass = LockClass::new("sched.waiter");

const RUNNING: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

/// Outcome of one step of a task's state machine.
pub enum StepResult {
    /// The task is finished; the scheduler drops it.
    Done,
    /// The task registered a waker with some wait source and yields its
    /// worker. It runs again (from the top of the step) after the next
    /// [`Parker::wake`].
    Parked,
}

/// One resumable unit of work. Steps are re-entrant: every run starts from
/// the top and must re-check whatever it last waited for.
pub type Step = Box<dyn FnMut() -> StepResult + Send>;

thread_local! {
    static CURRENT_PARKER: RefCell<Option<Arc<Parker>>> = const { RefCell::new(None) };
}

/// The parker of the task currently running on this thread, if any — on a
/// worker, or on a client thread running the task inline. Wait sources do
/// not call this: they take [`Waiter::current`].
pub fn current_parker() -> Option<Arc<Parker>> {
    CURRENT_PARKER.with(|c| c.borrow().clone())
}

fn set_current(parker: Option<Arc<Parker>>) -> Option<Arc<Parker>> {
    CURRENT_PARKER.with(|c| c.replace(parker))
}

/// Run `f` with this thread's parker hidden, so every wait inside suspends
/// as a thread. For code that cannot unwind and be re-run: rollback (undo
/// replay must not interleave with a statement re-run), release hooks, the
/// log force inside a B-tree split.
pub(crate) fn with_parking_disabled<R>(f: impl FnOnce() -> R) -> R {
    let _restore = CurrentParker::enter(None);
    f()
}

/// Scope of a [`set_current`]: the previous parker comes back on drop, so a
/// step that panics on a client thread (an inline run) cannot leave that
/// thread looking like a scheduler worker.
struct CurrentParker(Option<Arc<Parker>>);

impl CurrentParker {
    fn enter(parker: Option<Arc<Parker>>) -> Self {
        CurrentParker(set_current(parker))
    }
}

impl Drop for CurrentParker {
    fn drop(&mut self) {
        set_current(self.0.take());
    }
}

// ---- the wait primitive -----------------------------------------------------

/// The real clock: lock-wait deadlines, backstops and the timer thread run
/// on real time, not modelled latency.
fn now() -> Instant {
    // lint: allow(raw-instant): deadlines are scheduler infrastructure, not modelled latency
    Instant::now()
}

/// `timeout` from now; `None` when that is past the end of time (a wait
/// with no deadline).
pub(crate) fn deadline_in(timeout: Duration) -> Option<Instant> {
    now().checked_add(timeout)
}

/// The deadline of a wait whose wake its source's protocol guarantees (a
/// group-commit follower, a committer behind a CTS lease round). It turns a
/// wake that is lost anyway — the waiter woken to take over crashed instead
/// — into a re-check rather than a hang, and it is the timer
/// [`Scheduler::stop`] fires when the node goes down.
pub(crate) fn backstop() -> Option<Instant> {
    deadline_in(Duration::from_millis(100))
}

/// Whether `deadline` has passed (`None` never does).
pub(crate) fn passed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|at| now() >= at)
}

/// A plain thread's wake flag. Wakers are tagged with the generation of the
/// wait they were made for, so one that fires late cannot disturb the next.
#[derive(Debug, Default)]
struct ThreadWait {
    gen: u64,
    woken: bool,
    error: Option<PmpError>,
}

#[derive(Debug)]
pub(crate) struct ThreadWaiter {
    state: TrackedMutex<ThreadWait>,
    cv: TrackedCondvar,
}

thread_local! {
    static THREAD_WAITER: Arc<ThreadWaiter> = Arc::new(ThreadWaiter {
        state: TrackedMutex::new(SCHED_WAITER, ThreadWait::default()),
        cv: TrackedCondvar::new(),
    });
}

/// What the current thread suspends as (module docs, "One wait path").
pub(crate) enum Waiter {
    /// A scheduler task: suspending parks it.
    Task(Arc<Parker>),
    /// The thread itself — a plain thread, a task under
    /// [`with_parking_disabled`], or any task once its scheduler stopped.
    Thread,
}

/// Wakes the waiter it was made by. Safe to fire late or after the wait is
/// over: a task absorbs the extra wake, a thread ignores a waker of an
/// earlier wait (the generation it carries).
#[derive(Debug)]
pub(crate) enum Waker {
    Task(Arc<Parker>),
    Thread(Arc<ThreadWaiter>, u64),
}

impl Waker {
    pub(crate) fn wake(self) {
        self.deliver(None);
    }

    /// The wait failed: the waiter's suspend (a thread) or its re-run (a
    /// task, through the session actor) ends with `e`.
    pub(crate) fn fail(self, e: PmpError) {
        self.deliver(Some(e));
    }

    fn deliver(self, error: Option<PmpError>) {
        match self {
            Waker::Task(parker) => {
                if let Some(e) = error {
                    parker.set_error(e);
                }
                parker.wake();
            }
            Waker::Thread(thread, gen) => {
                let mut st = thread.state.lock();
                if st.gen == gen {
                    st.woken = true;
                    if error.is_some() {
                        st.error = error;
                    }
                    drop(st);
                    thread.cv.notify_one();
                }
            }
        }
    }
}

impl Waiter {
    pub(crate) fn current() -> Waiter {
        let running = |s: Arc<SchedInner>| !s.stopped.load(Ordering::Acquire);
        match current_parker() {
            // A task parks only while its scheduler runs.
            Some(p) if p.sched.upgrade().is_some_and(running) => Waiter::Task(p),
            _ => Waiter::Thread,
        }
    }

    /// A waker for the wait about to begin; register it with the wait
    /// source under the lock the wait condition is checked under. Every
    /// [`suspend`](Self::suspend) needs a fresh one, and nothing that may
    /// itself wait runs on this thread between the two (making a thread's
    /// next waker retires this one).
    pub(crate) fn waker(&self) -> Waker {
        match self {
            Waiter::Task(parker) => Waker::Task(Arc::clone(parker)),
            Waiter::Thread => THREAD_WAITER.with(|thread| {
                let mut st = thread.state.lock();
                *st = ThreadWait {
                    gen: st.gen + 1,
                    ..ThreadWait::default()
                };
                Waker::Thread(Arc::clone(thread), st.gen)
            }),
        }
    }

    /// Give up the CPU until the waker fires or `deadline` passes (module
    /// docs). An `Err` other than `WouldBlock` is the wait source failing
    /// the wait ([`Waker::fail`]).
    pub(crate) fn suspend(&self, deadline: Option<Instant>) -> Result<()> {
        match self {
            Waiter::Task(parker) => {
                if let Some(at) = deadline {
                    parker.park_deadline(at);
                }
                Err(PmpError::WouldBlock)
            }
            Waiter::Thread => THREAD_WAITER.with(|thread| {
                let mut st = thread.state.lock();
                while !st.woken {
                    match deadline {
                        // lint: allow(blocking-wait-in-scheduler): a thread waiter is by definition the thread that blocks; tasks take the arm above
                        Some(at) if thread.cv.wait_until(&mut st, at).timed_out() => break,
                        Some(_) => {}
                        // lint: allow(blocking-wait-in-scheduler): as above, for a wait with no deadline
                        None => thread.cv.wait(&mut st),
                    }
                }
                st.woken = false;
                st.error.take().map_or(Ok(()), Err)
            }),
        }
    }

    /// When this waiter's lock wait on `key` (a page id) gives up. Every
    /// wake re-runs a task's statement from the top, so its parker keeps the
    /// wait in progress and a re-run gets the deadline recorded when the
    /// wait began; a thread never leaves its wait loop — it asks once and
    /// keeps the answer on its stack.
    pub(crate) fn lock_wait_deadline(&self, key: u64, timeout: Duration) -> Option<Instant> {
        let Waiter::Task(parker) = self else {
            return deadline_in(timeout);
        };
        let mut slot = parker.slot.lock();
        match slot.wait {
            Some((k, deadline)) if k == key => deadline,
            _ => {
                let deadline = deadline_in(timeout);
                slot.wait = Some((key, deadline));
                deadline
            }
        }
    }

    /// The lock wait on `key` is over (satisfied, timed out or failed).
    pub(crate) fn lock_wait_over(&self, key: u64) {
        if let Waiter::Task(parker) = self {
            let mut slot = parker.slot.lock();
            if slot.wait.is_some_and(|(k, _)| k == key) {
                slot.wait = None;
            }
        }
    }
}

/// Scheduler counters, surfaced through the typed cluster stats.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Steps a *worker* gave up (one per park, not per task). A step that
    /// parks at the end of an inline run is not counted: no worker was
    /// released.
    pub parks: Counter,
    /// Hand-offs to the run queue — the wakes that cost a futex. Absorbed
    /// wakes and inline runs are not counted.
    pub wakes: Counter,
    /// Steps run on the thread that woke them: a client inside
    /// `DbFuture::wait`, or any waker after `stop`.
    pub inline_runs: Counter,
    /// Deadline timers that fired.
    pub timer_fires: Counter,
    /// Live tasks (spawned and not yet `Done`); the HWM is the
    /// open-continuations ceiling the acceptance test asserts on.
    pub tasks: Gauge,
}

struct ReadyTask {
    parker: Arc<Parker>,
    step: Step,
}

/// How one run of a step ended.
enum Ran {
    Done,
    Parked,
    /// A wake landed while the step ran: it is to run again.
    Woken(Step),
}

#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<ReadyTask>,
}

/// Armed deadlines, earliest first. The key is the instant and the task's
/// address: re-arming a task's deadline for the same instant is a no-op.
type Timers = BTreeMap<(Instant, usize), Arc<Parker>>;

struct SchedInner {
    queue: TrackedMutex<RunQueue>,
    cv: TrackedCondvar,
    timers: TrackedMutex<Timers>,
    timer_cv: TrackedCondvar,
    stats: SchedStats,
    stopped: AtomicBool,
}

/// Per-task wake handle; see the module docs for the state protocol.
pub struct Parker {
    state: AtomicU8,
    slot: TrackedMutex<ParkerSlot>,
    sched: Weak<SchedInner>,
}

#[derive(Default)]
struct ParkerSlot {
    step: Option<Step>,
    /// A wait source that failed delivers its error here before waking; the
    /// session actor turns it into the statement's outcome.
    error: Option<PmpError>,
    /// The lock wait in progress, page id and deadline
    /// ([`Waiter::lock_wait_deadline`]): persisted across re-runs so
    /// repeated park/wake cycles still time out.
    wait: Option<(u64, Option<Instant>)>,
    /// Deadline of the suspend the task is in; cleared whenever its step is
    /// taken to run. A timer entry for any other instant is stale.
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Parker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parker")
            .field("state", &self.state.load(Ordering::Relaxed)) // lint: allow(relaxed-atomic): Debug snapshot only
            .finish_non_exhaustive()
    }
}

impl Parker {
    /// Deliver a wake. Safe to call from any thread, any number of times;
    /// extra wakes are absorbed, and a wake that races the parking worker
    /// is never lost (publish-then-check, see module docs).
    pub fn wake(self: &Arc<Self>) {
        if let Some(step) = self.claim() {
            SchedInner::enqueue(&self.sched, Arc::clone(self), step);
        }
    }

    /// [`wake`](Self::wake) for a caller that is about to block on the
    /// task's progress: a parked task's step runs on the calling thread
    /// rather than being handed to a worker (module docs, "Inline runs").
    /// If the task is not parked this is an ordinary wake. The caller runs
    /// charged engine code, so it must hold no tracked lock.
    pub fn wake_inline(self: &Arc<Self>) {
        if let Some(step) = self.claim() {
            SchedInner::run_inline(self.sched.upgrade().as_deref(), self, step);
        }
    }

    /// The waker half of the protocol: mark `NOTIFIED` and, if that found
    /// the task `PARKED`, take its step.
    fn claim(&self) -> Option<Step> {
        let prev = self.state.swap(NOTIFIED, Ordering::AcqRel);
        sched_point("sched.wake.swap-window");
        if prev != PARKED {
            return None;
        }
        // Only the single waker that observed PARKED reaches here, and
        // PARKED is set strictly after the step was published to the slot.
        self.take_step()
    }

    /// Take the published step to run it: whatever suspend it was in is
    /// over, so its deadline no longer stands.
    fn take_step(&self) -> Option<Step> {
        let mut slot = self.slot.lock();
        slot.deadline = None;
        slot.step.take()
    }

    /// Whether the task is parked (its step published, no wake pending).
    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.state.load(Ordering::Acquire) == PARKED
    }

    /// Record a failure for the parked step; pair with [`Parker::wake`].
    pub fn set_error(&self, e: PmpError) {
        self.slot.lock().error = Some(e);
    }

    pub fn take_error(&self) -> Option<PmpError> {
        self.slot.lock().error.take()
    }

    /// Forget the lock wait an abandoned statement left behind.
    pub(crate) fn forget_wait(&self) {
        self.slot.lock().wait = None;
    }

    #[cfg(test)]
    pub(crate) fn recorded_wait(&self) -> Option<(u64, Option<Instant>)> {
        self.slot.lock().wait
    }

    /// Arm a deadline: the task is woken at `at` if it is still in the
    /// suspend that asked for it — once its step has been taken to run, the
    /// entry is stale and dropped unfired. Every park that is not otherwise
    /// guaranteed a wake arms one of these, which is also what makes
    /// `Scheduler::stop` hang-free — stop fires all pending timers.
    pub fn park_deadline(self: &Arc<Self>, at: Instant) {
        self.slot.lock().deadline = Some(at);
        if let Some(s) = self.sched.upgrade() {
            if !s.stopped.load(Ordering::Acquire) {
                sched_point("sched.park-deadline.stop-window");
                let mut t = s.timers.lock();
                // Re-check under the timer lock: `stop` may have flagged,
                // woken and joined the timer thread since the load above,
                // and an entry pushed now would sit in a map nobody drains
                // (crates/model/tests/parker_timer.rs). `stop` drains the map
                // once more after the join, so one pushed before is fired.
                if !s.stopped.load(Ordering::Acquire) {
                    let key = (at, Arc::as_ptr(self) as usize);
                    let armed = t.insert(key, Arc::clone(self)).is_none();
                    // The timer thread sleeps to the earliest deadline; it
                    // needs a nudge only when this entry became that.
                    let earliest = armed && t.keys().next() == Some(&key);
                    drop(t);
                    if earliest {
                        s.timer_cv.notify_all();
                    }
                    return;
                }
            }
        }
        // Stopped or gone: wake immediately. The re-run suspends as a
        // thread, so this cannot loop.
        self.wake();
    }

    /// The timer thread popped this task's entry for `at`: is that still
    /// the deadline the task is suspended on?
    fn deadline_due(&self, at: Instant) -> bool {
        self.slot.lock().deadline == Some(at)
    }
}

impl SchedInner {
    /// Hand a ready task to the workers — or, when the scheduler has
    /// stopped, run it inline on the calling thread so its future still
    /// resolves.
    fn enqueue(sched: &Weak<SchedInner>, parker: Arc<Parker>, step: Step) {
        let s = sched.upgrade();
        if let Some(s) = &s {
            if !s.stopped.load(Ordering::Acquire) {
                let mut q = s.queue.lock();
                if !s.stopped.load(Ordering::Acquire) {
                    q.tasks.push_back(ReadyTask { parker, step });
                    drop(q);
                    s.stats.wakes.inc();
                    s.cv.notify_one();
                    return;
                }
            }
        }
        Self::run_inline(s.as_deref(), &parker, step);
    }

    /// Run a claimed task on the calling thread until it parks or finishes,
    /// and account for it (`sched` is `None` once the scheduler was dropped
    /// entirely: nothing left to account against).
    fn run_inline(sched: Option<&SchedInner>, parker: &Arc<Parker>, mut step: Step) {
        if let Some(s) = sched {
            s.stats.inline_runs.inc();
        }
        loop {
            match Self::run_step(parker, step) {
                Ran::Woken(again) => step = again,
                Ran::Parked => return,
                Ran::Done => {
                    if let Some(s) = sched {
                        s.stats.tasks.dec();
                    }
                    return;
                }
            }
        }
    }

    /// Run one step under the park protocol (module docs): publish the step,
    /// then CAS `RUNNING → PARKED`.
    fn run_step(parker: &Arc<Parker>, mut step: Step) -> Ran {
        parker.state.store(RUNNING, Ordering::Release);
        let res = {
            let _current = CurrentParker::enter(Some(Arc::clone(parker)));
            step()
        };
        if let StepResult::Done = res {
            return Ran::Done;
        }
        parker.slot.lock().step = Some(step);
        sched_point("sched.park.publish-window");
        let parked =
            parker
                .state
                .compare_exchange(RUNNING, PARKED, Ordering::AcqRel, Ordering::Acquire);
        match parked {
            Ok(_) => Ran::Parked,
            // NOTIFIED landed mid-step; the waker did not touch the slot (it
            // never saw PARKED), so the step is still the caller's to run.
            Err(_) => parker.take_step().map_or(Ran::Parked, Ran::Woken),
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let task = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(t) = q.tasks.pop_front() {
                        break Some(t);
                    }
                    if self.stopped.load(Ordering::Acquire) {
                        break None;
                    }
                    // lint: allow(blocking-wait-in-scheduler): idle workers park on the run-queue condvar; no task is occupying this thread
                    self.cv.wait(&mut q);
                }
            };
            let Some(ReadyTask { parker, step }) = task else {
                return;
            };
            match Self::run_step(&parker, step) {
                Ran::Done => self.stats.tasks.dec(),
                Ran::Parked => self.stats.parks.inc(),
                Ran::Woken(step) => {
                    self.stats.parks.inc();
                    Self::enqueue(&Arc::downgrade(self), parker, step);
                }
            }
        }
    }

    fn timer_loop(self: &Arc<Self>) {
        loop {
            let mut due = Vec::new();
            {
                let mut t = self.timers.lock();
                loop {
                    if self.stopped.load(Ordering::Acquire) {
                        // Fire everything outstanding so no park outlives
                        // the scheduler.
                        due.extend(std::mem::take(&mut *t));
                        break;
                    }
                    let now = now();
                    while let Some(e) = t.first_entry() {
                        if e.key().0 > now {
                            break;
                        }
                        due.push(e.remove_entry());
                    }
                    if !due.is_empty() {
                        break;
                    }
                    match t.keys().next() {
                        Some(&(at, _)) => {
                            // lint: allow(blocking-wait-in-scheduler): the timer thread is infrastructure, not a task worker
                            let _ = self.timer_cv.wait_until(&mut t, at);
                        }
                        // lint: allow(blocking-wait-in-scheduler): idle timer thread
                        None => self.timer_cv.wait(&mut t),
                    }
                }
            }
            let stopping = self.stopped.load(Ordering::Acquire);
            for ((at, _), parker) in due {
                // A deadline whose wait already ended is not a wake.
                if stopping || parker.deadline_due(at) {
                    self.stats.timer_fires.inc();
                    parker.wake();
                }
            }
            if stopping {
                return;
            }
        }
    }
}

/// The per-node scheduler: a small worker pool and a deadline-timer thread,
/// all started by [`Scheduler::new`].
pub struct Scheduler {
    inner: Arc<SchedInner>,
    threads: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("stopped", &self.inner.stopped.load(Ordering::Relaxed)) // lint: allow(relaxed-atomic): Debug snapshot only
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(SchedInner {
            queue: TrackedMutex::new(SCHED_QUEUE, RunQueue::default()),
            cv: TrackedCondvar::new(),
            timers: TrackedMutex::new(SCHED_TIMER, Timers::new()),
            timer_cv: TrackedCondvar::new(),
            stats: SchedStats::default(),
            stopped: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        for _ in 0..workers.max(1) {
            let i = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || i.worker_loop()));
        }
        let i = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || i.timer_loop()));
        Scheduler {
            inner,
            threads: TrackedMutex::new(SCHED_QUEUE, threads),
        }
    }

    pub fn stats(&self) -> &SchedStats {
        &self.inner.stats
    }

    /// Spawn a new task; it runs as soon as a worker is free. The returned
    /// parker is the task's permanent wake handle.
    pub fn spawn(&self, step: Step) -> Arc<Parker> {
        let parker = Arc::new(Parker {
            state: AtomicU8::new(NOTIFIED),
            slot: TrackedMutex::new(SCHED_PARKER, ParkerSlot::default()),
            sched: Arc::downgrade(&self.inner),
        });
        self.inner.stats.tasks.inc();
        SchedInner::enqueue(&Arc::downgrade(&self.inner), Arc::clone(&parker), step);
        parker
    }

    /// Deadline timers armed and not yet fired.
    #[cfg(test)]
    pub(crate) fn pending_timers(&self) -> usize {
        self.inner.timers.lock().len()
    }

    /// Stop the scheduler: workers exit, pending deadline timers fire, and
    /// any task still queued runs inline here (its park points now take
    /// their blocking fallbacks, so it terminates). Idempotent.
    pub fn stop(&self) {
        self.inner.stopped.store(true, Ordering::Release);
        // Each thread reads `stopped` under its mutex and then waits on the
        // condvar paired with it. Passing through that mutex between the
        // store and the notify means it either sees the flag or is already
        // inside `wait` when the notify lands; a notify without it can fall
        // between the check and the wait, and the join below never returns.
        drop(self.inner.queue.lock());
        self.inner.cv.notify_all();
        drop(self.inner.timers.lock());
        self.inner.timer_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
        // Fire deadlines that raced in after the timer thread's final
        // drain: `park_deadline` can pass its pre-lock `stopped` check,
        // lose the CPU across this whole join, and push into the dead
        // map. Draining here (after the join, under the same lock the
        // push takes) closes that window — the parker's re-run suspends
        // as a thread and completes.
        let straggling_timers = std::mem::take(&mut *self.inner.timers.lock());
        for p in straggling_timers.into_values() {
            self.inner.stats.timer_fires.inc();
            p.wake();
        }
        // Drain tasks that were ready but never picked up.
        let pop = || self.inner.queue.lock().tasks.pop_front();
        while let Some(ReadyTask { parker, step }) = pop() {
            SchedInner::run_inline(Some(&self.inner), &parker, step);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Test support: spin until `cond` holds — another thread's progress, never
/// a time bound (the ten seconds only turn a hang into a failure).
#[cfg(test)]
pub(crate) fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn task_runs_to_done() {
        let sched = Scheduler::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        sched.spawn(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            StepResult::Done
        }));
        let deadline = Instant::now() + Duration::from_secs(5);
        while ran.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "task never ran");
            std::thread::yield_now();
        }
        // The worker retires the task after the step returns.
        eventually("done tasks are dropped", || sched.stats().tasks.get() == 0);
        assert_eq!(sched.stats().tasks.hwm(), 1);
    }

    #[test]
    fn park_then_wake_reruns_step() {
        let sched = Scheduler::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let parker = sched.spawn(Box::new(move || {
            if r.fetch_add(1, Ordering::SeqCst) == 0 {
                StepResult::Parked
            } else {
                StepResult::Done
            }
        }));
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::SeqCst) < 1 {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        // Give the worker a moment to publish the PARKED state, then wake.
        while parker.state.load(Ordering::Acquire) != PARKED {
            assert!(Instant::now() < deadline, "task never parked");
            std::thread::yield_now();
        }
        parker.wake();
        while runs.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "wake lost");
            std::thread::yield_now();
        }
    }

    #[test]
    fn wake_racing_park_is_not_lost() {
        // Hammer the publish-then-check ordering: a waker fires while the
        // step is still running; the worker's park CAS must fail and the
        // task must run again.
        for _ in 0..200 {
            let sched = Scheduler::new(1);
            let runs = Arc::new(AtomicUsize::new(0));
            let r = Arc::clone(&runs);
            let parker = sched.spawn(Box::new(move || {
                if r.fetch_add(1, Ordering::SeqCst) == 0 {
                    StepResult::Parked
                } else {
                    StepResult::Done
                }
            }));
            // Wake immediately — may land before the first run, mid-run, or
            // after the park. All three must end with the task done.
            parker.wake();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let n = runs.load(Ordering::SeqCst);
                if n >= 2 {
                    break;
                }
                if n == 1 && parker.state.load(Ordering::Acquire) == PARKED {
                    // Wake was absorbed pre-first-run (NOTIFIED initial
                    // state); deliver a real one now that it is parked.
                    parker.wake();
                }
                assert!(Instant::now() < deadline, "wake lost in race");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn deadline_timer_wakes_parked_task() {
        let sched = Scheduler::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let parker = sched.spawn(Box::new(move || {
            if r.fetch_add(1, Ordering::SeqCst) == 0 {
                StepResult::Parked
            } else {
                StepResult::Done
            }
        }));
        let deadline = Instant::now() + Duration::from_secs(5);
        while parker.state.load(Ordering::Acquire) != PARKED {
            assert!(Instant::now() < deadline, "task never parked");
            std::thread::yield_now();
        }
        parker.park_deadline(Instant::now() + Duration::from_millis(20));
        while runs.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "timer never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sched.stats().timer_fires.get() >= 1);
    }

    /// Spawn a task that parks on every run until `gate` opens, and wait
    /// until a worker has parked it.
    fn parked_task(
        sched: &Scheduler,
        runs: &Arc<AtomicUsize>,
        gate: &Arc<AtomicBool>,
    ) -> Arc<Parker> {
        let (r, g) = (Arc::clone(runs), Arc::clone(gate));
        let parker = sched.spawn(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            if g.load(Ordering::SeqCst) {
                StepResult::Done
            } else {
                StepResult::Parked
            }
        }));
        eventually("task never parked", || parker.is_parked());
        parker
    }

    #[test]
    fn later_deadline_behind_an_earlier_one_still_fires() {
        // Only a push that becomes the earliest entry nudges the timer
        // thread; one queued behind it must be picked up when the thread
        // re-reads the heap after the earlier deadline.
        let sched = Scheduler::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let (runs_a, runs_b) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let a = parked_task(&sched, &runs_a, &gate);
        let b = parked_task(&sched, &runs_b, &gate);
        gate.store(true, Ordering::SeqCst);
        let now = Instant::now();
        a.park_deadline(now + Duration::from_millis(10));
        b.park_deadline(now + Duration::from_millis(40));
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs_a.load(Ordering::SeqCst) < 2 || runs_b.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "a queued deadline never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sched.stats().timer_fires.get(), 2);
        assert_eq!(sched.pending_timers(), 0);
    }

    #[test]
    fn wake_inline_runs_a_parked_step_on_the_calling_thread() {
        let sched = Scheduler::new(1);
        let ran_on = Arc::new(TrackedMutex::new(SCHED_PARKER, Vec::new()));
        let r = Arc::clone(&ran_on);
        let parker = sched.spawn(Box::new(move || {
            r.lock().push(std::thread::current().id());
            StepResult::Parked
        }));
        let stats = sched.stats();
        // (The worker counts the park after publishing it.)
        eventually("task never parked", || {
            parker.is_parked() && stats.parks.get() == 1
        });
        let (wakes, parks) = (stats.wakes.get(), stats.parks.get());

        parker.wake_inline();
        let ran_on = ran_on.lock().clone();
        assert_eq!(ran_on.len(), 2);
        assert_ne!(
            ran_on[0],
            std::thread::current().id(),
            "spawn runs on a worker"
        );
        assert_eq!(
            ran_on[1],
            std::thread::current().id(),
            "wake_inline runs here"
        );
        assert_eq!(stats.inline_runs.get(), 1);
        assert_eq!(stats.wakes.get(), wakes, "no hand-off to the run queue");
        assert_eq!(stats.parks.get(), parks, "no worker gave anything up");
        assert!(parker.is_parked(), "parked again");
        assert!(
            current_parker().is_none(),
            "the caller is not left looking like a worker"
        );
    }

    #[test]
    fn panicking_inline_step_restores_the_callers_parker() {
        let sched = Scheduler::new(1);
        let first = Arc::new(AtomicBool::new(true));
        let f = Arc::clone(&first);
        let parker = sched.spawn(Box::new(move || {
            if f.swap(false, Ordering::SeqCst) {
                StepResult::Parked
            } else {
                panic!("step failed");
            }
        }));
        eventually("task never parked", || parker.is_parked());
        let p = Arc::clone(&parker);
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || p.wake_inline()));
        assert!(unwound.is_err());
        assert!(current_parker().is_none());
    }

    #[test]
    fn stop_fires_pending_timers_and_runs_queued_tasks_inline() {
        let sched = Scheduler::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let parker = sched.spawn(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            if g.load(Ordering::SeqCst) {
                StepResult::Done
            } else {
                StepResult::Parked
            }
        }));
        let deadline = Instant::now() + Duration::from_secs(5);
        while parker.state.load(Ordering::Acquire) != PARKED {
            assert!(Instant::now() < deadline, "task never parked");
            std::thread::yield_now();
        }
        // Far-future timer: only stop can fire it.
        parker.park_deadline(Instant::now() + Duration::from_secs(3600));
        gate.store(true, Ordering::SeqCst);
        sched.stop();
        assert!(
            runs.load(Ordering::SeqCst) >= 2,
            "stop must fire the pending timer and finish the task inline"
        );
        assert_eq!(sched.stats().tasks.get(), 0);
    }

    #[test]
    fn park_deadline_racing_stop_is_not_lost() {
        // Regression for the stop/park_deadline window: a deadline armed
        // concurrently with `stop` must still fire, even when the push
        // lands after the timer thread's final drain. The deterministic
        // reproduction lives in crates/model/tests/parker_timer.rs; this
        // is the real-clock stress variant.
        for _ in 0..200 {
            let sched = Scheduler::new(1);
            let runs = Arc::new(AtomicUsize::new(0));
            let r = Arc::clone(&runs);
            let gate = Arc::new(AtomicBool::new(false));
            let g = Arc::clone(&gate);
            let parker = sched.spawn(Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
                if g.load(Ordering::SeqCst) {
                    StepResult::Done
                } else {
                    StepResult::Parked
                }
            }));
            let deadline = Instant::now() + Duration::from_secs(5);
            while parker.state.load(Ordering::Acquire) != PARKED {
                assert!(Instant::now() < deadline, "task never parked");
                std::thread::yield_now();
            }
            gate.store(true, Ordering::SeqCst);
            let p = Arc::clone(&parker);
            let arm = std::thread::spawn(move || {
                // Far-future deadline: only a stop-side drain can fire it.
                p.park_deadline(Instant::now() + Duration::from_secs(3600));
            });
            sched.stop();
            arm.join().unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while runs.load(Ordering::SeqCst) < 2 {
                assert!(
                    Instant::now() < deadline,
                    "deadline armed during stop never fired; task stranded"
                );
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn stop_racing_thread_start_up_does_not_hang() {
        // Regression for the lost wake-up in `stop`: a worker or the timer
        // thread that had read `stopped == false` and not yet
        // entered its condvar wait missed a notify sent without the mutex,
        // and `stop` hung in `join`. The window is a few instructions wide
        // right after a thread starts, so sweep `stop` across start-up with
        // a jittered delay, many times, under a watchdog.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for round in 0..3_000u64 {
                let sched = Scheduler::new(1);
                // 0–200 µs, scattered: a prime stride walks the whole range.
                let delay = Duration::from_nanos(round * 7_919 % 200_000);
                let t = Instant::now();
                while t.elapsed() < delay {
                    std::hint::spin_loop();
                }
                sched.stop();
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("Scheduler::stop hung: a thread missed the stop notification");
        cycles.join().unwrap();
    }

    #[test]
    fn wake_after_done_is_harmless() {
        let sched = Scheduler::new(1);
        let parker = sched.spawn(Box::new(|| StepResult::Done));
        let deadline = Instant::now() + Duration::from_secs(5);
        while sched.stats().tasks.get() != 0 {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        parker.wake();
        parker.wake();
    }
}
