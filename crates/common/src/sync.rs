//! Tracked synchronization primitives: the concurrency sanitizer.
//!
//! Every long-lived lock in the workspace is declared with a static
//! [`LockClass`] and wrapped in a [`TrackedMutex`] / [`TrackedRwLock`] /
//! [`TrackedCondvar`]. With the `sanitize` cargo feature **off** (the
//! default) the wrappers are `#[inline]` pass-throughs to `parking_lot` — no
//! extra state, no extra work on the lock path. With `sanitize` **on** they
//! maintain:
//!
//! * a thread-local stack of held lock classes, and
//! * a global lock-class *order graph*: a directed edge `A → B` is recorded
//!   the first time any thread blocks on a class-`B` lock while holding a
//!   class-`A` lock.
//!
//! The first acquisition whose edge would close a cycle in that graph — a
//! potential deadlock, even if this particular run got lucky with timing —
//! panics with the current acquisition stack *and* the stack captured when
//! the conflicting edge was first recorded. `cargo test --workspace
//! --features sanitize` therefore turns every existing test into a
//! lock-order checker.
//!
//! The same held-lock stack backs [`assert_charge_point`]: the simulated
//! latency funnel (`pmp_rdma::precise_wait_ns`) calls it on every charge, so
//! any code path that pays simulated I/O latency while holding a tracked
//! lock fails its test run with the offending class named. Classes that
//! *intentionally* serialize a latency-bearing device (e.g. the WAL
//! group-commit sync mutex) are declared with [`LockClass::charge_exempt`],
//! which requires a written justification at the declaration site.
//!
//! Policy: every `charge_exempt` class and every `// lint: allow(...)`
//! comment must carry a reason a reviewer can evaluate. An empty
//! justification fails at construction.

// This module is the one place in the migrated crates allowed to name
// parking_lot directly: the wrappers delegate to it, and the sanitizer's own
// bookkeeping must use untracked locks (tracking the tracker would recurse).
// lint: allow-file(raw-parking-lot): sync.rs implements the tracked wrappers

use std::fmt;
use std::time::Duration;

/// Deterministic model-checker runtime (`model` feature; DESIGN.md §14).
/// The tracked primitives below become yield points driven by its scheduler.
#[cfg(feature = "model")]
#[path = "sync_model.rs"]
pub mod model;

#[cfg(not(feature = "model"))]
pub use parking_lot::WaitTimeoutResult;

/// Under `model`, timeouts are scheduler decisions, not wall-clock events,
/// so the result type is our own (parking_lot's has no public constructor).
/// Mirrors the `timed_out()` surface every caller uses.
#[cfg(feature = "model")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

#[cfg(feature = "model")]
impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Explicit yield point for the model checker: marks an ordering-sensitive
/// step between lock acquisitions (an atomic publish, a CAS protocol step)
/// where the deterministic scheduler may preempt. Compiles to nothing
/// without the `model` feature; a no-op for threads outside a model run.
#[inline]
pub fn sched_point(label: &'static str) {
    #[cfg(feature = "model")]
    if model::intercept() {
        model::yield_point("sched_point", label);
    }
    #[cfg(not(feature = "model"))]
    let _ = label;
}

/// [`sched_point`] for the body of a spin-wait loop (a spin lock, a seqlock
/// read retry): the caller cannot make progress until some other thread
/// runs, so the model scheduler picks another runnable thread if there is
/// one. Compiles to nothing without the `model` feature.
#[inline]
pub fn spin_point(label: &'static str) {
    #[cfg(feature = "model")]
    if model::intercept() {
        model::spin_point(label);
    }
    #[cfg(not(feature = "model"))]
    let _ = label;
}

/// Identity of a lock *class*: one name per lock role, shared by every
/// instance of that role (e.g. all 16 LBP shard locks are one class).
///
/// Ordering is tracked between classes, not instances — two locks of the
/// same class must never nest, and the sanitizer treats a same-class
/// acquisition as an immediate violation.
#[derive(Clone, Copy)]
pub struct LockClass {
    name: &'static str,
    charge_exempt: bool,
    justification: &'static str,
}

impl LockClass {
    /// Declare an ordinary lock class. Holding it across a simulated-latency
    /// charge point is a sanitizer violation.
    pub const fn new(name: &'static str) -> Self {
        LockClass {
            name,
            charge_exempt: false,
            justification: "",
        }
    }

    /// Declare a class that is *allowed* to be held across latency charge
    /// points, because the lock deliberately models device-side
    /// serialization. The justification is mandatory and non-empty; it is
    /// printed by diagnostics so reviewers can audit the allowlist.
    pub const fn charge_exempt(name: &'static str, justification: &'static str) -> Self {
        assert!(
            !justification.is_empty(),
            "charge_exempt lock classes require a written justification"
        );
        LockClass {
            name,
            charge_exempt: true,
            justification,
        }
    }

    pub const fn name(&self) -> &'static str {
        self.name
    }

    pub const fn is_charge_exempt(&self) -> bool {
        self.charge_exempt
    }

    pub const fn justification(&self) -> &'static str {
        self.justification
    }
}

impl fmt::Debug for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.charge_exempt {
            write!(f, "LockClass({}, charge-exempt)", self.name)
        } else {
            write!(f, "LockClass({})", self.name)
        }
    }
}

/// Assert that the calling thread holds no tracked, non-exempt lock.
///
/// Called by `pmp_rdma::precise_wait_ns` — the single funnel all simulated
/// RDMA / RPC / storage / fsync latency flows through — on *every* charge,
/// including zero-valued charges in latency-disabled test configs, so the
/// whole tier-1 suite exercises the invariant. A no-op unless the
/// `sanitize` feature is enabled.
#[inline]
pub fn assert_charge_point() {
    #[cfg(feature = "sanitize")]
    imp::assert_charge_point();
}

/// Number of tracked locks currently held by this thread (0 when `sanitize`
/// is off). Diagnostic helper for tests.
#[inline]
pub fn held_tracked_locks() -> usize {
    #[cfg(feature = "sanitize")]
    {
        imp::held_count()
    }
    #[cfg(not(feature = "sanitize"))]
    {
        0
    }
}

#[cfg(feature = "sanitize")]
mod imp {
    use super::LockClass;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::fmt::Write as _;
    use std::sync::OnceLock;

    thread_local! {
        static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// Evidence for one recorded order edge `from → to`: what the thread
    /// held, who it was, and where it was (captured once, on first record).
    struct Evidence {
        held: Vec<&'static str>,
        thread: String,
        backtrace: String,
    }

    #[derive(Default)]
    struct Graph {
        /// `edges[(from, to)]` — first-acquisition evidence.
        edges: HashMap<(&'static str, &'static str), Evidence>,
        /// Adjacency list for cycle checks.
        adj: HashMap<&'static str, Vec<&'static str>>,
    }

    impl Graph {
        /// Is `to` reachable from `from`? Returns the path if so.
        fn path(&self, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
            let mut stack = vec![vec![from]];
            let mut seen = vec![from];
            while let Some(path) = stack.pop() {
                let last = *path.last().expect("non-empty path");
                if last == to {
                    return Some(path);
                }
                for &next in self.adj.get(last).map(Vec::as_slice).unwrap_or(&[]) {
                    if !seen.contains(&next) {
                        seen.push(next);
                        let mut p = path.clone();
                        p.push(next);
                        stack.push(p);
                    }
                }
            }
            None
        }
    }

    fn graph() -> &'static parking_lot::Mutex<Graph> {
        static GRAPH: OnceLock<parking_lot::Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| parking_lot::Mutex::new(Graph::default()))
    }

    fn current_thread() -> String {
        let t = std::thread::current();
        t.name().unwrap_or("<unnamed>").to_string()
    }

    fn describe_edge(out: &mut String, from: &str, to: &str, ev: &Evidence) {
        let _ = writeln!(
            out,
            "edge `{from}` -> `{to}`: thread '{}' acquired `{to}` while holding [{}]",
            ev.thread,
            ev.held.join(", "),
        );
        let _ = writeln!(out, "acquisition stack:\n{}", ev.backtrace);
    }

    /// Record order edges from every held class to `class`, panicking if any
    /// new edge closes a cycle. Called *before* blocking on the lock.
    pub(super) fn on_blocking_acquire(class: LockClass) {
        let held: Vec<LockClass> = HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return;
        }
        let held_names: Vec<&'static str> = held.iter().map(|c| c.name()).collect();
        let mut g = graph().lock();
        for from in &held {
            let from = from.name();
            let to = class.name();
            if from == to {
                let mut msg = format!(
                    "lock-order violation: lock class `{to}` acquired while already held \
                     (same-class nesting self-deadlocks under contention)\n\
                     thread '{}' holds [{}]\n",
                    current_thread(),
                    held_names.join(", "),
                );
                let _ = writeln!(msg, "acquisition stack:\n{}", Backtrace::force_capture());
                drop(g);
                panic!("{msg}");
            }
            if g.edges.contains_key(&(from, to)) {
                continue;
            }
            // Adding from → to: a pre-existing path to → … → from closes a
            // cycle. Report both this acquisition and the recorded evidence
            // for every edge on the conflicting path.
            if let Some(path) = g.path(to, from) {
                let mut msg = format!(
                    "lock-order violation (potential deadlock): acquiring `{to}` while \
                     holding `{from}` closes the cycle {} -> {to}\n\n\
                     new edge `{from}` -> `{to}`: thread '{}' holds [{}]\n\
                     acquisition stack:\n{}\n",
                    path.join(" -> "),
                    current_thread(),
                    held_names.join(", "),
                    Backtrace::force_capture(),
                );
                for pair in path.windows(2) {
                    if let Some(ev) = g.edges.get(&(pair[0], pair[1])) {
                        let _ = writeln!(msg, "conflicting (first recorded) ");
                        describe_edge(&mut msg, pair[0], pair[1], ev);
                    }
                }
                drop(g);
                panic!("{msg}");
            }
            g.edges.insert(
                (from, to),
                Evidence {
                    held: held_names.clone(),
                    thread: current_thread(),
                    backtrace: Backtrace::force_capture().to_string(),
                },
            );
            g.adj.entry(from).or_default().push(to);
        }
    }

    /// Record that `class` is now held (after a successful acquisition —
    /// blocking or try-style; try acquisitions record no order edges because
    /// they cannot be the blocked side of a deadlock).
    pub(super) fn push_held(class: LockClass) {
        HELD.with(|h| h.borrow_mut().push(class));
    }

    /// Remove the most recent held entry of `class` (guard drop, or a
    /// condvar wait releasing the mutex).
    pub(super) fn pop_held(class: LockClass) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|c| c.name() == class.name()) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }

    pub(super) fn assert_charge_point() {
        HELD.with(|h| {
            let held = h.borrow();
            if let Some(bad) = held.iter().find(|c| !c.is_charge_exempt()) {
                let names: Vec<&str> = held.iter().map(|c| c.name()).collect();
                let msg = format!(
                    "latency-under-lock violation: simulated latency charged while thread \
                     '{}' holds tracked lock class `{}` (held: [{}]).\n\
                     Restructure the caller to charge outside the lock, or — only if the \
                     lock deliberately models device serialization — declare the class \
                     with LockClass::charge_exempt and a written justification.\n\
                     charge stack:\n{}",
                    current_thread(),
                    bad.name(),
                    names.join(", "),
                    Backtrace::force_capture(),
                );
                drop(held);
                panic!("{msg}");
            }
        });
    }
}

/// A `parking_lot::Mutex` carrying a [`LockClass`]; lock-order and
/// latency-under-lock checked when the `sanitize` feature is on, a plain
/// pass-through otherwise.
pub struct TrackedMutex<T> {
    #[cfg(any(feature = "sanitize", feature = "model"))]
    class: LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    #[inline]
    pub fn new(class: LockClass, value: T) -> Self {
        #[cfg(not(any(feature = "sanitize", feature = "model")))]
        let _ = class;
        TrackedMutex {
            #[cfg(any(feature = "sanitize", feature = "model"))]
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Under `model`, acquisition is a yield point and blocking is virtual:
    /// a failed `try_lock` parks the thread in the model scheduler until the
    /// holder's guard drop releases the address, so the checker sees (and
    /// controls) every contended handoff.
    #[cfg(feature = "model")]
    fn lock_model(&self) -> parking_lot::MutexGuard<'_, T> {
        let addr = model::addr_of(&self.inner);
        model::yield_point("mutex.lock", self.class.name());
        loop {
            if !model::intercept() {
                return self.inner.lock();
            }
            if let Some(g) = self.inner.try_lock() {
                return g;
            }
            model::block_self(addr, false, self.class.name());
        }
    }

    #[inline]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(feature = "sanitize")]
        imp::on_blocking_acquire(self.class);
        #[cfg(feature = "model")]
        let inner = if model::intercept() {
            self.lock_model()
        } else {
            self.inner.lock()
        };
        #[cfg(not(feature = "model"))]
        let inner = self.inner.lock();
        #[cfg(feature = "sanitize")]
        imp::push_held(self.class);
        TrackedMutexGuard {
            #[cfg(any(feature = "sanitize", feature = "model"))]
            class: self.class,
            #[cfg(feature = "model")]
            lock: &self.inner,
            #[cfg(feature = "model")]
            inner: Some(inner),
            #[cfg(not(feature = "model"))]
            inner,
        }
    }

    /// Non-blocking acquisition: held-stack tracked, but records no order
    /// edge (a try-lock can never be the blocked side of a deadlock).
    #[inline]
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        #[cfg(feature = "model")]
        if model::intercept() {
            model::yield_point("mutex.try_lock", self.class.name());
        }
        let inner = self.inner.try_lock()?;
        #[cfg(feature = "sanitize")]
        imp::push_held(self.class);
        Some(TrackedMutexGuard {
            #[cfg(any(feature = "sanitize", feature = "model"))]
            class: self.class,
            #[cfg(feature = "model")]
            lock: &self.inner,
            #[cfg(feature = "model")]
            inner: Some(inner),
            #[cfg(not(feature = "model"))]
            inner,
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct TrackedMutexGuard<'a, T> {
    #[cfg(any(feature = "sanitize", feature = "model"))]
    class: LockClass,
    /// Under `model` the guard keeps the lock address (for release
    /// notification) and holds the inner guard in an `Option` so a condvar
    /// wait can physically release and reacquire it.
    #[cfg(feature = "model")]
    lock: &'a parking_lot::Mutex<T>,
    #[cfg(feature = "model")]
    inner: Option<parking_lot::MutexGuard<'a, T>>,
    #[cfg(not(feature = "model"))]
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        #[cfg(feature = "model")]
        {
            self.inner.as_ref().expect("guard released")
        }
        #[cfg(not(feature = "model"))]
        {
            &self.inner
        }
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        #[cfg(feature = "model")]
        {
            self.inner.as_mut().expect("guard released")
        }
        #[cfg(not(feature = "model"))]
        {
            &mut self.inner
        }
    }
}

#[cfg(any(feature = "sanitize", feature = "model"))]
impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "sanitize")]
        imp::pop_held(self.class);
        #[cfg(feature = "model")]
        if model::thread_active() {
            drop(self.inner.take());
            model::resource_released(model::addr_of(self.lock));
        }
    }
}

/// A `parking_lot::RwLock` carrying a [`LockClass`]. Read and write
/// acquisitions are tracked identically for ordering purposes: a blocked
/// reader behind a queued writer deadlocks exactly like a blocked writer.
pub struct TrackedRwLock<T> {
    #[cfg(any(feature = "sanitize", feature = "model"))]
    class: LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    #[inline]
    pub fn new(class: LockClass, value: T) -> Self {
        #[cfg(not(any(feature = "sanitize", feature = "model")))]
        let _ = class;
        TrackedRwLock {
            #[cfg(any(feature = "sanitize", feature = "model"))]
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    #[cfg(feature = "model")]
    fn read_model(&self) -> parking_lot::RwLockReadGuard<'_, T> {
        let addr = model::addr_of(&self.inner);
        model::yield_point("rwlock.read", self.class.name());
        loop {
            if !model::intercept() {
                return self.inner.read();
            }
            if let Some(g) = self.inner.try_read() {
                return g;
            }
            model::block_self(addr, false, self.class.name());
        }
    }

    #[cfg(feature = "model")]
    fn write_model(&self) -> parking_lot::RwLockWriteGuard<'_, T> {
        let addr = model::addr_of(&self.inner);
        model::yield_point("rwlock.write", self.class.name());
        loop {
            if !model::intercept() {
                return self.inner.write();
            }
            if let Some(g) = self.inner.try_write() {
                return g;
            }
            model::block_self(addr, false, self.class.name());
        }
    }

    #[inline]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        #[cfg(feature = "sanitize")]
        imp::on_blocking_acquire(self.class);
        #[cfg(feature = "model")]
        let inner = if model::intercept() {
            self.read_model()
        } else {
            self.inner.read()
        };
        #[cfg(not(feature = "model"))]
        let inner = self.inner.read();
        #[cfg(feature = "sanitize")]
        imp::push_held(self.class);
        TrackedReadGuard {
            #[cfg(feature = "sanitize")]
            class: self.class,
            #[cfg(feature = "model")]
            lock: &self.inner,
            #[cfg(feature = "model")]
            inner: Some(inner),
            #[cfg(not(feature = "model"))]
            inner,
        }
    }

    #[inline]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        #[cfg(feature = "sanitize")]
        imp::on_blocking_acquire(self.class);
        #[cfg(feature = "model")]
        let inner = if model::intercept() {
            self.write_model()
        } else {
            self.inner.write()
        };
        #[cfg(not(feature = "model"))]
        let inner = self.inner.write();
        #[cfg(feature = "sanitize")]
        imp::push_held(self.class);
        TrackedWriteGuard {
            #[cfg(feature = "sanitize")]
            class: self.class,
            #[cfg(feature = "model")]
            lock: &self.inner,
            #[cfg(feature = "model")]
            inner: Some(inner),
            #[cfg(not(feature = "model"))]
            inner,
        }
    }

    #[inline]
    pub fn try_read(&self) -> Option<TrackedReadGuard<'_, T>> {
        #[cfg(feature = "model")]
        if model::intercept() {
            model::yield_point("rwlock.try_read", self.class.name());
        }
        let inner = self.inner.try_read()?;
        #[cfg(feature = "sanitize")]
        imp::push_held(self.class);
        Some(TrackedReadGuard {
            #[cfg(feature = "sanitize")]
            class: self.class,
            #[cfg(feature = "model")]
            lock: &self.inner,
            #[cfg(feature = "model")]
            inner: Some(inner),
            #[cfg(not(feature = "model"))]
            inner,
        })
    }

    #[inline]
    pub fn try_write(&self) -> Option<TrackedWriteGuard<'_, T>> {
        #[cfg(feature = "model")]
        if model::intercept() {
            model::yield_point("rwlock.try_write", self.class.name());
        }
        let inner = self.inner.try_write()?;
        #[cfg(feature = "sanitize")]
        imp::push_held(self.class);
        Some(TrackedWriteGuard {
            #[cfg(feature = "sanitize")]
            class: self.class,
            #[cfg(feature = "model")]
            lock: &self.inner,
            #[cfg(feature = "model")]
            inner: Some(inner),
            #[cfg(not(feature = "model"))]
            inner,
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct TrackedReadGuard<'a, T> {
    #[cfg(feature = "sanitize")]
    class: LockClass,
    #[cfg(feature = "model")]
    lock: &'a parking_lot::RwLock<T>,
    #[cfg(feature = "model")]
    inner: Option<parking_lot::RwLockReadGuard<'a, T>>,
    #[cfg(not(feature = "model"))]
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        #[cfg(feature = "model")]
        {
            self.inner.as_ref().expect("guard released")
        }
        #[cfg(not(feature = "model"))]
        {
            &self.inner
        }
    }
}

#[cfg(any(feature = "sanitize", feature = "model"))]
impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "sanitize")]
        imp::pop_held(self.class);
        #[cfg(feature = "model")]
        if model::thread_active() {
            drop(self.inner.take());
            model::resource_released(model::addr_of(self.lock));
        }
    }
}

pub struct TrackedWriteGuard<'a, T> {
    #[cfg(feature = "sanitize")]
    class: LockClass,
    #[cfg(feature = "model")]
    lock: &'a parking_lot::RwLock<T>,
    #[cfg(feature = "model")]
    inner: Option<parking_lot::RwLockWriteGuard<'a, T>>,
    #[cfg(not(feature = "model"))]
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        #[cfg(feature = "model")]
        {
            self.inner.as_ref().expect("guard released")
        }
        #[cfg(not(feature = "model"))]
        {
            &self.inner
        }
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        #[cfg(feature = "model")]
        {
            self.inner.as_mut().expect("guard released")
        }
        #[cfg(not(feature = "model"))]
        {
            &mut self.inner
        }
    }
}

#[cfg(any(feature = "sanitize", feature = "model"))]
impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "sanitize")]
        imp::pop_held(self.class);
        #[cfg(feature = "model")]
        if model::thread_active() {
            drop(self.inner.take());
            model::resource_released(model::addr_of(self.lock));
        }
    }
}

/// A `parking_lot::Condvar` aware of [`TrackedMutexGuard`] bookkeeping:
/// waiting releases the mutex (the held entry is popped for the duration)
/// and reacquisition re-runs the order checks, since waking up behind other
/// held locks can deadlock exactly like a fresh acquisition.
#[derive(Default)]
pub struct TrackedCondvar {
    inner: parking_lot::Condvar,
}

impl TrackedCondvar {
    #[inline]
    pub fn new() -> Self {
        TrackedCondvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Model-checked wait: physically release the mutex (waking its model
    /// waiters), register on this condvar's FIFO, park in the scheduler,
    /// then reacquire like a real waiter. Timeouts are deterministic — they
    /// fire only when the schedule has nothing else to run.
    #[cfg(feature = "model")]
    fn wait_model<T>(&self, guard: &mut TrackedMutexGuard<'_, T>, timeoutable: bool) -> bool {
        let cv_addr = model::addr_of(&self.inner);
        let m_addr = model::addr_of(guard.lock);
        drop(guard.inner.take().expect("guard released"));
        let timed_out = model::cv_wait(cv_addr, m_addr, timeoutable, guard.class.name());
        let inner = loop {
            if !model::intercept() {
                break guard.lock.lock();
            }
            if let Some(g) = guard.lock.try_lock() {
                break g;
            }
            model::block_self(m_addr, false, guard.class.name());
        };
        guard.inner = Some(inner);
        timed_out
    }

    #[inline]
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        #[cfg(feature = "sanitize")]
        imp::pop_held(guard.class);
        #[cfg(feature = "model")]
        match model::thread_status() {
            model::Status::Active => {
                self.wait_model(guard, false);
            }
            // An untimed wait during teardown would sleep forever (the
            // notifier may already be gone): unwind this thread instead.
            // (A wait reached from a Drop during unwind returns instead —
            // a second panic would abort the process.)
            model::Status::Teardown => {
                if !std::thread::panicking() {
                    model::teardown_abort()
                }
            }
            model::Status::NotModel => self
                .inner
                .wait(guard.inner.as_mut().expect("guard released")),
        }
        #[cfg(not(feature = "model"))]
        self.inner.wait(&mut guard.inner);
        #[cfg(feature = "sanitize")]
        {
            imp::on_blocking_acquire(guard.class);
            imp::push_held(guard.class);
        }
    }

    #[inline]
    pub fn wait_for<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "sanitize")]
        imp::pop_held(guard.class);
        #[cfg(feature = "model")]
        let res = match model::thread_status() {
            model::Status::Active => WaitTimeoutResult(self.wait_model(guard, true)),
            model::Status::Teardown => {
                if !std::thread::panicking() {
                    model::teardown_abort()
                }
                WaitTimeoutResult(true)
            }
            model::Status::NotModel => WaitTimeoutResult(
                self.inner
                    .wait_for(guard.inner.as_mut().expect("guard released"), timeout)
                    .timed_out(),
            ),
        };
        #[cfg(not(feature = "model"))]
        let res = self.inner.wait_for(&mut guard.inner, timeout);
        #[cfg(feature = "sanitize")]
        {
            imp::on_blocking_acquire(guard.class);
            imp::push_held(guard.class);
        }
        res
    }

    #[inline]
    pub fn wait_until<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "sanitize")]
        imp::pop_held(guard.class);
        #[cfg(feature = "model")]
        let res = match model::thread_status() {
            model::Status::Active => WaitTimeoutResult(self.wait_model(guard, true)),
            model::Status::Teardown => {
                if !std::thread::panicking() {
                    model::teardown_abort()
                }
                WaitTimeoutResult(true)
            }
            model::Status::NotModel => WaitTimeoutResult(
                self.inner
                    .wait_until(guard.inner.as_mut().expect("guard released"), deadline)
                    .timed_out(),
            ),
        };
        #[cfg(not(feature = "model"))]
        let res = self.inner.wait_until(&mut guard.inner, deadline);
        #[cfg(feature = "sanitize")]
        {
            imp::on_blocking_acquire(guard.class);
            imp::push_held(guard.class);
        }
        res
    }

    #[inline]
    pub fn notify_one(&self) {
        #[cfg(feature = "model")]
        if model::intercept() {
            model::cv_notify(model::addr_of(&self.inner), false, "condvar.notify_one");
        }
        self.inner.notify_one();
    }

    #[inline]
    pub fn notify_all(&self) {
        #[cfg(feature = "model")]
        if model::intercept() {
            model::cv_notify(model::addr_of(&self.inner), true, "condvar.notify_all");
        }
        self.inner.notify_all();
    }
}

impl fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TrackedCondvar")
    }
}

/// Cooperative shutdown signal for background threads: a condvar-paced
/// interval wait that wakes immediately on [`Shutdown::trigger`], replacing
/// raw `thread::sleep(interval)` loops (which both stall shutdown and trip
/// the raw-sleep lint).
#[derive(Debug)]
pub struct Shutdown {
    flag: TrackedMutex<bool>,
    cv: TrackedCondvar,
}

impl Default for Shutdown {
    fn default() -> Self {
        Shutdown::new()
    }
}

impl Shutdown {
    pub fn new() -> Self {
        Shutdown {
            flag: TrackedMutex::new(LockClass::new("common.shutdown"), false),
            cv: TrackedCondvar::new(),
        }
    }

    /// Request shutdown and wake every sleeper immediately.
    pub fn trigger(&self) {
        *self.flag.lock() = true;
        self.cv.notify_all();
    }

    pub fn is_triggered(&self) -> bool {
        *self.flag.lock()
    }

    /// Sleep for `timeout` or until [`trigger`](Shutdown::trigger), whichever
    /// comes first. Returns `true` if shutdown was triggered.
    pub fn sleep_until_triggered(&self, timeout: Duration) -> bool {
        // Background-thread tick pacing is real wall-clock time by design —
        // it sits outside the simulated latency model.
        // lint: allow(raw-instant): condvar deadline for real-time bg tick pacing
        let deadline = std::time::Instant::now() + timeout;
        let mut triggered = self.flag.lock();
        while !*triggered {
            if self.cv.wait_until(&mut triggered, deadline).timed_out() {
                return *triggered;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_roundtrip() {
        let m = TrackedMutex::new(LockClass::new("test.sync.mutex"), 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = TrackedRwLock::new(LockClass::new("test.sync.rwlock"), 7u32);
        assert_eq!(*l.read(), 7);
        *l.write() = 8;
        assert_eq!(*l.read(), 8);
        let r = l.read();
        assert!(l.try_write().is_none());
        drop(r);
        assert!(l.try_write().is_some());
        assert!(l.try_read().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((
            TrackedMutex::new(LockClass::new("test.sync.cv"), false),
            TrackedCondvar::new(),
        ));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = TrackedMutex::new(LockClass::new("test.sync.cv_timeout"), ());
        let cv = TrackedCondvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
    }

    #[test]
    fn shutdown_wakes_sleepers_early() {
        let s = Arc::new(Shutdown::new());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.sleep_until_triggered(Duration::from_secs(30)));
        // Give the sleeper a moment to park, then trigger; the join must be
        // fast — nowhere near the 30s interval.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let begin = Instant::now();
        s.trigger();
        assert!(t.join().unwrap());
        assert!(begin.elapsed() < Duration::from_secs(5));
        assert!(s.is_triggered());
        // Once triggered, sleeps return immediately.
        assert!(s.sleep_until_triggered(Duration::from_secs(30)));
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn held_stack_tracks_guards() {
        assert_eq!(held_tracked_locks(), 0);
        let m = TrackedMutex::new(LockClass::new("test.sync.held"), ());
        let r = TrackedRwLock::new(LockClass::new("test.sync.held_rw"), ());
        let g1 = m.lock();
        let g2 = r.read();
        assert_eq!(held_tracked_locks(), 2);
        drop(g2);
        assert_eq!(held_tracked_locks(), 1);
        drop(g1);
        assert_eq!(held_tracked_locks(), 0);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn condvar_wait_releases_held_entry() {
        let pair = Arc::new((
            TrackedMutex::new(LockClass::new("test.sync.cv_held"), 0u32),
            TrackedCondvar::new(),
        ));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while *g == 0 {
                cv.wait(&mut g);
            }
            // Reacquired: the held entry must be back.
            assert_eq!(held_tracked_locks(), 1);
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = 1;
        cv.notify_all();
        waiter.join().unwrap();
    }
}
