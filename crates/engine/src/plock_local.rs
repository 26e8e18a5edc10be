//! Node-side PLock management: reference counting, lazy release and
//! negotiation handling, §4.3.1.
//!
//! "Instead of releasing its PLock back to Lock Fusion immediately after
//! use, a node decreases the reference count for the PLock. The lock
//! becomes available for release once this count drops to zero, but it is
//! still temporarily retained by the node. If the same node needs to
//! acquire the PLock again, and the requested lock type is not stronger
//! than the currently held type, the PLock can be granted locally."
//!
//! When Lock Fusion sends a negotiation message, local re-granting is
//! disabled for that page ("it cannot autonomously guarantee this PLock for
//! its internal transactions") and the lock is handed back — after pushing
//! the page to the DBP if dirty, which the engine performs through the
//! [`ReleaseHook`] — as soon as the reference count drains.
//!
//! Waiting is the scheduler's one wait path ([`Waiter`]): an acquirer that
//! must wait — for a local hold to drain, for another acquirer's Lock Fusion
//! call, or for Lock Fusion's grant — registers its waker on the shard under
//! the shard lock and suspends (a task parks, a thread blocks), and every
//! state change, a grant landing included, fires the shard's wakers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use pmp_common::sync::{sched_point, LockClass, TrackedMutex, TrackedMutexGuard};
use pmp_common::{Counter, NodeId, PageId, PmpError, Result};
use pmp_pmfs::{Cancel, PLockFusion, PLockMode, PendingGrant, ReleaseRequester};

use crate::scheduler::{self, Waiter, Waker};

/// One shard of the node's local PLock table. All fusion traffic
/// (acquire/release, both RPC-priced) happens with the shard lock dropped,
/// and at most one shard lock is ever held at a time (same-class nesting
/// would trip the tracked-lock layer).
const LOCAL_ENTRIES: LockClass = LockClass::new("engine.plock_local.entries");
/// The release-hook slot (taken only to clone the `Arc`).
const LOCAL_HOOK: LockClass = LockClass::new("engine.plock_local.hook");

/// Number of table shards. Power of two so the hash can mask; mirrors the
/// LBP's sharding, so a hot page's PLock chatter misses unrelated pages'.
const SHARD_COUNT: usize = 16;

/// One shard: its own entry map and waker list, so waiters for one page
/// never contend with or get woken by unrelated pages that hash elsewhere.
#[derive(Default)]
struct ShardState {
    entries: HashMap<PageId, Entry>,
    /// Acquirers suspended on this shard; drained and fired at every state
    /// change. Spurious wakes are fine — a woken acquirer re-checks.
    wakers: Vec<Waker>,
    /// Bumped by `crash_clear`: whoever finds it changed across a Lock
    /// Fusion call lost its entry to the crash, whatever is there by now.
    epoch: u64,
}

/// Wake everything suspended on the shard. The wakers must fire with the
/// shard lock *dropped*: a stopped scheduler runs woken continuations
/// inline, and the re-run statement may take this same shard lock.
fn notify_shard(mut st: TrackedMutexGuard<'_, ShardState>) {
    let wakers = std::mem::take(&mut st.wakers);
    drop(st);
    for w in wakers {
        w.wake();
    }
}

/// Engine callback run just before a PLock is handed back to Lock Fusion:
/// force logs + push the page to the DBP if it is dirty (§4.3.1).
pub trait ReleaseHook: Send + Sync {
    fn before_release(&self, page: PageId);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Not usable: being asked for, queued at Lock Fusion (`pending`), or
    /// being handed back.
    Acquiring,
    /// Lock held from fusion's perspective.
    Held,
}

struct Entry {
    state: EntryState,
    mode: PLockMode,
    refcount: u32,
    /// Lock Fusion asked us to give this lock back; no local re-grants.
    negotiation_pending: bool,
    /// The request Lock Fusion queued for this `Acquiring` entry, kept where
    /// whoever looks next — the requester's re-run, another acquirer, a
    /// negotiation — finds it.
    pending: Option<PendingGrant>,
}

impl Entry {
    /// A grant that has landed makes the entry a hold nobody references yet;
    /// `true` for the call that notices.
    fn settle(&mut self) -> bool {
        let granted = self.pending.as_ref().is_some_and(PendingGrant::is_granted);
        if granted {
            self.pending = None;
            self.state = EntryState::Held;
        }
        granted
    }
}

#[derive(Debug, Default)]
pub struct LocalPLockStats {
    pub local_grants: Counter,
    pub fusion_acquires: Counter,
    pub negotiated_releases: Counter,
    pub eager_releases: Counter,
}

/// The node's local PLock table, sharded by page id.
pub struct LocalPLocks {
    node: NodeId,
    fusion: Arc<PLockFusion>,
    shards: Box<[TrackedMutex<ShardState>]>,
    hook: TrackedMutex<Option<Arc<dyn ReleaseHook>>>,
    /// Lazy release enabled (ablation switch, §4.3.1).
    lazy: bool,
    timeout: Duration,
    stats: LocalPLockStats,
}

/// RAII guard for one reference on a held PLock.
pub struct PLockGuard<'a> {
    owner: &'a LocalPLocks,
    page: PageId,
    pub mode: PLockMode,
    /// The shard's epoch at the grant: a crash voids the reference.
    epoch: u64,
}

impl Drop for PLockGuard<'_> {
    fn drop(&mut self) {
        self.owner.unref(self.page, self.epoch);
    }
}

impl LocalPLocks {
    pub fn new(node: NodeId, fusion: Arc<PLockFusion>, lazy: bool, timeout: Duration) -> Arc<Self> {
        let shards = (0..SHARD_COUNT)
            .map(|_| TrackedMutex::new(LOCAL_ENTRIES, ShardState::default()))
            .collect();
        Arc::new(LocalPLocks {
            node,
            fusion,
            shards,
            hook: TrackedMutex::new(LOCAL_HOOK, None),
            lazy,
            timeout,
            stats: LocalPLockStats::default(),
        })
    }

    /// Fibonacci hashing spreads (often sequential) page ids across shards.
    fn shard(&self, page: PageId) -> &TrackedMutex<ShardState> {
        let hash = page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[hash as usize & (SHARD_COUNT - 1)]
    }

    pub fn set_hook(&self, hook: Arc<dyn ReleaseHook>) {
        *self.hook.lock() = Some(hook);
    }

    pub fn stats(&self) -> &LocalPLockStats {
        &self.stats
    }

    /// Acquire `mode` on `page`. Returns a guard whose drop decrements the
    /// reference count.
    ///
    /// An acquirer that has to wait (module docs) registers its waker under
    /// the shard lock, the lock every state change takes the wakers under,
    /// and suspends: a task returns [`PmpError::WouldBlock`] and its statement
    /// is re-run by the wake. The lock-wait deadline is fixed at the first
    /// suspend — on a thread's stack, in a task's parker across re-runs.
    /// Eager release (the §4.3.1 ablation) always suspends as a thread: it
    /// keeps no hold at zero references for a re-run to pick up.
    pub fn acquire(self: &Arc<Self>, page: PageId, mode: PLockMode) -> Result<PLockGuard<'_>> {
        let waiter = if self.lazy {
            Waiter::current()
        } else {
            Waiter::Thread
        };
        let res = self.acquire_as(&waiter, page, mode);
        if !matches!(res, Err(PmpError::WouldBlock)) {
            waiter.lock_wait_over(page.0);
        }
        res
    }

    fn acquire_as(
        self: &Arc<Self>,
        waiter: &Waiter,
        page: PageId,
        mode: PLockMode,
    ) -> Result<PLockGuard<'_>> {
        let shard = self.shard(page);
        let mut st = shard.lock();
        let mut deadline = None; // asked for at the first wait
        let mut asked = false; // Lock Fusion granted our own request just now
        loop {
            let Some(entry) = st.entries.get_mut(&page) else {
                (st, asked) = self.ask_fusion(st, page, mode)?;
                continue;
            };
            // `fresh`: this pass found the grant landed, and takes the hold's
            // first reference whatever a negotiation asked meanwhile — grants
            // handed back unused would pass the lock to and fro.
            let fresh = std::mem::take(&mut asked) | entry.settle();
            if entry.state == EntryState::Held {
                let regrant = !entry.negotiation_pending && (self.lazy || entry.refcount > 0);
                if entry.mode.covers(mode) && (fresh || regrant) {
                    entry.refcount += 1;
                    let epoch = st.epoch;
                    if fresh {
                        notify_shard(st);
                    } else {
                        self.stats.local_grants.inc();
                    }
                    return Ok(PLockGuard {
                        owner: self.as_ref(),
                        page,
                        mode,
                        epoch,
                    });
                }
                // Either a negotiation forbids local grants, or we need
                // a stronger mode: the entry has to drain and go back,
                // then we retry through fusion (FIFO fairness, §4.3.1).
                // Unreferenced, we drain it ourselves: the hook force and
                // the release RPC are bounded (no peer waits).
                if entry.refcount == 0 {
                    self.hand_back(st, page);
                    st = shard.lock();
                    continue;
                }
            }
            // References to drain, or a request in flight or queued at Lock
            // Fusion: wait for the shard to change.
            let deadline =
                *deadline.get_or_insert_with(|| waiter.lock_wait_deadline(page.0, self.timeout));
            if scheduler::passed(deadline) {
                // The first waiter out withdraws the queued request, if
                // there is one; the entry is its own while it does.
                let Some(pending) = entry.pending.take() else {
                    return Err(PmpError::LockWaitTimeout);
                };
                let epoch = st.epoch;
                drop(st);
                let outcome = self.fusion.cancel(&pending);
                st = shard.lock();
                if st.epoch != epoch {
                    return Err(self.crashed(page, outcome == Cancel::AlreadyGranted));
                }
                if outcome == Cancel::Cancelled {
                    st.entries.remove(&page);
                    notify_shard(st);
                    return Err(PmpError::LockWaitTimeout);
                }
                // The grant won the race: the next pass settles it.
                st.entries.get_mut(&page).expect("ours").pending = Some(pending);
                continue;
            }
            st.wakers.push(waiter.waker());
            sched_point("plock.wait.registered");
            drop(st);
            waiter.suspend(deadline)?;
            st = shard.lock();
        }
    }

    /// Become `page`'s acquirer: insert the `Acquiring` entry, ask Lock
    /// Fusion with the shard lock dropped, and record the answer in the
    /// entry — `Held` (`true`), or the queued request. The RPC and the
    /// negotiation are bounded and usually end in a grant; only a holder with
    /// the page pinned leaves the request queued. Its waker is "notify this
    /// shard", registered under the shard lock the request is stored and the
    /// caller's own waker then registered under: the grant is one more change
    /// of the shard to wait for, and cannot be missed.
    fn ask_fusion<'a>(
        self: &'a Arc<Self>,
        mut st: TrackedMutexGuard<'a, ShardState>,
        page: PageId,
        mode: PLockMode,
    ) -> Result<(TrackedMutexGuard<'a, ShardState>, bool)> {
        let epoch = st.epoch;
        st.entries.insert(
            page,
            Entry {
                state: EntryState::Acquiring,
                mode,
                refcount: 0,
                negotiation_pending: false,
                pending: None,
            },
        );
        drop(st);
        self.stats.fusion_acquires.inc();
        // Parking is disabled around the request: a negotiated holder runs
        // its release hook (log force, DBP push) on this thread, and that
        // must not suspend *our* task.
        let pending =
            scheduler::with_parking_disabled(|| self.fusion.request(self.node, page, mode));
        let mut st = self.shard(page).lock();
        if st.epoch != epoch {
            drop(st);
            let holds = |p| self.fusion.cancel(&p) == Cancel::AlreadyGranted;
            return Err(self.crashed(page, pending.is_none_or(holds)));
        }
        let granted = pending.as_ref().is_none_or(|p| {
            let locks = Arc::clone(self);
            p.poll(Box::new(move || notify_shard(locks.shard(page).lock())))
        });
        let entry = st.entries.get_mut(&page).expect("its acquirer's");
        if granted {
            entry.state = EntryState::Held;
        } else {
            entry.pending = pending;
        }
        Ok((st, granted))
    }

    /// `crash_clear` wiped the table under a Lock Fusion call. A grant the
    /// call came back with goes straight back, so fusion records no hold
    /// that no entry tracks (recovery's `release_all` may already have run).
    fn crashed(&self, page: PageId, granted: bool) -> PmpError {
        if granted {
            self.fusion.release(self.node, page);
        }
        PmpError::NodeUnavailable { node: self.node }
    }

    /// Drop one reference; if it was the last and a negotiation is pending
    /// (or lazy release is disabled), hand the lock back to Lock Fusion.
    fn unref(&self, page: PageId, epoch: u64) {
        let mut st = self.shard(page).lock();
        if st.epoch != epoch {
            return; // granted before a crash: whatever entry is here is not ours
        }
        let Some(entry) = st.entries.get_mut(&page) else {
            return;
        };
        debug_assert!(entry.refcount > 0, "unref of unreferenced plock");
        entry.refcount -= 1;
        sched_point("plock.unref.zero-edge");
        if entry.refcount > 0 {
            return;
        }
        let must_release = entry.negotiation_pending || !self.lazy;
        if !must_release {
            // Lazy retention keeps the lock, but a local acquirer that needs
            // a *stronger* mode waits for exactly this refcount-to-zero edge
            // to hand the entry back and retry through fusion: without the
            // notify it sleeps to its deadline and times out spuriously.
            notify_shard(st);
            return;
        }
        if !self.lazy {
            self.stats.eager_releases.inc();
        }
        self.hand_back(st, page);
    }

    /// Push-then-release an unreferenced hold: mark it `Acquiring` (no local
    /// grants meanwhile), run the engine hook (log force + DBP push for dirty
    /// pages), tell fusion, drop the entry if it is still ours, and wake the
    /// shard — a removed entry is exactly what suspended acquirers wait for.
    /// Runs from guard drops and negotiation handlers, which cannot unwind
    /// and be re-run: the hook's log force suspends as a thread.
    fn hand_back(&self, mut st: TrackedMutexGuard<'_, ShardState>, page: PageId) {
        st.entries.get_mut(&page).expect("caller's").state = EntryState::Acquiring;
        let epoch = st.epoch;
        drop(st);
        let hook = self.hook.lock().clone();
        if let Some(hook) = &hook {
            scheduler::with_parking_disabled(|| hook.before_release(page));
        }
        self.fusion.release(self.node, page);
        let mut st = self.shard(page).lock();
        if st.epoch == epoch {
            st.entries.remove(&page);
        }
        notify_shard(st);
    }

    /// Number of pages currently held/retained (diagnostics).
    pub fn held_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub fn is_retained(&self, page: PageId) -> bool {
        self.shard(page).lock().entries.contains_key(&page)
    }

    /// Hand back every idle (refcount-zero) lock to Lock Fusion — used to
    /// quiesce a node after administrative work (bulk load) so lazily
    /// retained locks don't skew the first measured accesses of peers.
    pub fn release_idle(&self) {
        for shard in self.shards.iter() {
            // Mark every idle entry Acquiring in one pass under the lock,
            // then hand the set back through fusion's doorbell-batched release
            // (one charged flush, not an RPC per page). A negotiation or
            // crash_clear racing the marked entries is safe: fusion's release
            // tolerates missing state and we remove only entries still ours.
            let mut st = shard.lock();
            let epoch = st.epoch;
            let victims: Vec<PageId> = st
                .entries
                .iter_mut()
                .filter(|(_, e)| e.state == EntryState::Held && e.refcount == 0)
                .map(|(&page, entry)| {
                    entry.state = EntryState::Acquiring; // block local grants
                    page
                })
                .collect();
            drop(st);
            if victims.is_empty() {
                continue;
            }
            let hook = self.hook.lock().clone();
            if let Some(hook) = &hook {
                for &page in &victims {
                    hook.before_release(page);
                }
            }
            self.fusion.release_batch(self.node, &victims);
            let mut st = shard.lock();
            if st.epoch == epoch {
                for page in &victims {
                    st.entries.remove(page);
                }
            }
            notify_shard(st);
        }
    }

    /// Drop all local state without telling fusion — crash simulation. The
    /// fusion-side locks stay frozen until recovery calls
    /// `PLockFusion::release_all`; requests still queued there are withdrawn
    /// (one granted first is a frozen hold like the others), and whoever is
    /// suspended on a shard learns the node is gone.
    pub fn crash_clear(&self) {
        for shard in self.shards.iter() {
            let mut st = shard.lock();
            st.epoch += 1;
            let pendings: Vec<PendingGrant> =
                st.entries.drain().filter_map(|(_, e)| e.pending).collect();
            let wakers = std::mem::take(&mut st.wakers);
            drop(st);
            for w in wakers {
                w.fail(PmpError::NodeUnavailable { node: self.node });
            }
            for pending in &pendings {
                let _ = self.fusion.cancel(pending);
            }
        }
    }
}

/// Lock Fusion's negotiation message: "give `page` back once it drains".
impl ReleaseRequester for LocalPLocks {
    fn request_release(&self, page: PageId, _wanted: PLockMode) {
        let mut st = self.shard(page).lock();
        let Some(entry) = st.entries.get_mut(&page) else {
            return; // already gone
        };
        // While `Acquiring` we don't actually hold it yet; fusion races are
        // benign. A grant that landed and nobody picked up is an idle hold.
        entry.negotiation_pending = true;
        entry.settle();
        if entry.state == EntryState::Held && entry.refcount == 0 {
            self.stats.negotiated_releases.inc();
            self.hand_back(st, page);
        }
        // refcount > 0: the final unref will hand it back.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;
    use pmp_rdma::Fabric;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup(lazy: bool) -> (Arc<PLockFusion>, Arc<LocalPLocks>, Arc<LocalPLocks>) {
        setup_with_timeout(lazy, Duration::from_secs(5))
    }

    /// `timeout` is node 1's lock-wait timeout; node 2 keeps five seconds.
    fn setup_with_timeout(
        lazy: bool,
        timeout: Duration,
    ) -> (Arc<PLockFusion>, Arc<LocalPLocks>, Arc<LocalPLocks>) {
        let fusion = Arc::new(PLockFusion::new(Arc::new(
            pmp_repl::ReplicatedFabric::single(Arc::new(Fabric::new(LatencyConfig::disabled()))),
        )));
        let a = LocalPLocks::new(NodeId(1), Arc::clone(&fusion), lazy, timeout);
        let b = LocalPLocks::new(NodeId(2), Arc::clone(&fusion), lazy, Duration::from_secs(5));
        fusion.register_node(NodeId(1), Arc::clone(&a));
        fusion.register_node(NodeId(2), Arc::clone(&b));
        (fusion, a, b)
    }

    #[test]
    fn lazy_retention_regrants_locally() {
        let (fusion, a, _b) = setup(true);
        let p = PageId(1);
        drop(a.acquire(p, PLockMode::X).unwrap());
        assert!(a.is_retained(p), "lazy release must retain the lock");
        assert_eq!(fusion.stats().releases.get(), 0);

        drop(a.acquire(p, PLockMode::S).unwrap());
        drop(a.acquire(p, PLockMode::X).unwrap());
        assert_eq!(a.stats().local_grants.get(), 2);
        assert_eq!(a.stats().fusion_acquires.get(), 1);
    }

    #[test]
    fn eager_mode_releases_immediately() {
        let (fusion, a, _b) = setup(false);
        let p = PageId(1);
        drop(a.acquire(p, PLockMode::X).unwrap());
        assert!(!a.is_retained(p));
        assert_eq!(fusion.stats().releases.get(), 1);
        assert_eq!(a.stats().eager_releases.get(), 1);
    }

    #[test]
    fn negotiation_transfers_idle_lock() {
        let (_fusion, a, b) = setup(true);
        let p = PageId(2);
        drop(a.acquire(p, PLockMode::X).unwrap());
        assert!(a.is_retained(p));

        // B's acquire nudges A, whose refcount is zero → instant transfer.
        let guard = b.acquire(p, PLockMode::X).unwrap();
        assert!(!a.is_retained(p));
        assert!(b.is_retained(p));
        assert_eq!(a.stats().negotiated_releases.get(), 1);
        drop(guard);
    }

    #[test]
    fn negotiation_waits_for_active_references() {
        use std::thread;
        let (_fusion, a, b) = setup(true);
        let p = PageId(3);
        let guard = a.acquire(p, PLockMode::X).unwrap();

        let b2 = Arc::clone(&b);
        let t = thread::spawn(move || b2.acquire(p, PLockMode::X).map(|g| g.mode));
        thread::sleep(Duration::from_millis(50));
        assert!(a.is_retained(p), "A must keep the lock while referenced");

        drop(guard); // refcount drains → pending negotiation fires
        assert_eq!(t.join().unwrap().unwrap(), PLockMode::X);
        assert!(!a.is_retained(p));
    }

    #[test]
    fn negotiated_page_not_regranted_locally() {
        use std::thread;
        let (_fusion, a, b) = setup(true);
        let p = PageId(4);
        let guard = a.acquire(p, PLockMode::X).unwrap();

        let b2 = Arc::clone(&b);
        let waiter = thread::spawn(move || {
            let g = b2.acquire(p, PLockMode::X).unwrap();
            thread::sleep(Duration::from_millis(50));
            drop(g);
        });
        thread::sleep(Duration::from_millis(50));

        // A tries to re-acquire while the negotiation is pending: it must
        // go through fusion and wait behind B (FIFO), not self-grant.
        let a2 = Arc::clone(&a);
        let local_attempt = thread::spawn(move || {
            let _g = a2.acquire(p, PLockMode::S).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        drop(guard);
        waiter.join().unwrap();
        local_attempt.join().unwrap();
        assert!(a.stats().local_grants.get() == 0, "no local grant allowed");
    }

    #[test]
    fn release_hook_runs_before_fusion_release() {
        struct CountingHook(AtomicUsize);
        impl ReleaseHook for CountingHook {
            fn before_release(&self, _page: PageId) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (_fusion, a, b) = setup(true);
        let hook = Arc::new(CountingHook(AtomicUsize::new(0)));
        a.set_hook(Arc::clone(&hook) as Arc<dyn ReleaseHook>);

        let p = PageId(5);
        drop(a.acquire(p, PLockMode::X).unwrap());
        drop(b.acquire(p, PLockMode::X).unwrap());
        assert_eq!(hook.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn crash_clear_leaves_fusion_frozen() {
        let (fusion, a, _b) = setup(true);
        let p = PageId(6);
        drop(a.acquire(p, PLockMode::X).unwrap());
        a.crash_clear();
        assert_eq!(a.held_count(), 0);
        assert_eq!(
            fusion.holders(p),
            vec![(NodeId(1), PLockMode::X)],
            "fusion must still see the crashed node as holder"
        );
    }

    #[test]
    fn crash_clear_during_inflight_acquire_errors_cleanly() {
        use std::thread;
        let (fusion, a, b) = setup(true);
        let p = PageId(8);
        // B holds X with a live reference, so A's fusion acquire queues.
        let guard = b.acquire(p, PLockMode::X).unwrap();
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || a2.acquire(p, PLockMode::X).map(|g| g.mode));
        thread::sleep(Duration::from_millis(50));

        // Crash A while its fusion call is in flight, then let the grant
        // land by draining B.
        a.crash_clear();
        drop(guard);

        let res = t.join().expect("in-flight acquire must not panic");
        assert!(
            matches!(res, Err(PmpError::NodeUnavailable { node: NodeId(1) })),
            "post-crash grant must surface as NodeUnavailable, got {res:?}"
        );
        assert_eq!(a.held_count(), 0);
        assert!(
            !fusion.holders(p).iter().any(|(n, _)| *n == NodeId(1)),
            "the surprise grant must be handed back to fusion"
        );
    }

    #[test]
    fn concurrent_local_acquires_share_one_fusion_call() {
        use std::thread;
        let (_fusion, a, _b) = setup(true);
        let p = PageId(7);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                thread::spawn(move || {
                    for _ in 0..50 {
                        drop(a.acquire(p, PLockMode::S).unwrap());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.stats().fusion_acquires.get(), 1);
        assert_eq!(a.stats().local_grants.get(), 8 * 50 - 1);
    }

    // ---- `acquire` as a task (the waiter parks) -----------------------------

    use crate::scheduler::{eventually, Parker, Scheduler, StepResult};
    use std::time::Instant;

    /// One `acquire` driven as a scheduler task, the way the session actor
    /// drives a statement: `WouldBlock` parks the step, a wake re-runs it
    /// from the top (re-taking `first`, a statement's uncontended PLock),
    /// and an error a wait source left on the parker is the outcome.
    struct AcquireTask {
        parker: Arc<Parker>,
        runs: Arc<AtomicUsize>,
        outcome: Arc<TrackedMutex<Option<Result<PLockMode>>>>,
    }

    impl AcquireTask {
        fn spawn(
            sched: &Scheduler,
            locks: &Arc<LocalPLocks>,
            first: Option<PageId>,
            page: PageId,
            mode: PLockMode,
        ) -> AcquireTask {
            let runs = Arc::new(AtomicUsize::new(0));
            let outcome = Arc::new(TrackedMutex::new(LOCAL_HOOK, None));
            let (locks, r, o) = (Arc::clone(locks), Arc::clone(&runs), Arc::clone(&outcome));
            // The step's own parker, known once `spawn` returns — before any
            // wait source can have failed a wait on it.
            let me = Arc::new(TrackedMutex::new(LOCAL_HOOK, None::<Arc<Parker>>));
            let own = Arc::clone(&me);
            let parker = sched.spawn(Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
                let own = own.lock().clone();
                let wait_err = own.and_then(|p| p.take_error());
                let res = match wait_err {
                    Some(e) => Err(e),
                    None => {
                        if let Some(first) = first {
                            drop(locks.acquire(first, PLockMode::S).unwrap());
                        }
                        locks.acquire(page, mode).map(|g| g.mode)
                    }
                };
                if res == Err(PmpError::WouldBlock) {
                    return StepResult::Parked;
                }
                *o.lock() = Some(res);
                StepResult::Done
            }));
            *me.lock() = Some(Arc::clone(&parker));
            AcquireTask {
                parker,
                runs,
                outcome,
            }
        }

        fn wait_parked_after(&self, runs: usize) {
            eventually("task never parked", || {
                self.runs.load(Ordering::SeqCst) >= runs && self.parker.is_parked()
            });
        }

        fn wait_outcome(&self) -> Result<PLockMode> {
            eventually("acquire never resolved", || self.outcome.lock().is_some());
            self.outcome.lock().take().expect("checked")
        }
    }

    #[test]
    fn async_acquire_is_granted_inline_when_nobody_pins_the_page() {
        let (fusion, a, b) = setup(true);
        let sched = Scheduler::new(1);

        // Uncontended: granted by the request itself.
        let free = PageId(20);
        let t = AcquireTask::spawn(&sched, &a, None, free, PLockMode::X);
        assert_eq!(t.wait_outcome(), Ok(PLockMode::X));
        assert_eq!(fusion.stats().immediate_grants.get(), 1);

        // Held by an idle, lazily retaining peer: handed back inside the
        // negotiation, so the grant has landed when `request` returns.
        let retained = PageId(21);
        drop(b.acquire(retained, PLockMode::X).unwrap());
        assert!(b.is_retained(retained));
        let t = AcquireTask::spawn(&sched, &a, None, retained, PLockMode::X);
        assert_eq!(t.wait_outcome(), Ok(PLockMode::X));
        assert!(!b.is_retained(retained) && a.is_retained(retained));
        assert_eq!(b.stats().negotiated_releases.get(), 1);
        assert_eq!(fusion.queue_len(retained), 0);
        assert_eq!(fusion.holders(retained), vec![(NodeId(1), PLockMode::X)]);

        assert_eq!(t.runs.load(Ordering::SeqCst), 1, "one run, no re-run");
        let st = sched.stats();
        assert_eq!(st.parks.get(), 0, "no grant was outstanding");
        assert_eq!(st.timer_fires.get(), 0);
        assert_eq!(sched.pending_timers(), 0, "and no deadline was armed");
        // The guards were dropped: both locks are idle, retained holds.
        drop(a.acquire(free, PLockMode::X).unwrap());
        drop(a.acquire(retained, PLockMode::S).unwrap());
        assert_eq!(a.stats().local_grants.get(), 2);
    }

    #[test]
    fn async_acquire_parks_on_a_pinned_page_and_the_unref_wakes_it() {
        let (fusion, a, b) = setup(true);
        let sched = Scheduler::new(1);
        let p = PageId(22);
        let pin = b.acquire(p, PLockMode::X).unwrap();

        let t = AcquireTask::spawn(&sched, &a, None, p, PLockMode::X);
        t.wait_parked_after(1);
        let st = sched.stats();
        assert_eq!(st.parks.get(), 1, "the outstanding grant holds no thread");
        assert_eq!(sched.pending_timers(), 1, "only its lock-wait deadline");
        assert_eq!(fusion.queue_len(p), 1);
        assert!(a.is_retained(p), "the request waits in the Acquiring entry");
        assert!(t.outcome.lock().is_none());

        drop(pin); // last reference: the pending negotiation hands the lock over
        assert_eq!(t.wait_outcome(), Ok(PLockMode::X));
        assert_eq!(t.runs.load(Ordering::SeqCst), 2, "parked once, woken once");
        assert_eq!(st.parks.get(), 1);
        assert_eq!(
            st.timer_fires.get(),
            0,
            "woken by the grant, not the deadline"
        );
        assert_eq!(fusion.stats().queued_grants.get(), 1);
        assert_eq!(fusion.queue_len(p), 0);
        assert_eq!(fusion.holders(p), vec![(NodeId(1), PLockMode::X)]);
    }

    #[test]
    fn async_acquire_times_out_on_its_own_deadline_and_leaves_no_queue_entry() {
        let (fusion, a, b) = setup_with_timeout(true, Duration::from_millis(50));
        let sched = Scheduler::new(1);
        let p = PageId(23);
        let _pin = b.acquire(p, PLockMode::X).unwrap();

        let t = AcquireTask::spawn(&sched, &a, None, p, PLockMode::S);
        assert_eq!(t.wait_outcome(), Err(PmpError::LockWaitTimeout));
        assert_eq!(
            t.runs.load(Ordering::SeqCst),
            2,
            "parked, then the deadline"
        );
        assert_eq!(sched.stats().timer_fires.get(), 1);
        assert_eq!(fusion.stats().timeouts.get(), 1);
        assert_eq!(fusion.queue_len(p), 0);
        assert_eq!(a.held_count(), 0, "the Acquiring entry is gone");
        assert_eq!(fusion.holders(p), vec![(NodeId(2), PLockMode::X)]);
    }

    #[test]
    fn crash_clear_during_an_async_request_errors_cleanly() {
        // Inline grant: the peer's release hook runs inside our `request`,
        // which is where the crash lands.
        struct CrashPeer(Arc<LocalPLocks>);
        impl ReleaseHook for CrashPeer {
            fn before_release(&self, _page: PageId) {
                self.0.crash_clear();
            }
        }
        let (fusion, a, b) = setup(true);
        let sched = Scheduler::new(1);
        let p = PageId(24);
        drop(b.acquire(p, PLockMode::X).unwrap());
        b.set_hook(Arc::new(CrashPeer(Arc::clone(&a))));
        let t = AcquireTask::spawn(&sched, &a, None, p, PLockMode::X);
        assert_eq!(
            t.wait_outcome(),
            Err(PmpError::NodeUnavailable { node: NodeId(1) })
        );
        assert_eq!(
            t.runs.load(Ordering::SeqCst),
            1,
            "failed inside the request"
        );
        assert_eq!(sched.stats().parks.get(), 0);
        assert_eq!(a.held_count(), 0);
        assert!(fusion.holders(p).is_empty(), "the surprise grant went back");

        // Outstanding grant: the crash lands while the task is parked, and
        // withdraws the request with the entry that carried it.
        let (fusion, a, b) = setup(true);
        let pin = b.acquire(p, PLockMode::X).unwrap();
        let t = AcquireTask::spawn(&sched, &a, None, p, PLockMode::X);
        t.wait_parked_after(1);
        assert_eq!(fusion.queue_len(p), 1);
        a.crash_clear();
        assert_eq!(fusion.queue_len(p), 0);
        drop(pin);
        assert_eq!(
            t.wait_outcome(),
            Err(PmpError::NodeUnavailable { node: NodeId(1) })
        );
        assert_eq!(a.held_count(), 0);
        assert!(fusion.holders(p).is_empty());
        assert_eq!(fusion.queue_len(p), 0);
    }

    /// Every outstanding grant has its own deadline: nothing queues for a
    /// helper thread, so the ninth waiter times out when the first does.
    #[test]
    fn nine_parked_acquires_all_time_out_within_one_timeout() {
        let timeout = Duration::from_millis(400);
        let (fusion, a, b) = setup_with_timeout(true, timeout);
        let sched = Scheduler::new(1);
        let pages: Vec<PageId> = (40..49).map(PageId).collect();
        let _pins: Vec<_> = pages
            .iter()
            .map(|&p| b.acquire(p, PLockMode::X).unwrap())
            .collect();

        let asked = Instant::now();
        let tasks: Vec<AcquireTask> = pages
            .iter()
            .map(|&p| AcquireTask::spawn(&sched, &a, None, p, PLockMode::X))
            .collect();
        for t in &tasks {
            assert_eq!(t.wait_outcome(), Err(PmpError::LockWaitTimeout));
        }
        let took = asked.elapsed();
        assert!(took >= timeout, "timed out early: {took:?}");
        assert!(
            took < timeout * 7 / 4,
            "a waiter's deadline started late: all nine took {took:?}"
        );
        assert_eq!(fusion.stats().timeouts.get(), 9);
        assert_eq!(a.held_count(), 0);
        assert!(pages.iter().all(|&p| fusion.queue_len(p) == 0));
    }

    /// A statement's re-run need not come back for the lock it parked on
    /// (the tree changed under it). The grant still lands in the entry, and
    /// the next negotiation finds it there: an idle hold, handed back.
    #[test]
    fn a_grant_nobody_comes_back_for_is_negotiated_away() {
        let (fusion, a, b) = setup(true);
        let sched = Scheduler::new(1);
        let p = PageId(50);
        let pin = b.acquire(p, PLockMode::X).unwrap();

        let runs = Arc::new(AtomicUsize::new(0));
        let (locks, r) = (Arc::clone(&a), Arc::clone(&runs));
        let parker = sched.spawn(Box::new(move || {
            if r.fetch_add(1, Ordering::SeqCst) > 0 {
                return StepResult::Done; // the re-run went elsewhere
            }
            let res = locks.acquire(p, PLockMode::X).map(|g| g.mode);
            assert_eq!(res, Err(PmpError::WouldBlock));
            StepResult::Parked
        }));
        eventually("task never parked", || parker.is_parked());
        drop(pin);
        eventually("re-run never finished", || sched.stats().tasks.get() == 0);
        assert_eq!(fusion.holders(p), vec![(NodeId(1), PLockMode::X)]);
        assert!(a.is_retained(p));

        drop(
            b.acquire(p, PLockMode::X)
                .expect("the orphan grant is handed back"),
        );
        assert_eq!(a.held_count(), 0);
        assert_eq!(a.stats().negotiated_releases.get(), 1);
        assert_eq!(fusion.holders(p), vec![(NodeId(2), PLockMode::X)]);
    }

    #[test]
    fn lock_wait_deadline_survives_statement_reruns_with_one_timer() {
        const RERUNS: usize = 5;
        let timeout = Duration::from_millis(300);
        let (_fusion, a, _b) = setup_with_timeout(true, timeout);
        let sched = Scheduler::new(1);
        let (root, leaf) = (PageId(30), PageId(31));
        // A local reader pins the leaf in S; the task wants X and must wait
        // for the refcount to drain.
        let _pin = a.acquire(leaf, PLockMode::S).unwrap();

        let armed = Instant::now();
        let t = AcquireTask::spawn(&sched, &a, Some(root), leaf, PLockMode::X);
        t.wait_parked_after(1);
        let recorded = t.parker.recorded_wait().expect("wait recorded");
        assert_eq!(recorded.0, leaf.0);
        assert_eq!(sched.pending_timers(), 1);

        // Every re-run re-takes the root PLock first (a local grant for
        // another page), then parks on the leaf again.
        for rerun in 1..=RERUNS {
            t.parker.wake();
            t.wait_parked_after(1 + rerun);
            assert_eq!(
                t.parker.recorded_wait(),
                Some(recorded),
                "re-run {rerun} moved the deadline"
            );
            assert_eq!(sched.pending_timers(), 1, "re-run {rerun} armed a timer");
        }
        assert!(a.stats().local_grants.get() >= RERUNS as u64);

        assert_eq!(t.wait_outcome(), Err(PmpError::LockWaitTimeout));
        assert!(armed.elapsed() >= timeout, "timed out before the deadline");
        assert_eq!(sched.stats().timer_fires.get(), 1);
        assert!(t.parker.recorded_wait().is_none());
    }
}
