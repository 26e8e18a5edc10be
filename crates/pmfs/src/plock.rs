//! The page-locking (PLock) protocol, §4.3.1 / Figure 5 — Lock Fusion side.
//!
//! PLocks serialize *cross-node* page access (within a node ordinary latches
//! apply). Lock Fusion tracks, per page, the set of holding nodes and a FIFO
//! queue of waiting requests. When a request conflicts with current holders,
//! Lock Fusion sends those holders a *negotiation message* asking them to
//! release the lock once their local reference count drains (lazy release,
//! handled on the node side). Grants are strictly FIFO to prevent the
//! starvation the paper calls out.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmp_common::sync::{LockClass, TrackedMutex, TrackedRwLock};
use pmp_common::{Counter, NodeId, PageId, PmpError, Result};
use pmp_repl::ReplicatedFabric;

use crate::wait_cell::{WaitCell, WakeFn};

/// Lock-table shard maps. Ordered before `pmfs.wait_cell`: a grant is
/// recorded in its cell under the shard lock.
const PLOCK_SHARD: LockClass = LockClass::new("pmfs.plock.shard");
/// The node → negotiation-handler directory.
const REQUESTERS: LockClass = LockClass::new("pmfs.plock.requesters");

/// Shared (read) or exclusive (write) page lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PLockMode {
    S,
    X,
}

impl PLockMode {
    /// Does a holder in `self` mode allow another node to take `other`?
    fn compatible(self, other: PLockMode) -> bool {
        matches!((self, other), (PLockMode::S, PLockMode::S))
    }

    /// Is a lock held in `self` mode sufficient for a request of `other`?
    pub fn covers(self, other: PLockMode) -> bool {
        self == PLockMode::X || other == PLockMode::S
    }
}

/// Node-side handler for Lock Fusion's negotiation messages ("please release
/// page P when your reference count reaches zero"). Implemented by the
/// engine's local PLock manager.
pub trait ReleaseRequester: Send + Sync {
    fn request_release(&self, page: PageId, wanted: PLockMode);
}

struct WaitingReq {
    node: NodeId,
    mode: PLockMode,
    cell: Arc<WaitCell<()>>,
}

/// A request [`PLockFusion::request`] left in the FIFO queue: the grant
/// lands in its cell, unless [`PLockFusion::cancel`] comes first.
pub struct PendingGrant {
    page: PageId,
    cell: Arc<WaitCell<()>>,
}

impl PendingGrant {
    pub fn is_granted(&self) -> bool {
        self.cell.verdict().is_some()
    }

    /// Whether the grant has landed; if not, `waker` fires when it does.
    pub fn poll(&self, waker: WakeFn) -> bool {
        self.cell.poll(waker).is_some()
    }
}

/// What [`PLockFusion::cancel`] found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cancel {
    /// The request left the queue ungranted.
    Cancelled,
    /// The grant had landed first: the node holds the lock.
    AlreadyGranted,
}

#[derive(Default)]
struct PLockState {
    /// Current holders. Invariant: either any number of distinct S holders,
    /// or exactly one X holder.
    holders: Vec<(NodeId, PLockMode)>,
    queue: VecDeque<WaitingReq>,
}

impl PLockState {
    /// Can `node` be granted `mode` given current holders (ignoring queue)?
    fn grantable(&self, node: NodeId, mode: PLockMode) -> bool {
        self.holders
            .iter()
            .all(|(n, m)| *n == node || m.compatible(mode))
    }

    /// The holders `node` must negotiate with to be granted `mode`.
    fn conflicting(&self, node: NodeId, mode: PLockMode) -> Vec<NodeId> {
        let blocks = |(n, m): &(NodeId, PLockMode)| *n != node && !m.compatible(mode);
        self.holders
            .iter()
            .filter(|h| blocks(h))
            .map(|h| h.0)
            .collect()
    }

    fn add_holder(&mut self, node: NodeId, mode: PLockMode) {
        match self.holders.iter_mut().find(|(n, _)| *n == node) {
            Some((_, m)) => {
                if mode == PLockMode::X {
                    *m = PLockMode::X; // upgrade in place
                }
            }
            None => self.holders.push((node, mode)),
        }
    }
}

/// Lock Fusion meters.
#[derive(Debug, Default)]
pub struct PLockStats {
    /// Requests. Once none is outstanding, `acquires == immediate_grants +
    /// queued_grants + timeouts`.
    pub acquires: Counter,
    pub immediate_grants: Counter,
    /// Requests granted from the FIFO queue, counted at the grant.
    pub queued_grants: Counter,
    pub negotiations: Counter,
    pub releases: Counter,
    /// Requests that left the queue ungranted ([`PLockFusion::cancel`],
    /// [`PLockFusion::release_all`]): a deadline passed, a requester crashed.
    pub timeouts: Counter,
}

/// What is left to do with the shard lock dropped: the granted requests'
/// wakers to fire, the queue head's blockers to nudge.
type FollowUp = (Vec<WakeFn>, Option<(PLockMode, Vec<NodeId>)>);

const SHARDS: usize = 64;

/// The Lock Fusion PLock table.
///
/// The table itself is RPC-served in-process state; its mutations are
/// shipped to the PMFS backups via
/// [`ReplicatedFabric::replicate_mutation`], so at `replicas > 1` every
/// grant/release survives a replica crash without a re-seat (DESIGN.md §15).
pub struct PLockFusion {
    repl: Arc<ReplicatedFabric>,
    shards: Vec<TrackedMutex<HashMap<PageId, PLockState>>>,
    requesters: TrackedRwLock<HashMap<NodeId, Arc<dyn ReleaseRequester>>>,
    stats: PLockStats,
}

impl std::fmt::Debug for PLockFusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PLockFusion")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PLockFusion {
    pub fn new(repl: Arc<ReplicatedFabric>) -> Self {
        PLockFusion {
            repl,
            shards: (0..SHARDS)
                .map(|_| TrackedMutex::new(PLOCK_SHARD, HashMap::new()))
                .collect(),
            requesters: TrackedRwLock::new(REQUESTERS, HashMap::new()),
            stats: PLockStats::default(),
        }
    }

    pub fn stats(&self) -> &PLockStats {
        &self.stats
    }

    /// Register the node-side negotiation handler (engine local manager).
    pub fn register_node(&self, node: NodeId, handler: Arc<impl ReleaseRequester + 'static>) {
        self.requesters.write().insert(node, handler);
    }

    /// Drop a node's handler. Its held locks stay frozen until
    /// [`release_all`](Self::release_all) — exactly the crash story: pages
    /// locked by a crashed node become available only after its recovery.
    pub fn unregister_node(&self, node: NodeId) {
        self.requesters.write().remove(&node);
    }

    fn shard(&self, page: PageId) -> &TrackedMutex<HashMap<PageId, PLockState>> {
        &self.shards[(page.0 as usize) & (SHARDS - 1)]
    }

    /// Acquire `mode` on `page` for `node`, blocking the calling thread up
    /// to `timeout` — for callers that have no scheduler (the baselines'
    /// lock cache, tests): [`request`](Self::request), park until the grant
    /// lands or the time is up, then [`cancel`](Self::cancel). The engine
    /// drives the same calls through its own wait path. The node-side cache
    /// guarantees at most one in-flight request per (node, page), and that
    /// a node only re-requests a lock it still holds when a negotiation
    /// forbade local re-granting — FIFO queueing is then the paper's fairness.
    pub fn acquire(
        &self,
        node: NodeId,
        page: PageId,
        mode: PLockMode,
        timeout: Duration,
    ) -> Result<()> {
        let Some(pending) = self.request(node, page, mode) else {
            return Ok(());
        };
        // lint: allow(raw-instant): the lock-wait timeout of a caller that has no scheduler is real time
        let asked = Instant::now();
        loop {
            let me = std::thread::current();
            if pending.poll(Box::new(move || me.unpark())) {
                return Ok(());
            }
            match timeout.checked_sub(asked.elapsed()) {
                Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                _ => break,
            }
        }
        match self.cancel(&pending) {
            Cancel::AlreadyGranted => Ok(()),
            Cancel::Cancelled => Err(PmpError::LockWaitTimeout),
        }
    }

    /// Ask for `mode` on `page`: the RDMA RPC (charged here), then either
    /// an immediate grant (`None`) or a FIFO queue entry plus negotiation
    /// messages to the conflicting holders. Bounded — it never waits for a
    /// peer to drain. The returned [`PendingGrant`] may already be granted
    /// (an idle holder hands the lock back inside the negotiation). A
    /// requester that stops waiting must [`cancel`](Self::cancel) it.
    #[must_use = "a pending grant that is neither granted nor cancelled leaks its FIFO queue entry"]
    pub fn request(&self, node: NodeId, page: PageId, mode: PLockMode) -> Option<PendingGrant> {
        self.stats.acquires.inc();
        self.repl.rpc(32, || ());
        // The grant/queue mutation below lands on every PMFS backup.
        self.repl.replicate_mutation(32);

        let (cell, conflicting) = {
            let mut shard = self.shard(page).lock();
            let state = shard.entry(page).or_default();

            // (Also a node re-requesting a lock it still holds, e.g. after a
            // negotiation that was resolved before it got here.)
            if state.queue.is_empty() && state.grantable(node, mode) {
                state.add_holder(node, mode);
                self.stats.immediate_grants.inc();
                return None;
            }

            // Conflict: enqueue FIFO and remember whom to negotiate with.
            let cell = WaitCell::new();
            state.queue.push_back(WaitingReq {
                node,
                mode,
                cell: Arc::clone(&cell),
            });
            (cell, state.conflicting(node, mode))
        };

        // Send negotiation messages outside the shard lock: the handler may
        // release immediately, which re-enters this fusion.
        self.negotiate(page, mode, &conflicting);
        Some(PendingGrant { page, cell })
    }

    /// Withdraw a queued request whose requester stopped waiting (deadline,
    /// crash). Decided under the shard lock, like the grant: either the
    /// request leaves the queue ungranted — and whatever it was blocking is
    /// granted — or the node holds the lock.
    pub fn cancel(&self, pending: &PendingGrant) -> Cancel {
        let PendingGrant { page, cell } = pending;
        let page = *page;
        let follow_up = {
            let mut shard = self.shard(page).lock();
            if cell.verdict().is_some() {
                return Cancel::AlreadyGranted;
            }
            if let Some(state) = shard.get_mut(&page) {
                let queued = state.queue.len();
                state.queue.retain(|req| !Arc::ptr_eq(&req.cell, cell));
                let withdrawn = queued - state.queue.len();
                self.stats.timeouts.add(withdrawn as u64);
            }
            Self::regrant(&self.stats, &mut shard, page)
        };
        self.follow_up(page, follow_up);
        Cancel::Cancelled
    }

    fn negotiate(&self, page: PageId, wanted: PLockMode, holders: &[NodeId]) {
        if holders.is_empty() {
            return;
        }
        // Snapshot the handlers and drop the directory lock before
        // messaging: the nudge charges fabric latency and the handler may
        // re-enter this fusion, neither of which may happen under it.
        let handlers: Vec<Arc<dyn ReleaseRequester>> = {
            let requesters = self.requesters.read();
            holders
                .iter()
                .filter_map(|n| requesters.get(n).cloned())
                .collect()
        };
        // Fusion → node nudges: one-way messages through one doorbell batch
        // (one charged round trip); the handlers run with the charge paid.
        let mut batch = self.repl.batch();
        for _ in &handlers {
            self.stats.negotiations.inc();
            batch.one_way_message(32);
        }
        batch.flush();
        for handler in handlers {
            handler.request_release(page, wanted);
        }
    }

    /// Release `node`'s PLock on `page` and grant to waiters FIFO.
    pub fn release(&self, node: NodeId, page: PageId) {
        self.stats.releases.inc();
        self.repl.rpc(32, || ());
        self.repl.replicate_mutation(32);
        self.release_inner(node, page);
    }

    /// Release a whole set of `node`'s PLocks in one doorbell-batched
    /// message burst — the lazy-release sweep's fast path. Per-page message
    /// cost is metered identically to [`release`](Self::release), but the
    /// wall-clock charge is one flush for the entire sweep.
    pub fn release_batch(&self, node: NodeId, pages: &[PageId]) {
        if pages.is_empty() {
            return;
        }
        let mut batch = self.repl.batch();
        for _ in pages {
            self.stats.releases.inc();
            batch.rpc_message(32);
        }
        batch.flush();
        // One doorbell ships the whole sweep's table mutation to the backups.
        self.repl.replicate_mutation(32 * pages.len());
        for &page in pages {
            self.release_inner(node, page);
        }
    }

    fn release_inner(&self, node: NodeId, page: PageId) {
        let follow_up = {
            let mut shard = self.shard(page).lock();
            if let Some(state) = shard.get_mut(&page) {
                state.holders.retain(|(n, _)| *n != node);
            }
            Self::regrant(&self.stats, &mut shard, page)
        };
        self.follow_up(page, follow_up);
    }

    /// Forget `node` (post-recovery, or decommission): release every lock it
    /// holds, drop every request it left queued, and grant what either was
    /// blocking. Returns the pages whose lock was released.
    pub fn release_all(&self, node: NodeId) -> Vec<PageId> {
        let mut released = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut touched = Vec::new();
            for (&page, state) in shard.iter_mut() {
                let before = (state.holders.len(), state.queue.len());
                state.holders.retain(|(n, _)| *n != node);
                state.queue.retain(|req| req.node != node);
                self.stats
                    .timeouts
                    .add((before.1 - state.queue.len()) as u64);
                if state.holders.len() != before.0 {
                    released.push(page);
                }
                if (state.holders.len(), state.queue.len()) != before {
                    touched.push(page);
                }
            }
            let follow_ups: Vec<(PageId, FollowUp)> = touched
                .into_iter()
                .map(|page| (page, Self::regrant(&self.stats, &mut shard, page)))
                .collect();
            drop(shard);
            for (page, follow_up) in follow_ups {
                self.follow_up(page, follow_up);
            }
        }
        released
    }

    /// `page`'s holders or queue changed: grant every queue-head request
    /// compatible with the current holders, FIFO (consecutive S requests
    /// together), and drop the page's state once empty. If the queue is
    /// still blocked its head's conflicting holders need (another) nudge —
    /// e.g. S holders blocking an X request that arrived while an unrelated
    /// holder was releasing.
    fn regrant(
        stats: &PLockStats,
        shard: &mut HashMap<PageId, PLockState>,
        page: PageId,
    ) -> FollowUp {
        let Some(state) = shard.get_mut(&page) else {
            return FollowUp::default();
        };
        let mut wakers = Vec::new();
        while let Some(head) = state.queue.front() {
            if !state.grantable(head.node, head.mode) {
                break;
            }
            let req = state.queue.pop_front().expect("front exists");
            state.add_holder(req.node, req.mode);
            stats.queued_grants.inc();
            wakers.extend(req.cell.set(()));
        }
        let nudge = state
            .queue
            .front()
            .map(|head| (head.mode, state.conflicting(head.node, head.mode)));
        if state.holders.is_empty() && state.queue.is_empty() {
            shard.remove(&page);
        }
        (wakers, nudge)
    }

    /// The wakers may run their waiters inline and the nudged holders may
    /// release at once, re-entering this fusion: no lock is held here.
    fn follow_up(&self, page: PageId, (wakers, nudge): FollowUp) {
        for wake in wakers {
            wake();
        }
        if let Some((wanted, holders)) = nudge {
            self.negotiate(page, wanted, &holders);
        }
    }

    /// Test/diagnostic: current holders of a page.
    pub fn holders(&self, page: PageId) -> Vec<(NodeId, PLockMode)> {
        let shard = self.shard(page).lock();
        shard.get(&page).map_or(Vec::new(), |s| s.holders.clone())
    }

    pub fn queue_len(&self, page: PageId) -> usize {
        let shard = self.shard(page).lock();
        shard.get(&page).map_or(0, |s| s.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use pmp_common::LatencyConfig;
    use pmp_rdma::Fabric;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn fusion() -> Arc<PLockFusion> {
        Arc::new(PLockFusion::new(Arc::new(ReplicatedFabric::single(
            Arc::new(Fabric::new(LatencyConfig::disabled())),
        ))))
    }

    const T: Duration = Duration::from_secs(5);

    /// Handler that releases immediately when nudged (refcount always 0).
    struct InstantRelease {
        fusion: Mutex<Option<Arc<PLockFusion>>>,
        node: NodeId,
        nudges: AtomicUsize,
    }

    impl ReleaseRequester for InstantRelease {
        fn request_release(&self, page: PageId, _wanted: PLockMode) {
            self.nudges.fetch_add(1, Ordering::Relaxed);
            let fusion = self.fusion.lock().clone().unwrap();
            fusion.release(self.node, page);
        }
    }

    fn instant(fusion: &Arc<PLockFusion>, node: NodeId) -> Arc<InstantRelease> {
        let h = Arc::new(InstantRelease {
            fusion: Mutex::new(Some(Arc::clone(fusion))),
            node,
            nudges: AtomicUsize::new(0),
        });
        fusion.register_node(node, Arc::clone(&h));
        h
    }

    #[test]
    fn mode_compatibility_matrix() {
        assert!(PLockMode::S.compatible(PLockMode::S));
        assert!(!PLockMode::S.compatible(PLockMode::X));
        assert!(!PLockMode::X.compatible(PLockMode::S));
        assert!(!PLockMode::X.compatible(PLockMode::X));
        assert!(PLockMode::X.covers(PLockMode::S));
        assert!(PLockMode::X.covers(PLockMode::X));
        assert!(PLockMode::S.covers(PLockMode::S));
        assert!(!PLockMode::S.covers(PLockMode::X));
    }

    #[test]
    fn shared_locks_coexist() {
        let f = fusion();
        let p = PageId(1);
        f.acquire(NodeId(1), p, PLockMode::S, T).unwrap();
        f.acquire(NodeId(2), p, PLockMode::S, T).unwrap();
        assert_eq!(f.holders(p).len(), 2);
        f.release(NodeId(1), p);
        f.release(NodeId(2), p);
        assert!(f.holders(p).is_empty());
    }

    #[test]
    fn exclusive_conflicts_trigger_negotiation_and_transfer() {
        let f = fusion();
        let p = PageId(2);
        let h1 = instant(&f, NodeId(1));
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();

        // Node 2 wants X; node 1's handler releases on nudge, so this
        // completes without any other thread.
        f.acquire(NodeId(2), p, PLockMode::X, T).unwrap();
        assert_eq!(h1.nudges.load(Ordering::Relaxed), 1);
        assert_eq!(f.holders(p), vec![(NodeId(2), PLockMode::X)]);
    }

    #[test]
    fn blocked_request_times_out_cleanly() {
        let f = fusion();
        let p = PageId(3);
        // Node 1 holds X with *no* handler (models a busy holder that never
        // drains its refcount).
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();
        let err = f
            .acquire(NodeId(2), p, PLockMode::S, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, PmpError::LockWaitTimeout);
        assert_eq!(f.queue_len(p), 0, "timed-out request must leave the queue");
        assert_eq!(f.holders(p), vec![(NodeId(1), PLockMode::X)]);
    }

    #[test]
    fn fifo_grant_order_across_nodes() {
        let f = fusion();
        let p = PageId(4);
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for node in [2u16, 3, 4] {
            let f = Arc::clone(&f);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                f.acquire(NodeId(node), p, PLockMode::X, T).unwrap();
                order.lock().push(node);
                f.release(NodeId(node), p);
            }));
            // Stagger arrivals so queue order is deterministic.
            thread::sleep(Duration::from_millis(30));
        }
        f.release(NodeId(1), p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 3, 4], "grants must be FIFO");
    }

    #[test]
    fn consecutive_shared_requests_granted_together() {
        let f = fusion();
        let p = PageId(5);
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();

        let granted = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for node in [2u16, 3] {
            let f = Arc::clone(&f);
            let granted = Arc::clone(&granted);
            handles.push(thread::spawn(move || {
                f.acquire(NodeId(node), p, PLockMode::S, T).unwrap();
                granted.fetch_add(1, Ordering::SeqCst);
            }));
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(granted.load(Ordering::SeqCst), 0);
        f.release(NodeId(1), p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(granted.load(Ordering::SeqCst), 2);
        assert_eq!(f.holders(p).len(), 2);
    }

    #[test]
    fn no_barging_past_a_waiting_x() {
        let f = fusion();
        let p = PageId(6);
        f.acquire(NodeId(1), p, PLockMode::S, T).unwrap();

        // Node 2 queues an X behind node 1's S (no handler → stays queued).
        let f2 = Arc::clone(&f);
        let x_waiter = thread::spawn(move || f2.acquire(NodeId(2), p, PLockMode::X, T));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(f.queue_len(p), 1);

        // Node 3's S must queue behind the X, not barge in with node 1.
        let f3 = Arc::clone(&f);
        let s_waiter = thread::spawn(move || {
            f3.acquire(NodeId(3), p, PLockMode::S, T).unwrap();
            f3.release(NodeId(3), p);
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(f.holders(p).len(), 1, "node 3 must not be granted yet");

        f.release(NodeId(1), p);
        x_waiter.join().unwrap().unwrap();
        f.release(NodeId(2), p);
        s_waiter.join().unwrap();
    }

    #[test]
    fn release_all_frees_frozen_locks() {
        let f = fusion();
        f.acquire(NodeId(1), PageId(10), PLockMode::X, T).unwrap();
        f.acquire(NodeId(1), PageId(11), PLockMode::S, T).unwrap();
        f.acquire(NodeId(2), PageId(11), PLockMode::S, T).unwrap();

        let f2 = Arc::clone(&f);
        let waiter = thread::spawn(move || f2.acquire(NodeId(2), PageId(10), PLockMode::X, T));
        thread::sleep(Duration::from_millis(30));

        let mut released = f.release_all(NodeId(1));
        released.sort();
        assert_eq!(released, vec![PageId(10), PageId(11)]);
        waiter.join().unwrap().unwrap();
        assert_eq!(f.holders(PageId(10)), vec![(NodeId(2), PLockMode::X)]);
        assert_eq!(f.holders(PageId(11)), vec![(NodeId(2), PLockMode::S)]);
    }

    /// Regression: `negotiate` used to hold the requesters read lock while
    /// charging the nudge message and running the handler — a
    /// latency-under-lock violation, and a re-entrancy hazard for handlers
    /// that call back into the fusion. The nudge must run lock-free.
    #[test]
    fn negotiation_handlers_run_without_fusion_locks_held() {
        struct Probe {
            nudges: AtomicUsize,
            max_held: AtomicUsize,
        }
        impl ReleaseRequester for Probe {
            fn request_release(&self, _page: PageId, _wanted: PLockMode) {
                self.nudges.fetch_add(1, Ordering::Relaxed);
                self.max_held
                    .fetch_max(pmp_common::sync::held_tracked_locks(), Ordering::Relaxed);
            }
        }

        let f = fusion();
        let p = PageId(13);
        let probe = Arc::new(Probe {
            nudges: AtomicUsize::new(0),
            max_held: AtomicUsize::new(0),
        });
        f.register_node(NodeId(1), Arc::clone(&probe));
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();

        // The probe never releases, so node 2 times out — but the nudge fires.
        let err = f
            .acquire(NodeId(2), p, PLockMode::X, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, PmpError::LockWaitTimeout);
        assert_eq!(probe.nudges.load(Ordering::Relaxed), 1);
        assert_eq!(
            probe.max_held.load(Ordering::Relaxed),
            0,
            "release nudges must not run under any tracked fusion lock"
        );
    }

    #[test]
    fn request_grants_now_or_returns_the_pending_grant() {
        let f = fusion();
        let p = PageId(14);
        assert!(f.request(NodeId(1), p, PLockMode::X).is_none());
        assert_eq!(f.stats().immediate_grants.get(), 1);

        // No handler for node 1: the request stays queued until a release.
        let pending = f.request(NodeId(2), p, PLockMode::X).expect("conflict");
        assert!(!pending.is_granted());
        assert_eq!(f.queue_len(p), 1);

        f.release(NodeId(1), p);
        assert!(pending.is_granted(), "the release grants the queue head");
        assert_eq!(f.queue_len(p), 0, "a granted request has left the queue");
        assert_eq!(f.cancel(&pending), Cancel::AlreadyGranted);
        assert_eq!(f.stats().timeouts.get(), 0, "nothing was withdrawn");
        assert_eq!(f.holders(p), vec![(NodeId(2), PLockMode::X)]);
    }

    #[test]
    fn request_is_granted_inside_the_negotiation_by_an_idle_holder() {
        let f = fusion();
        let p = PageId(15);
        let h1 = instant(&f, NodeId(1));
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();

        let pending = f.request(NodeId(2), p, PLockMode::X).expect("conflict");
        assert_eq!(h1.nudges.load(Ordering::Relaxed), 1);
        assert!(pending.is_granted(), "node 1 released on the nudge");
        assert!(pending.poll(Box::new(|| panic!("no waker is kept once granted"))));
        assert_eq!(f.holders(p), vec![(NodeId(2), PLockMode::X)]);
    }

    #[test]
    fn cancel_leaves_the_queue_and_regrants_behind_it() {
        let f = fusion();
        let p = PageId(16);
        f.acquire(NodeId(1), p, PLockMode::S, T).unwrap();
        // X queues behind node 1's S; node 3's S queues behind the X.
        let x = f.request(NodeId(2), p, PLockMode::X).expect("conflict");
        let s = f.request(NodeId(3), p, PLockMode::S).expect("no barging");
        assert_eq!(f.queue_len(p), 2);
        let woken = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&woken);
        assert!(!s.poll(Box::new(move || {
            w.fetch_add(1, Ordering::SeqCst);
        })));

        assert_eq!(f.cancel(&x), Cancel::Cancelled);
        assert_eq!(f.stats().timeouts.get(), 1);
        assert_eq!(f.queue_len(p), 0, "the withdrawn X no longer blocks the S");
        assert!(s.is_granted());
        assert_eq!(woken.load(Ordering::SeqCst), 1, "the grant fired the waker");
        assert_eq!(f.holders(p).len(), 2);
        assert_eq!(
            f.cancel(&x),
            Cancel::Cancelled,
            "a request that is in no queue and was never granted stays withdrawn"
        );
        assert_eq!(f.stats().timeouts.get(), 1, "and is counted once");
    }

    /// Grant versus withdrawal is decided once, under the shard lock: a
    /// request is either a holder or gone, never both and never neither.
    #[test]
    fn cancel_racing_the_release_is_a_grant_or_a_withdrawal_never_both() {
        for round in 0..200u64 {
            let f = fusion();
            let p = PageId(100 + round);
            f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();
            let pending = f.request(NodeId(2), p, PLockMode::X).expect("conflict");
            let f2 = Arc::clone(&f);
            let releaser = thread::spawn(move || f2.release(NodeId(1), p));
            let outcome = f.cancel(&pending);
            releaser.join().unwrap();
            let holds = f.holders(p) == vec![(NodeId(2), PLockMode::X)];
            assert_eq!(outcome == Cancel::AlreadyGranted, holds, "round {round}");
            assert_eq!(pending.is_granted(), holds);
            assert_eq!(f.queue_len(p), 0);
        }
    }

    #[test]
    fn every_request_is_counted_once() {
        let f = fusion();
        let (p, q) = (PageId(17), PageId(18));
        let _h = instant(&f, NodeId(1));
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap(); // immediate
        f.acquire(NodeId(2), p, PLockMode::X, T).unwrap(); // queued, granted in the nudge
        f.acquire(NodeId(3), q, PLockMode::X, T).unwrap(); // immediate
        let f2 = Arc::clone(&f);
        let waiter = thread::spawn(move || f2.acquire(NodeId(2), q, PLockMode::S, T));
        while f.queue_len(q) == 0 {
            thread::yield_now();
        }
        f.release(NodeId(3), q); // queued, granted by the release
        waiter.join().unwrap().unwrap();
        let err = f.acquire(NodeId(3), p, PLockMode::S, Duration::from_millis(20));
        assert_eq!(err, Err(PmpError::LockWaitTimeout)); // queued, withdrawn

        let st = f.stats();
        assert_eq!(st.acquires.get(), 5);
        assert_eq!(st.immediate_grants.get(), 2);
        assert_eq!(st.queued_grants.get(), 2, "one per queued grant");
        assert_eq!(st.timeouts.get(), 1);
    }

    #[test]
    fn release_all_forgets_the_nodes_queued_requests() {
        let f = fusion();
        let p = PageId(19);
        f.acquire(NodeId(1), p, PLockMode::S, T).unwrap();
        // Node 2's X queues behind the S; node 3's S may not barge past it.
        let dead = f.request(NodeId(2), p, PLockMode::X).expect("conflict");
        let behind = f.request(NodeId(3), p, PLockMode::S).expect("no barging");
        assert_eq!(f.queue_len(p), 2);

        assert!(f.release_all(NodeId(2)).is_empty(), "node 2 held nothing");
        assert_eq!(f.queue_len(p), 0, "the crashed node's request is gone");
        assert!(behind.is_granted(), "what it was blocking is granted");
        assert!(!dead.is_granted());
        assert_eq!(f.holders(p).len(), 2);
        // The dead node's own withdrawal, if it ever comes, finds nothing.
        assert_eq!(f.cancel(&dead), Cancel::Cancelled);
        assert_eq!(f.holders(p).len(), 2);
        let st = f.stats();
        assert_eq!(
            st.immediate_grants.get() + st.queued_grants.get() + st.timeouts.get(),
            st.acquires.get()
        );
        assert_eq!(st.timeouts.get(), 1);
    }

    #[test]
    fn sole_holder_upgrade_succeeds() {
        let f = fusion();
        let p = PageId(12);
        f.acquire(NodeId(1), p, PLockMode::S, T).unwrap();
        f.acquire(NodeId(1), p, PLockMode::X, T).unwrap();
        assert_eq!(f.holders(p), vec![(NodeId(1), PLockMode::X)]);
    }
}
