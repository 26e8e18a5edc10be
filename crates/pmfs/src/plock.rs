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
use std::time::Duration;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex, TrackedRwLock};
use pmp_common::{Counter, NodeId, PageId, PmpError, Result};
use pmp_repl::ReplicatedFabric;

/// Lock-table shard maps. Ordered before `pmfs.plock.grant_cell` (FIFO
/// grants signal cells under the shard lock).
const PLOCK_SHARD: LockClass = LockClass::new("pmfs.plock.shard");
/// Per-waiting-request grant cells.
const GRANT_CELL: LockClass = LockClass::new("pmfs.plock.grant_cell");
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

#[derive(Debug)]
enum GrantState {
    Waiting,
    Granted,
    Abandoned,
}

#[derive(Debug)]
struct GrantCell {
    state: TrackedMutex<GrantState>,
    cv: TrackedCondvar,
}

impl GrantCell {
    fn new() -> Arc<Self> {
        Arc::new(GrantCell {
            state: TrackedMutex::new(GRANT_CELL, GrantState::Waiting),
            cv: TrackedCondvar::new(),
        })
    }

    fn grant(&self) {
        *self.state.lock() = GrantState::Granted;
        self.cv.notify_all();
    }

    /// Wait until granted or `timeout`. Returns true when granted.
    fn wait(&self, timeout: Duration) -> bool {
        let mut st = self.state.lock();
        loop {
            match *st {
                GrantState::Granted => return true,
                GrantState::Abandoned => return false,
                GrantState::Waiting => {}
            }
            if self.cv.wait_for(&mut st, timeout).timed_out() {
                // Lost the race check: a grant may have slipped in.
                if matches!(*st, GrantState::Granted) {
                    return true;
                }
                *st = GrantState::Abandoned;
                return false;
            }
        }
    }
}

#[derive(Debug)]
struct WaitingReq {
    node: NodeId,
    mode: PLockMode,
    cell: Arc<GrantCell>,
}

/// A request [`PLockFusion::request`] left in the FIFO queue: the handle
/// [`PLockFusion::wait_grant`] blocks on.
#[derive(Debug)]
pub struct PendingGrant {
    node: NodeId,
    page: PageId,
    cell: Arc<GrantCell>,
}

impl PendingGrant {
    /// Whether the grant has landed, i.e. `wait_grant` would not block.
    pub fn is_granted(&self) -> bool {
        matches!(*self.cell.state.lock(), GrantState::Granted)
    }
}

#[derive(Debug, Default)]
struct PLockState {
    /// Current holders. Invariant: either any number of distinct S holders,
    /// or exactly one X holder.
    holders: Vec<(NodeId, PLockMode)>,
    queue: VecDeque<WaitingReq>,
}

impl PLockState {
    fn holder_mode(&self, node: NodeId) -> Option<PLockMode> {
        self.holders
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, m)| *m)
    }

    /// Can `node` be granted `mode` given current holders (ignoring queue)?
    fn grantable(&self, node: NodeId, mode: PLockMode) -> bool {
        self.holders
            .iter()
            .all(|(n, m)| *n == node || m.compatible(mode))
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
    pub acquires: Counter,
    pub immediate_grants: Counter,
    pub queued_grants: Counter,
    pub negotiations: Counter,
    pub releases: Counter,
    pub timeouts: Counter,
}

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
    pub fn register_node(&self, node: NodeId, handler: Arc<dyn ReleaseRequester>) {
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

    /// Acquire `mode` on `page` for `node`, blocking up to `timeout`:
    /// [`request`](Self::request), then [`wait_grant`](Self::wait_grant) if
    /// the grant is still outstanding.
    ///
    /// The node-side cache guarantees at most one in-flight fusion request
    /// per (node, page), and that a node only re-requests a lock it still
    /// holds when a negotiation forbade local re-granting — in which case
    /// FIFO queueing provides the fairness the paper requires.
    pub fn acquire(
        &self,
        node: NodeId,
        page: PageId,
        mode: PLockMode,
        timeout: Duration,
    ) -> Result<()> {
        match self.request(node, page, mode) {
            None => Ok(()),
            Some(pending) => self.wait_grant(pending, timeout),
        }
    }

    /// Ask for `mode` on `page`: the RDMA RPC (charged here), then either
    /// an immediate grant (`None`) or a FIFO queue entry plus negotiation
    /// messages to the conflicting holders. Bounded — it never waits for a
    /// peer to drain. The returned [`PendingGrant`] may already be granted
    /// (an idle holder hands the lock back inside the negotiation); either
    /// way it must be passed to [`wait_grant`](Self::wait_grant), which is
    /// what removes the queue entry if the grant never comes.
    #[must_use = "a pending grant left unwaited leaks its FIFO queue entry"]
    pub fn request(&self, node: NodeId, page: PageId, mode: PLockMode) -> Option<PendingGrant> {
        self.stats.acquires.inc();
        self.repl.rpc(32, || ());
        // The grant/queue mutation below lands on every PMFS backup.
        self.repl.replicate_mutation(32);

        let (cell, conflicting) = {
            let mut shard = self.shard(page).lock();
            let state = shard.entry(page).or_default();

            // Already holding a covering lock (e.g. re-request after a
            // negotiation that was resolved before we got here).
            if let Some(held) = state.holder_mode(node) {
                if held.covers(mode) && state.queue.is_empty() {
                    self.stats.immediate_grants.inc();
                    return None;
                }
            }

            if state.queue.is_empty() && state.grantable(node, mode) {
                state.add_holder(node, mode);
                self.stats.immediate_grants.inc();
                return None;
            }

            // Conflict: enqueue FIFO and remember whom to negotiate with.
            let cell = GrantCell::new();
            state.queue.push_back(WaitingReq {
                node,
                mode,
                cell: Arc::clone(&cell),
            });
            let conflicting: Vec<NodeId> = state
                .holders
                .iter()
                .filter(|(n, m)| *n != node && !m.compatible(mode))
                .map(|(n, _)| *n)
                .collect();
            (cell, conflicting)
        };

        // Send negotiation messages outside the shard lock: the handler may
        // release immediately, which re-enters this fusion.
        self.negotiate(page, mode, &conflicting);
        Some(PendingGrant { node, page, cell })
    }

    /// Block until `pending` is granted or `timeout` passes; on timeout the
    /// request leaves the FIFO queue and whatever it was blocking is
    /// granted. Returns at once when the grant already landed.
    pub fn wait_grant(&self, pending: PendingGrant, timeout: Duration) -> Result<()> {
        let PendingGrant { node, page, cell } = pending;
        if cell.wait(timeout) {
            self.stats.queued_grants.inc();
            return Ok(());
        }

        // Timed out: remove our queue entry if it is still there.
        self.stats.timeouts.inc();
        let mut shard = self.shard(page).lock();
        if let Some(state) = shard.get_mut(&page) {
            state
                .queue
                .retain(|req| !(req.node == node && Arc::ptr_eq(&req.cell, &cell)));
            // Our abandoned slot may have been blocking grantable requests.
            Self::grant_from_queue(&self.stats, state);
            if state.holders.is_empty() && state.queue.is_empty() {
                shard.remove(&page);
            }
        }
        Err(PmpError::LockWaitTimeout)
    }

    fn negotiate(&self, page: PageId, wanted: PLockMode, holders: &[NodeId]) {
        if holders.is_empty() {
            return;
        }
        // Snapshot the handlers and drop the directory lock before
        // messaging: the nudge charges fabric latency, and the handler may
        // re-enter this fusion (an instant release takes a shard lock) —
        // neither may happen under the requesters lock.
        let handlers: Vec<Arc<dyn ReleaseRequester>> = {
            let requesters = self.requesters.read();
            holders
                .iter()
                .filter_map(|n| requesters.get(n).cloned())
                .collect()
        };
        // Fusion → node nudges: one-way messages, no reply needed. All of
        // them post through one doorbell batch (one charged round trip),
        // then the handlers run with the charge already paid.
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
        let pending = {
            let mut shard = self.shard(page).lock();
            let Some(state) = shard.get_mut(&page) else {
                return;
            };
            state.holders.retain(|(n, _)| *n != node);
            Self::grant_from_queue(&self.stats, state);
            let pending = Self::pending_negotiations(state);
            if state.holders.is_empty() && state.queue.is_empty() {
                shard.remove(&page);
            }
            pending
        };
        if let Some((wanted, holders)) = pending {
            self.negotiate(page, wanted, &holders);
        }
    }

    /// Release every lock `node` holds (post-recovery, or decommission).
    /// Returns the pages that were released.
    pub fn release_all(&self, node: NodeId) -> Vec<PageId> {
        let mut released = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let pages: Vec<PageId> = shard
                .iter()
                .filter(|(_, st)| st.holder_mode(node).is_some())
                .map(|(p, _)| *p)
                .collect();
            for page in pages {
                let state = shard.get_mut(&page).expect("listed above");
                state.holders.retain(|(n, _)| *n != node);
                Self::grant_from_queue(&self.stats, state);
                if state.holders.is_empty() && state.queue.is_empty() {
                    shard.remove(&page);
                }
                released.push(page);
            }
        }
        released
    }

    /// Pop every queue-head request that is compatible with the current
    /// holders, FIFO. Consecutive S requests are granted together.
    fn grant_from_queue(stats: &PLockStats, state: &mut PLockState) {
        while let Some(head) = state.queue.front() {
            if !state.grantable(head.node, head.mode) {
                break;
            }
            let req = state.queue.pop_front().expect("front exists");
            state.add_holder(req.node, req.mode);
            stats.queued_grants.inc();
            req.cell.grant();
        }
    }

    /// If the queue is still blocked, the remaining holders need (another)
    /// negotiation nudge — e.g. S holders blocking an X request that arrived
    /// while an unrelated holder was releasing.
    fn pending_negotiations(state: &PLockState) -> Option<(PLockMode, Vec<NodeId>)> {
        let head = state.queue.front()?;
        let conflicting: Vec<NodeId> = state
            .holders
            .iter()
            .filter(|(n, m)| *n != head.node && !m.compatible(head.mode))
            .map(|(n, _)| *n)
            .collect();
        if conflicting.is_empty() {
            None
        } else {
            Some((head.mode, conflicting))
        }
    }

    /// Test/diagnostic: current holders of a page.
    pub fn holders(&self, page: PageId) -> Vec<(NodeId, PLockMode)> {
        self.shard(page)
            .lock()
            .get(&page)
            .map(|s| s.holders.clone())
            .unwrap_or_default()
    }

    pub fn queue_len(&self, page: PageId) -> usize {
        self.shard(page)
            .lock()
            .get(&page)
            .map(|s| s.queue.len())
            .unwrap_or(0)
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
        fusion.register_node(node, Arc::clone(&h) as Arc<dyn ReleaseRequester>);
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
        f.register_node(NodeId(1), Arc::clone(&probe) as Arc<dyn ReleaseRequester>);
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
        f.wait_grant(pending, Duration::ZERO)
            .expect("an already-granted request does not wait");
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
        f.wait_grant(pending, Duration::ZERO).unwrap();
        assert_eq!(f.holders(p), vec![(NodeId(2), PLockMode::X)]);
    }

    #[test]
    fn wait_grant_timeout_leaves_the_queue_and_regrants_behind_it() {
        let f = fusion();
        let p = PageId(16);
        f.acquire(NodeId(1), p, PLockMode::S, T).unwrap();
        // X queues behind node 1's S; node 3's S queues behind the X.
        let x = f.request(NodeId(2), p, PLockMode::X).expect("conflict");
        let s = f.request(NodeId(3), p, PLockMode::S).expect("no barging");
        assert_eq!(f.queue_len(p), 2);

        let err = f.wait_grant(x, Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, PmpError::LockWaitTimeout);
        assert_eq!(f.stats().timeouts.get(), 1);
        assert_eq!(f.queue_len(p), 0, "the abandoned X no longer blocks the S");
        assert!(s.is_granted());
        f.wait_grant(s, Duration::ZERO).unwrap();
        assert_eq!(f.holders(p).len(), 2);
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
