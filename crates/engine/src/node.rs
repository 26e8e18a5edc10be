//! The assembled node engine: page access through PLock + LBP + Buffer
//! Fusion, transaction bookkeeping, background threads, crash and restart.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pmp_common::sync::{sched_point, LockClass, Shutdown, TrackedMutex, TrackedRwLock};
use pmp_common::{
    Counter, Cts, EngineConfig, Gauge, GlobalTrxId, LatencyHistogram, Lsn, NodeId, PageId,
    PmpError, Result, SlotId, TrxId, CSN_MAX,
};

/// Active-transaction table (begin/finish/visibility fast path).
const NODE_ACTIVE: LockClass = LockClass::new("engine.node.active");
/// Committed transactions awaiting TIT-slot recycling.
const NODE_FINISHED: LockClass = LockClass::new("engine.node.finished");
/// Root-page leaf/internal hints.
const NODE_ROOT_HINTS: LockClass = LockClass::new("engine.node.root_hints");
/// Background-thread join handles (lifecycle only).
const NODE_BG: LockClass = LockClass::new("engine.node.bg");
use pmp_io::{CompletionToken, Cqe, CqePayload, IoRing, SqeOp};
use pmp_pmfs::{PLockMode, PageSource, TitRegion};
use pmp_rdma::Locality;

use crate::cts_cache::{CtsCache, MinActiveTable};
use crate::lbp::{Frame, Lbp, LoadTicket, Lookup};
use crate::page::Page;
use crate::plock_local::{LocalPLocks, PLockGuard, ReleaseHook};
use crate::scheduler::{self, Waiter};
use crate::shared::Shared;
use crate::tso_client::TsoClient;
use crate::txn::Txn;
use crate::undo::UndoPtr;
use crate::version_store::VersionStore;
use crate::wal::Wal;

/// Total bound of the node's commit-timestamp cache (split evenly across
/// the cache's segments; an overflow evicts one segment, not the whole
/// cache).
const CTS_CACHE_CAPACITY: usize = 65_536;

/// Maximum number of rows in a leaf page before it splits. Small pages make
/// page-level contention observable at laptop scale.
pub(crate) const LEAF_CAPACITY: usize = 64;

/// Maximum number of separators in an internal page before it splits.
const INTERNAL_CAPACITY: usize = 64;

/// Interval of the background min-view / TIT-recycle thread.
const MIN_VIEW_INTERVAL: Duration = Duration::from_millis(20);

/// Node-level meters surfaced to the benchmark harness.
#[derive(Debug, Default)]
pub struct NodeStats {
    pub commits: Counter,
    pub rollbacks: Counter,
    pub deadlock_aborts: Counter,
    pub reads: Counter,
    pub writes: Counter,
    pub lock_waits: Counter,
    /// Transactions currently open on this node (begin → finish). The
    /// gauge's high-water mark is the open-transaction ceiling the async
    /// scheduler is measured against.
    pub open_txns: Gauge,
    pub pages_loaded_storage: Counter,
    pub pages_loaded_dbp: Counter,
    pub prefetch_submitted: Counter,
    /// Per-stage commit latency (wall clock): CTS allocation, WAL group
    /// commit, TIT publish + ref collection, row CTS backfill.
    pub commit_cts_ns: LatencyHistogram,
    pub commit_wal_force_ns: LatencyHistogram,
    pub commit_tit_ns: LatencyHistogram,
    pub commit_backfill_ns: LatencyHistogram,
}

/// One live transaction's bookkeeping entry.
pub(crate) struct ActiveTrx {
    /// Current statement snapshot (shared with the `Txn`, updated per
    /// statement under read committed).
    pub snapshot: Arc<AtomicU64>,
}

/// A committed transaction whose TIT slot awaits recycling (§4.1).
struct FinishedTrx {
    slot: SlotId,
    cts: Cts,
    undo: Vec<UndoPtr>,
}

/// A primary node of the PolarDB-MP cluster.
pub struct NodeEngine {
    pub node: NodeId,
    pub shared: Arc<Shared>,
    pub cfg: EngineConfig,
    pub lbp: Lbp,
    /// Async storage submission/completion ring: every shared-storage read
    /// on the page-miss path goes through it, so the charged storage
    /// latency elapses off-thread with no LBP shard lock held.
    pub io: IoRing<Page>,
    pub plocks: Arc<LocalPLocks>,
    pub wal: Wal,
    pub tit: Arc<TitRegion>,
    pub tso: TsoClient,
    /// Per-node async transaction scheduler: parked statements release
    /// their worker thread on page-load / PLock / row-lock / commit waits
    /// and are re-queued on wake (DESIGN.md §13).
    pub sched: Arc<crate::scheduler::Scheduler>,
    pub stats: NodeStats,
    next_trx: AtomicU64,
    active: TrackedMutex<HashMap<TrxId, ActiveTrx>>,
    finished: TrackedMutex<Vec<FinishedTrx>>,
    /// Cached peers' published min-active transaction ids (§4.3.2): a flat
    /// atomic array, so the liveness fast path is one atomic load.
    min_active_cache: MinActiveTable,
    /// Resolved commit timestamps of *finished* transactions (sharded,
    /// bounded per segment — see [`CtsCache`] for why terminal answers are
    /// safely cacheable and why eviction is segment-local).
    cts_cache: CtsCache,
    /// Node-local MVCC version store: bounded chains of committed row
    /// images that let snapshot readers resolve without undo walks or
    /// TIT/CTS fabric lookups (DESIGN.md §12).
    pub version_store: VersionStore,
    /// Root page hints: is this root currently a leaf? Lets writers acquire
    /// the X PLock directly instead of S-then-upgrade.
    root_hints: TrackedRwLock<HashMap<PageId, bool>>,
    /// The DBP loss epoch this node's checkpoints rely on: read when the
    /// engine starts and at every storage checkpoint, it tags each
    /// scan-start hint. If the DBP has been lost since — some push made
    /// under this epoch may have vanished — the tag no longer matches and
    /// recovery ignores the hint.
    dbp_epoch: AtomicU64,
    alive: AtomicBool,
    /// Set while a graceful decommission drains: new transactions are
    /// refused, in-flight ones may finish.
    draining: AtomicBool,
    /// Stops the background threads; triggering wakes them mid-interval,
    /// so shutdown never waits out a full tick.
    shutdown: Arc<Shutdown>,
    bg: TrackedMutex<Vec<JoinHandle<()>>>,
    /// Weak self-pointer for io-ring continuations (set once in `build`,
    /// same pattern as the PLock flush hook): a completion that outlives
    /// the engine simply finds the weak dead and gives up.
    self_ref: std::sync::OnceLock<std::sync::Weak<NodeEngine>>,
}

impl std::fmt::Debug for NodeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeEngine")
            .field("node", &self.node)
            .field("alive", &self.alive.load(Ordering::Relaxed)) // lint: allow(relaxed-atomic): Debug snapshot only
            .finish_non_exhaustive()
    }
}

struct FlushHook {
    engine: std::sync::Weak<NodeEngine>,
}

impl ReleaseHook for FlushHook {
    fn before_release(&self, page: PageId) {
        if let Some(engine) = self.engine.upgrade() {
            if let Some(frame) = engine.lbp.peek(page) {
                if frame.is_dirty() {
                    engine.flush_frame(page, &frame);
                }
            }
        }
    }
}

impl NodeEngine {
    /// Start a node: register its TIT region and negotiation handler with
    /// PMFS, spawn the background min-view/recycler and flusher threads.
    pub fn start(shared: Arc<Shared>, node: NodeId) -> Arc<NodeEngine> {
        let engine = Self::build(shared, node);
        engine
            .shared
            .pmfs
            .txn
            .register_region(Arc::clone(&engine.tit));
        engine.spawn_background();
        engine
    }

    /// Build a node for crash recovery: the *old* TIT region (if any) stays
    /// registered so in-doubt transactions keep reading as active until
    /// their rollback completes; background threads stay parked. The
    /// recovery driver calls [`complete_recovery`](Self::complete_recovery)
    /// when done.
    pub fn start_for_recovery(shared: Arc<Shared>, node: NodeId) -> Arc<NodeEngine> {
        Self::build(shared, node)
    }

    /// Finish recovery: swap in the fresh TIT region (stale references to
    /// pre-crash transactions now resolve as "slot reused ⇒ visible", which
    /// is correct because every uncommitted change has been rolled back),
    /// thaw the fusion-side PLocks frozen by the crash, and start the
    /// background threads.
    pub fn complete_recovery(self: &Arc<Self>) {
        self.shared.pmfs.txn.register_region(Arc::clone(&self.tit));
        self.shared.pmfs.plock.release_all(self.node);
        // Drop locks recovery itself accumulated via lazy retention.
        self.plocks.crash_clear();
        self.shared.pmfs.plock.release_all(self.node);
        self.spawn_background();
    }

    fn build(shared: Arc<Shared>, node: NodeId) -> Arc<NodeEngine> {
        let cfg = shared.config.engine;
        let tit = Arc::new(TitRegion::new(
            Arc::clone(&shared.repl),
            node,
            cfg.tit_slots,
        ));

        let plocks = LocalPLocks::new(
            node,
            Arc::clone(&shared.pmfs.plock),
            cfg.lazy_plock_release,
            Duration::from_millis(cfg.lock_wait_timeout_ms),
        );
        shared.pmfs.plock.register_node(node, Arc::clone(&plocks));

        let wal = Wal::new_with_compression(
            shared.storage.redo_stream(node),
            cfg.wal_group_window_us,
            shared.config.compression,
        );
        let tso = TsoClient::new(
            Arc::clone(&shared.pmfs.txn),
            cfg.linear_lamport,
            cfg.cts_lease_max,
        );

        let engine = Arc::new(NodeEngine {
            node,
            cfg,
            lbp: Lbp::new(cfg.lbp_capacity),
            io: IoRing::new(Arc::clone(&shared.storage), cfg.io),
            plocks: Arc::clone(&plocks),
            wal,
            tit,
            tso,
            sched: Arc::new(crate::scheduler::Scheduler::new(cfg.sched_workers)),
            stats: NodeStats::default(),
            next_trx: AtomicU64::new(1),
            active: TrackedMutex::new(NODE_ACTIVE, HashMap::new()),
            finished: TrackedMutex::new(NODE_FINISHED, Vec::new()),
            min_active_cache: MinActiveTable::new(shared.config.nodes.max(64)),
            cts_cache: CtsCache::new(CTS_CACHE_CAPACITY),
            version_store: VersionStore::new(cfg.version_store_bytes),
            root_hints: TrackedRwLock::new(NODE_ROOT_HINTS, HashMap::new()),
            dbp_epoch: AtomicU64::new(shared.pmfs.buffer.loss_epoch()),
            alive: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            shutdown: Arc::new(Shutdown::new()),
            bg: TrackedMutex::new(NODE_BG, Vec::new()),
            self_ref: std::sync::OnceLock::new(),
            shared,
        });

        let _ = engine.self_ref.set(Arc::downgrade(&engine));
        plocks.set_hook(Arc::new(FlushHook {
            engine: Arc::downgrade(&engine),
        }));
        engine
    }

    fn spawn_background(self: &Arc<Self>) {
        let mut bg = self.bg.lock();
        {
            let engine = Arc::clone(self);
            let shutdown = Arc::clone(&self.shutdown);
            bg.push(std::thread::spawn(move || {
                while !shutdown.is_triggered() {
                    engine.min_view_tick();
                    if shutdown.sleep_until_triggered(MIN_VIEW_INTERVAL) {
                        break;
                    }
                }
            }));
        }
        {
            let engine = Arc::clone(self);
            let shutdown = Arc::clone(&self.shutdown);
            let interval = Duration::from_millis(self.cfg.flush_interval_ms);
            bg.push(std::thread::spawn(move || {
                while !shutdown.is_triggered() {
                    engine.flush_tick();
                    if shutdown.sleep_until_triggered(interval) {
                        break;
                    }
                }
            }));
        }
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn check_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(PmpError::NodeUnavailable { node: self.node })
        }
    }

    // ---- page access -----------------------------------------------------

    /// Acquire a PLock on `page` (node-level, lazy release).
    pub fn plock(&self, page: PageId, mode: PLockMode) -> Result<PLockGuard<'_>> {
        self.check_alive()?;
        self.plocks.acquire(page, mode)
    }

    /// Get the page's frame, loading/refreshing through Buffer Fusion and
    /// shared storage as needed. Caller must hold a PLock on the page.
    pub fn frame(&self, page_id: PageId) -> Result<Arc<Frame>> {
        match self.lbp.lookup(page_id) {
            Lookup::Hit(frame) => {
                if !frame.is_valid() {
                    self.refresh_frame(page_id, &frame)?;
                }
                Ok(frame)
            }
            Lookup::MustLoad(ticket) => self.start_load(page_id, ticket),
        }
    }

    /// Load a page we have no frame for: DBP RPC first, then shared
    /// storage through the io ring + DBP registration (§4.2 "page
    /// access"). The appointed loader submits an SQE whose continuation
    /// installs the frame and wakes it, and suspends *without* holding the
    /// LBP shard lock — a task parks, a thread blocks — so an LBP shard
    /// sustains as many in-flight storage loads as the ring allows.
    fn start_load(&self, page_id: PageId, ticket: LoadTicket) -> Result<Arc<Frame>> {
        let flag = Arc::new(AtomicBool::new(true));
        let buffer = &self.shared.pmfs.buffer;
        if let Some((page, llsn)) = buffer.lookup_or_register(self.node, page_id, Arc::clone(&flag))
        {
            self.stats.pages_loaded_dbp.inc();
            self.wal.observe_llsn(llsn);
            // No resident frame ⇒ no invalidation signal since eviction:
            // fence the page's chains along with adopting the DBP image.
            self.version_store.invalidate_page(page_id);
            return Ok(self.lbp.finish_load(page_id, ticket, (*page).clone(), flag));
        }
        let was_alive = self.is_alive();
        let waiter = Waiter::current();
        let waker = waiter.waker();
        let weak = self.self_ref();
        if let Err(e) = self.io.submit_with(
            SqeOp::ReadPage(page_id),
            page_id.0,
            Box::new(move |cqe| {
                match Self::complete_storage_load(&weak, page_id, ticket, flag, cqe) {
                    Ok(_) => waker.wake(),
                    Err(e) => waker.fail(e),
                }
            }),
        ) {
            self.lbp.abort_load(page_id, ticket);
            return Err(e);
        }
        waiter.suspend(None)?;
        // Start over, as a re-run statement does: the page is resident now —
        // unless the node crashed under the load and wiped the pool, and
        // then this thread must not go on to reload, modify and log it.
        if was_alive {
            self.check_alive()?;
        }
        self.frame(page_id)
    }

    /// Resolve a storage-read completion into the LBP sentinel the loader
    /// appointed. Runs on an io-ring worker (demand loads) or wherever the
    /// continuation fires (prefetch); every exit either installs the frame
    /// or aborts the sentinel, so a completion can never leak a `Loading`
    /// slot.
    fn complete_storage_load(
        weak: &std::sync::Weak<NodeEngine>,
        page_id: PageId,
        ticket: LoadTicket,
        flag: Arc<AtomicBool>,
        cqe: Cqe<Page>,
    ) -> Result<Arc<Frame>> {
        let Some(engine) = weak.upgrade() else {
            // Engine torn down mid-flight; nobody is waiting on the
            // sentinel either (the pool is gone with the engine).
            return Err(PmpError::aborted("node engine dropped during page load"));
        };
        match cqe.result {
            Ok(CqePayload::Page(Some(stored))) => {
                engine.stats.pages_loaded_storage.inc();
                // Same fence as the DBP-hit load path: the node had no
                // frame, so chains for this page have no validity signal.
                engine.version_store.invalidate_page(page_id);
                let (page, llsn) = engine.shared.pmfs.buffer.register_push(
                    engine.node,
                    page_id,
                    Arc::clone(&stored),
                    stored.llsn,
                    Arc::clone(&flag),
                    PageSource::Storage,
                );
                engine.wal.observe_llsn(llsn);
                Ok(engine
                    .lbp
                    .finish_load(page_id, ticket, (*page).clone(), flag))
            }
            Ok(CqePayload::Page(None)) => {
                engine.lbp.abort_load(page_id, ticket);
                Err(PmpError::internal(format!(
                    "{page_id} missing from shared storage"
                )))
            }
            Ok(CqePayload::Cancelled) => {
                engine.lbp.abort_load(page_id, ticket);
                Err(PmpError::NodeUnavailable { node: engine.node })
            }
            Ok(_) => {
                engine.lbp.abort_load(page_id, ticket);
                Err(PmpError::internal("unexpected payload for a page read"))
            }
            Err(e) => {
                engine.lbp.abort_load(page_id, ticket);
                Err(e)
            }
        }
    }

    fn self_ref(&self) -> std::sync::Weak<NodeEngine> {
        self.self_ref
            .get()
            .cloned()
            .unwrap_or_else(std::sync::Weak::new)
    }

    /// Speculatively start loading `page_id` in the background (B-tree
    /// sibling / sequential-scan prefetch). Returns the submission token if
    /// a storage read is actually in flight — the caller may
    /// [`cancel_prefetch`](Self::cancel_prefetch) it — and `None` when the
    /// page is already resident, already being loaded, satisfiable from the
    /// DBP without storage latency, or the node is down.
    pub fn prefetch(&self, page_id: PageId) -> Option<CompletionToken> {
        if page_id == PageId::NULL || !self.is_alive() {
            return None;
        }
        let ticket = self.lbp.try_appoint(page_id)?;
        let flag = Arc::new(AtomicBool::new(true));
        let buffer = &self.shared.pmfs.buffer;
        if let Some((page, llsn)) = buffer.lookup_or_register(self.node, page_id, Arc::clone(&flag))
        {
            self.stats.pages_loaded_dbp.inc();
            self.wal.observe_llsn(llsn);
            self.version_store.invalidate_page(page_id);
            self.lbp.finish_load(page_id, ticket, (*page).clone(), flag);
            return None;
        }
        let weak = self.self_ref();
        match self.io.submit_with(
            SqeOp::ReadPage(page_id),
            page_id.0,
            Box::new(move |cqe| {
                // A demand `frame()` racing this prefetch waits on the LBP
                // sentinel and is woken by finish_load/abort_load inside.
                let _ = Self::complete_storage_load(&weak, page_id, ticket, flag, cqe);
            }),
        ) {
            Ok(token) => {
                self.stats.prefetch_submitted.inc();
                Some(token)
            }
            Err(_) => {
                self.lbp.abort_load(page_id, ticket);
                None
            }
        }
    }

    /// Cancel a still-queued prefetch (scan abandoned before reaching the
    /// page). Returns whether the SQE was reaped from the queue; an entry
    /// already claimed by a worker completes normally, which is harmless.
    pub fn cancel_prefetch(&self, token: CompletionToken) -> bool {
        self.io.cancel(token)
    }

    /// Refresh an invalidated frame from the DBP (one-sided fast path,
    /// falling back to the RPC + storage path).
    fn refresh_frame(&self, page_id: PageId, frame: &Arc<Frame>) -> Result<()> {
        if frame.is_dirty() {
            // Dirty implies we hold the X PLock, so our copy IS the latest;
            // the invalidation must have come from a DBP failure wiping the
            // holder directory. Re-register our authoritative copy.
            let (snapshot, llsn) = {
                let page = frame.page.read();
                (page.clone(), page.llsn)
            };
            self.shared.pmfs.buffer.register_push(
                self.node,
                page_id,
                Arc::new(snapshot),
                llsn,
                Arc::clone(&frame.valid),
                PageSource::Memory,
            );
            frame.set_valid();
            return Ok(());
        }
        // A remote writer modified this page (its push cleared our valid
        // flag): fence the page's version chains before adopting the newer
        // image (DESIGN.md §12).
        self.version_store.invalidate_page(page_id);
        sched_point("dbp.refresh.fence-adopt");
        let buffer = &self.shared.pmfs.buffer;
        let (page, llsn) = match buffer.fetch(self.node, page_id) {
            Some(hit) => {
                self.stats.pages_loaded_dbp.inc();
                hit
            }
            None => match buffer.lookup_or_register(self.node, page_id, Arc::clone(&frame.valid)) {
                Some(hit) => {
                    self.stats.pages_loaded_dbp.inc();
                    hit
                }
                None => {
                    let stored = self.io.read_page(page_id)?.ok_or_else(|| {
                        PmpError::internal(format!("{page_id} missing from shared storage"))
                    })?;
                    self.stats.pages_loaded_storage.inc();
                    let (p, l) = buffer.register_push(
                        self.node,
                        page_id,
                        Arc::clone(&stored),
                        stored.llsn,
                        Arc::clone(&frame.valid),
                        PageSource::Storage,
                    );
                    (p, l)
                }
            },
        };
        self.wal.observe_llsn(llsn);
        {
            let mut guard = frame.page.write();
            if page.llsn >= guard.llsn {
                *guard = (*page).clone();
            }
        }
        frame.set_valid();
        Ok(())
    }

    /// Install a freshly created page (B-tree split) into the LBP and the
    /// DBP. Logs covering the page must already be durable (WAL rule).
    pub fn install_new_page(&self, page: Page) -> Arc<Frame> {
        let page_id = page.id;
        let flag = Arc::new(AtomicBool::new(true));
        self.shared.pmfs.buffer.register_push(
            self.node,
            page_id,
            Arc::new(page.clone()),
            page.llsn,
            Arc::clone(&flag),
            PageSource::Memory,
        );
        match self.lbp.lookup(page_id) {
            Lookup::MustLoad(ticket) => self.lbp.finish_load(page_id, ticket, page, flag),
            Lookup::Hit(frame) => frame, // should not happen for fresh ids
        }
    }

    /// Force logs covering the frame, push it to the DBP, clear dirty.
    /// Dirty implies this node holds the page's X PLock, so the push is
    /// race-free; stale pushes are rejected by the DBP's LLSN check.
    pub fn flush_frame(&self, page_id: PageId, frame: &Arc<Frame>) {
        let (snapshot, seen) = {
            let page = frame.page.read();
            let seen = frame.dirty_state();
            if !seen.dirty {
                return;
            }
            (Arc::new(page.clone()), seen)
        };
        // Flushes run from release hooks, guard drops and the background
        // flusher, none of which can unwind: the force waits as a thread.
        let forced =
            scheduler::with_parking_disabled(|| self.wal.force(seen.newest_lsn, &mut None));
        if !forced.is_ok_and(|lsn| lsn >= seen.newest_lsn) {
            // Crash truncated the log under the flush: the image is no
            // longer covered by durable redo, so pushing it to the DBP
            // would violate the WAL rule. The dead node's dirty state
            // dies with it; recovery rebuilds from what is durable.
            return;
        }
        let llsn = snapshot.llsn;
        self.shared
            .pmfs
            .buffer
            .push(self.node, page_id, snapshot, llsn);
        frame.clear_dirty_if_unchanged(seen);
    }

    pub fn is_full(&self, page: &Page) -> bool {
        if page.is_leaf() {
            page.entry_count() >= LEAF_CAPACITY
        } else {
            page.entry_count() >= INTERNAL_CAPACITY
        }
    }

    pub fn root_hint(&self, root: PageId) -> bool {
        *self.root_hints.read().get(&root).unwrap_or(&true)
    }

    pub fn set_root_hint(&self, root: PageId, is_leaf: bool) {
        let stale = { self.root_hints.read().get(&root) != Some(&is_leaf) };
        if stale {
            self.root_hints.write().insert(root, is_leaf);
        }
    }

    // ---- transaction bookkeeping ------------------------------------------

    /// Begin a transaction: allocate a local trx id and a TIT slot (§4.1).
    pub fn begin(self: &Arc<Self>) -> Result<Txn> {
        self.check_alive()?;
        if self.draining.load(Ordering::Acquire) {
            return Err(PmpError::NodeUnavailable { node: self.node });
        }
        // PMFS quorum gate: with too many replicas down every fusion verb
        // would read a potentially-stale minority — refuse new transactions
        // until an operator re-seats a replica (DESIGN.md §15).
        if !self.shared.repl.quorum_ok() {
            return Err(PmpError::FusionUnavailable {
                detail: format!(
                    "PMFS replica quorum lost ({}/{} alive, quorum {})",
                    self.shared.repl.alive_replicas(),
                    self.shared.repl.replicas(),
                    self.shared.repl.quorum(),
                ),
            });
        }
        // lint: allow(relaxed-atomic): monotonic transaction-id allocator
        let trx_id = TrxId(self.next_trx.fetch_add(1, Ordering::Relaxed));
        // Slot exhaustion: wait on the TIT free-list condvar (woken by every
        // release) instead of polling — a freed slot is picked up
        // immediately rather than after a fixed poll interval.
        let (slot, version) = self
            .tit
            .allocate_timeout(Duration::from_millis(self.cfg.lock_wait_timeout_ms))
            .ok_or_else(|| PmpError::internal("TIT slots exhausted"))?;
        let gid = GlobalTrxId {
            node: self.node,
            trx: trx_id,
            slot,
            version,
        };
        let snapshot = Arc::new(AtomicU64::new(self.tso.snapshot().0));
        self.active.lock().insert(
            trx_id,
            ActiveTrx {
                snapshot: Arc::clone(&snapshot),
            },
        );
        self.stats.open_txns.inc();
        Ok(Txn::new(Arc::clone(self), gid, snapshot))
    }

    /// A committed writer hands its slot to the recycler.
    pub(crate) fn finish_committed(&self, gid: GlobalTrxId, cts: Cts, undo: Vec<UndoPtr>) {
        self.active.lock().remove(&gid.trx);
        self.finished.lock().push(FinishedTrx {
            slot: gid.slot,
            cts,
            undo,
        });
        self.stats.open_txns.dec();
        self.stats.commits.inc();
    }

    /// A read-only transaction finishes: release the slot immediately.
    pub(crate) fn finish_readonly(&self, gid: GlobalTrxId) {
        self.active.lock().remove(&gid.trx);
        self.tit.release(gid.slot);
        self.stats.open_txns.dec();
        self.stats.commits.inc();
    }

    /// A rolled-back transaction: slot released (rows were restored first),
    /// undo purged right away.
    pub(crate) fn finish_aborted(&self, gid: GlobalTrxId, undo: &[UndoPtr]) {
        self.active.lock().remove(&gid.trx);
        self.tit.release(gid.slot);
        self.shared.undo.purge(undo);
        self.stats.open_txns.dec();
        self.stats.rollbacks.inc();
    }

    // ---- visibility helpers -----------------------------------------------

    /// Cache-only CTS lookup — no TIT traffic, no fabric verbs. Used by
    /// commit-time version publication, which must not add round trips to
    /// the commit path.
    pub(crate) fn cached_cts(&self, gid: GlobalTrxId) -> Option<Cts> {
        self.cts_cache.get(&gid)
    }

    /// Resolve a transaction's CTS (Algorithm 1, TIT half), caching
    /// terminal answers. Active transactions (`CSN_MAX`) are never cached.
    pub fn trx_cts(&self, gid: GlobalTrxId) -> Cts {
        if let Some(cts) = self.cts_cache.get(&gid) {
            return cts;
        }
        let cts = self.shared.pmfs.txn.trx_cts(self.node, gid);
        if cts != CSN_MAX {
            self.cts_cache.insert(gid, cts);
        }
        cts
    }

    /// Is the transaction still active (row-lock liveness check)?
    pub fn trx_is_active(&self, gid: GlobalTrxId) -> bool {
        if gid.node == self.node {
            // Local transactions: the active table is authoritative & free.
            return self.active.lock().contains_key(&gid.trx);
        }
        if gid.trx.0 < self.min_active_of(gid.node) {
            return false;
        }
        self.trx_cts(gid) == CSN_MAX
    }

    /// Cached published min-active transaction id of a peer (0 = unknown).
    pub fn min_active_of(&self, node: NodeId) -> u64 {
        if node == self.node {
            return 0; // local liveness goes through the active table
        }
        self.min_active_cache.get(node)
    }

    // ---- background work ---------------------------------------------------

    /// One pass of the min-view protocol (§4.1 "TIT recycle"): report our
    /// minimal view, recycle finished slots under the broadcast global
    /// minimum, publish our min-active trx id, refresh peer caches.
    pub fn min_view_tick(&self) {
        if !self.is_alive() {
            return;
        }
        let fusion = &self.shared.pmfs.txn;

        // Minimal view among active transactions, else current TSO.
        let local_min = {
            let active = self.active.lock();
            active
                .values()
                .map(|a| Cts(a.snapshot.load(Ordering::Acquire)))
                .min()
        };
        let local_min = match local_min {
            Some(v) => v,
            None => fusion.current_cts(),
        };
        fusion.report_min_view(self.node, local_min);

        // Recycle finished slots whose CTS every view can already see.
        let global_min = self.tit.load_global_min_view();
        {
            let mut fin = self.finished.lock();
            let undo = &self.shared.undo;
            let tit = &self.tit;
            fin.retain(|f| {
                if f.cts < global_min {
                    tit.release(f.slot);
                    undo.purge(&f.undo);
                    false
                } else {
                    true
                }
            });
        }

        // Trim version-store chains below the cluster min-active snapshot:
        // no snapshot at or above `global_min` can ever need a row image
        // older than the newest version visible at that floor (§12).
        if global_min.0 != 0 {
            self.version_store.gc_below(global_min);
        }

        // Publish our min-active transaction id for peers' fast paths.
        let min_active = self
            .active
            .lock()
            .keys()
            .map(|t| t.0)
            .min()
            .unwrap_or_else(|| self.next_trx.load(Ordering::Relaxed)); // lint: allow(relaxed-atomic): monotonic allocator; a stale (lower) read keeps min-active conservative
        self.tit.publish_min_active_trx(min_active);

        // Refresh our cache of peers' published values: every peer's cell
        // reads through one doorbell batch (one charged round trip).
        let mut batch = self.shared.repl.batch();
        for peer in fusion.nodes() {
            if peer == self.node {
                continue;
            }
            if let Some(region) = fusion.region(peer) {
                let v = region.read_min_active_trx_batched(&mut batch, Locality::Remote);
                self.min_active_cache.set(peer, v);
            }
        }
        batch.flush();
    }

    /// One pass of the background flusher: push dirty pages to the DBP and
    /// keep the LBP within capacity (§4.2). Also takes an opportunistic
    /// quiesced checkpoint so recovery replays only a log tail; returns the
    /// LSN it recorded, if the node was quiesced.
    pub fn flush_tick(&self) -> Option<Lsn> {
        if !self.is_alive() {
            return None;
        }
        for (page_id, frame) in self.lbp.dirty_frames() {
            self.flush_frame(page_id, &frame);
        }
        while self.lbp.over_capacity() {
            let evicted = self.lbp.evict(64);
            if evicted.is_empty() {
                break;
            }
            for page_id in evicted {
                self.shared.pmfs.buffer.unregister(self.node, page_id);
            }
        }
        self.maybe_checkpoint()
    }

    /// Flush all dirty frames without the eviction/checkpoint machinery
    /// (test helper: make an in-flight transaction's footprint durable
    /// without taking a checkpoint past it).
    pub fn flush_frame_all_for_test(&self) {
        for (page_id, frame) in self.lbp.dirty_frames() {
            self.flush_frame(page_id, &frame);
        }
    }

    /// Quiesced checkpoint: when this node has no active transactions, no
    /// dirty frames and no unsynced log, every outcome at or below the
    /// durable watermark is resolved and every page effect has been pushed,
    /// so recovery may skip everything before it. (Transactions spanning a
    /// checkpoint are impossible by construction — no ARIES active-trx
    /// table needed.)
    ///
    /// This is a *scan-start hint*, relative to the DBP the pages were
    /// pushed to (hence the epoch tag) — it frees no log. Returns the LSN
    /// recorded. [`storage_checkpoint`](Self::storage_checkpoint) is what
    /// turns it into a cut once shared storage holds those pages.
    pub fn maybe_checkpoint(&self) -> Option<Lsn> {
        let stream = self.wal.stream();
        let durable = stream.durable_lsn();
        if stream.end_lsn() != durable {
            return None; // unsynced tail
        }
        if !self.active.lock().is_empty() {
            return None;
        }
        if !self.lbp.dirty_frames().is_empty() {
            return None;
        }
        // Anything appended since the watermark was read belongs after this
        // checkpoint anyway.
        stream.set_checkpoint(durable, self.dbp_epoch.load(Ordering::SeqCst));
        Some(durable)
    }

    /// Storage checkpoint, node half: the DBP has written back — under one
    /// loss epoch, `dbp_epoch`, read before this node's flush — every page
    /// this node had pushed when it recorded the quiesced checkpoint `at`.
    /// Every change logged below `at` is therefore in shared storage, and
    /// that redo is freed. The node's later hints rely on `dbp_epoch`.
    /// Returns the stream's new start.
    pub fn storage_checkpoint(&self, at: Lsn, dbp_epoch: u64) -> Lsn {
        self.dbp_epoch.store(dbp_epoch, Ordering::SeqCst);
        self.wal.stream().truncate_below(at)
    }

    // ---- lifecycle ---------------------------------------------------------

    /// Quiesce after administrative work: flush dirty pages and hand all
    /// idle PLocks back to Lock Fusion, so peers' first accesses are plain
    /// grants instead of negotiations.
    pub fn quiesce(&self) {
        self.flush_tick();
        self.plocks.release_idle();
    }

    /// Graceful shutdown of background threads (keeps all state intact).
    /// Also stops the async scheduler: sessions still holding a parker keep
    /// working — a stopped scheduler runs wakes inline on the waker's
    /// thread instead of a pool worker.
    pub fn stop_background(&self) {
        self.sched.stop();
        self.shutdown.trigger();
        let mut bg = self.bg.lock();
        for t in bg.drain(..) {
            let _ = t.join();
        }
    }

    /// Graceful decommission (scale-in): wait for local transactions to
    /// drain, flush everything, hand back every PLock, release TIT slots
    /// and leave the cluster. Data remains fully available to the other
    /// nodes through the DBP and shared storage. Returns an error if
    /// transactions are still active after `drain` elapses.
    pub fn decommission(&self, drain: Duration) -> Result<()> {
        self.check_alive()?;
        // Refuse new transactions but let in-flight ones run to completion
        // (commit or rollback) against a fully functional node.
        self.draining.store(true, Ordering::Release);
        // lint: allow(raw-instant): real-time drain deadline for decommission
        let deadline = std::time::Instant::now() + drain;
        while !self.active.lock().is_empty() {
            // lint: allow(raw-instant): real-time drain deadline for decommission
            if std::time::Instant::now() > deadline {
                self.draining.store(false, Ordering::Release);
                return Err(PmpError::aborted(
                    "active transactions did not drain before decommission",
                ));
            }
            // Transactions finish on their own threads; there is no condvar
            // to park on, and decommission is an administrative slow path.
            // lint: allow(raw-sleep): administrative drain poll, not a data path
            std::thread::sleep(Duration::from_millis(5));
        }
        self.alive.store(false, Ordering::Release);
        self.stop_background();
        // Flush every dirty page (forces logs first), then give up locks.
        for (page_id, frame) in self.lbp.dirty_frames() {
            self.flush_frame(page_id, &frame);
        }
        self.plocks.release_idle();
        self.plocks.crash_clear();
        self.shared.pmfs.plock.release_all(self.node);
        self.shared.pmfs.plock.unregister_node(self.node);
        // Finished slots may still be above the global min view; releasing
        // them is safe because their row CTS values were backfilled and any
        // stale reference resolves as "recycled ⇒ visible", which is correct
        // for committed work.
        let mut fin = self.finished.lock();
        for f in fin.drain(..) {
            self.tit.release(f.slot);
            self.shared.undo.purge(&f.undo);
        }
        drop(fin);
        self.shared.pmfs.txn.unregister_region(self.node);
        self.wal.force(self.wal.stream().end_lsn(), &mut None)?;
        Ok(())
    }

    /// Simulate a crash: volatile state vanishes (LBP, local PLock table,
    /// active transactions, unsynced log tail); the TIT region stays
    /// registered so peers keep seeing in-doubt transactions as active;
    /// fusion-side PLocks stay frozen until recovery (§5.5).
    pub fn crash(&self) {
        self.alive.store(false, Ordering::Release);
        self.stop_background();
        self.shared.pmfs.plock.unregister_node(self.node);
        self.wal.stream().crash();
        // Committers suspended in the group-commit window must learn the log
        // tail is gone: wake them, so their re-check observes forced < end
        // and aborts.
        self.wal.drain_pending_on_crash();
        // Queued SQEs complete as Cancelled, which aborts their LBP
        // sentinels before the wipe below; loads a worker already claimed
        // finish against the wiped pool, where the wipe-generation check in
        // `finish_load` turns the install into a no-op.
        self.io.cancel_queued();
        self.lbp.clear();
        self.version_store.clear();
        self.plocks.crash_clear();
        {
            let mut active = self.active.lock();
            for _ in active.drain() {
                self.stats.open_txns.dec();
            }
        }
        self.finished.lock().clear();
    }
}

impl Drop for NodeEngine {
    fn drop(&mut self) {
        self.sched.stop();
        self.shutdown.trigger();
        let mut bg = self.bg.lock();
        for t in bg.drain(..) {
            let _ = t.join();
        }
    }
}
