//! `pmp-io`: an io_uring-style submission/completion engine for the
//! simulated shared storage.
//!
//! Every storage round-trip used to park the calling thread for the full
//! simulated device latency (`PageStore::read` charges ~100µs inline), so a
//! node could never have more outstanding storage operations than blocked
//! threads. Disaggregated designs win precisely by keeping many remote
//! accesses in flight per core; this crate supplies the missing
//! submission/completion split:
//!
//! * **SQE/CQE.** Callers enqueue [`SqeOp`]s (page read/write, log
//!   chunk read, log sync) with opaque `user_data` into a fixed-capacity
//!   submission queue and receive a [`CompletionToken`]. Results come back
//!   as [`Cqe`]s.
//! * **Completion workers.** A small pool drains the SQ in batches and
//!   charges the device round-trip *once per batch* off the submitter's
//!   thread (requests submitted together overlap at the device — that is
//!   the whole point). Identical page reads within a batch are coalesced
//!   into one storage access.
//! * **Three completion styles.** Poll ([`IoRing::reap`]), block
//!   ([`Completion::wait`] / [`IoRing::wait_cqe`]), or chain a continuation
//!   ([`IoRing::submit_with`]) that runs on the worker at completion — the
//!   engine uses continuations so an LBP `Loading` sentinel is resolved by
//!   the worker even if the submitting thread is preempted.
//! * **Cancellation.** Queued (not yet in-flight) SQEs can be cancelled
//!   ([`IoRing::cancel`], [`IoRing::cancel_queued`]); their completion path
//!   still runs exactly once, with a [`CqePayload::Cancelled`] payload, so
//!   sentinel cleanup is never skipped.
//!
//! Lock discipline under the `sanitize` feature: every potentially-blocking
//! wait in the ring — submission backpressure, [`Completion::wait`], and
//! the worker's batched `precise_wait_ns` charge — begins with
//! [`assert_charge_point`], so no tracked lock is ever held across a
//! charged (or unbounded) wait inside the ring. Ring-internal locks are
//! dropped before latency is charged and before continuations run.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pmp_common::sync::{assert_charge_point, LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{Counter, Gauge, IoRingConfig, LatencyHistogram, Lsn, PageId, PmpError, Result};
use pmp_rdma::precise_wait_ns;
use pmp_storage::{LogStream, ReadChunk, SharedStorage, StorageImage};

/// Submission-queue state (entries + shutdown flag).
const IO_SQ: LockClass = LockClass::new("io.ring.sq");
/// Completion-queue entries.
const IO_CQ: LockClass = LockClass::new("io.ring.cq");
/// One-shot completion slots handed to blocking submitters.
const IO_COMPLETION: LockClass = LockClass::new("io.completion");

/// Completion-queue capacity; the oldest unreaped CQE is dropped on overflow
/// (counted), mirroring io_uring's overflow semantics.
pub const CQ_CAPACITY: usize = 256;

/// One submitted storage operation.
///
/// Log operations carry their stream so the ring itself stays stateless
/// about which node owns which log.
pub enum SqeOp<P> {
    /// Read a page from the shared page store (`None` if never written).
    ReadPage(PageId),
    /// Write (create or replace) a page; durable on completion.
    WritePage(PageId, Arc<P>),
    /// Read up to `max_bytes` of durable log data starting at `from`.
    LogRead {
        stream: Arc<LogStream>,
        from: Lsn,
        max_bytes: usize,
    },
    /// Group-commit sync: make the stream durable at least to `target`.
    LogSync { stream: Arc<LogStream>, target: Lsn },
}

impl<P> std::fmt::Debug for SqeOp<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqeOp::ReadPage(id) => write!(f, "ReadPage({id})"),
            SqeOp::WritePage(id, _) => write!(f, "WritePage({id})"),
            SqeOp::LogRead {
                from, max_bytes, ..
            } => {
                write!(f, "LogRead(from={from:?}, max={max_bytes})")
            }
            SqeOp::LogSync { target, .. } => write!(f, "LogSync(to={target:?})"),
        }
    }
}

/// Successful completion payload, matching the submitted [`SqeOp`] kind.
#[derive(Debug, Clone)]
pub enum CqePayload<P> {
    Page(Option<Arc<P>>),
    Written,
    Chunk(ReadChunk),
    Synced(Lsn),
    /// The SQE was cancelled while still queued; no storage access happened.
    Cancelled,
}

/// Identifies one submission; returned by every submit call and usable
/// with [`IoRing::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompletionToken(u64);

/// A completion-queue entry.
#[derive(Debug)]
pub struct Cqe<P> {
    pub token: CompletionToken,
    /// Caller-chosen tag, passed through verbatim (io_uring's `user_data`).
    pub user_data: u64,
    pub result: Result<CqePayload<P>>,
}

/// A one-shot, cloneable completion slot: one side `complete`s it (usually
/// a ring continuation), the other polls [`try_take`](Completion::try_take)
/// or blocks in [`wait`](Completion::wait).
#[derive(Debug)]
pub struct Completion<T> {
    inner: Arc<CompletionInner<T>>,
}

struct CompletionInner<T> {
    slot: TrackedMutex<Option<T>>,
    cv: TrackedCondvar,
    /// Waker-style notification: runs exactly once, after the value lands.
    notify: TrackedMutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for CompletionInner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionInner")
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Completion<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Completion<T> {
    pub fn new() -> Self {
        Completion {
            inner: Arc::new(CompletionInner {
                slot: TrackedMutex::new(IO_COMPLETION, None),
                cv: TrackedCondvar::new(),
                notify: TrackedMutex::new(IO_COMPLETION, None),
            }),
        }
    }

    /// Deliver the value. The first delivery wins; later ones are dropped
    /// (a cancel racing a normal completion must not panic).
    pub fn complete(&self, value: T) {
        let mut slot = self.inner.slot.lock();
        if slot.is_none() {
            *slot = Some(value);
        }
        drop(slot);
        self.inner.cv.notify_all();
        // Publish-then-take pairs with `set_notify`'s store-then-check, so
        // exactly one side runs the waker no matter how the calls interleave.
        if let Some(f) = self.inner.notify.lock().take() {
            f();
        }
    }

    /// Register a waker that runs once the value is delivered (immediately
    /// if it already has been). At most one waker is held; registering a
    /// second replaces the first. Runs on the completing thread — keep it
    /// cheap and non-blocking (enqueue a parked continuation, poke a
    /// condvar), exactly like an io_uring eventfd wakeup.
    pub fn set_notify(&self, f: Box<dyn FnOnce() + Send>) {
        *self.inner.notify.lock() = Some(f);
        if self.inner.slot.lock().is_some() {
            // Value landed before (or while) we registered: claim the waker
            // back — the completer may have already taken and run it.
            if let Some(f) = self.inner.notify.lock().take() {
                f();
            }
        }
    }

    /// Non-blocking poll; takes the value if it has been delivered.
    pub fn try_take(&self) -> Option<T> {
        self.inner.slot.lock().take()
    }

    /// True once the value has been delivered (without consuming it).
    pub fn is_ready(&self) -> bool {
        self.inner.slot.lock().is_some()
    }

    /// Block until the value is delivered. This is a charge point: under
    /// `sanitize` the caller must not hold any tracked lock — the value may
    /// take a full device round-trip to arrive.
    pub fn wait(&self) -> T {
        assert_charge_point();
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            self.inner.cv.wait(&mut slot);
        }
    }
}

/// Runs on the completion worker with the finished op's CQE.
pub type Continuation<P> = Box<dyn FnOnce(Cqe<P>) + Send>;

/// What to do with a finished SQE.
enum DoneAction<P> {
    /// Post the CQE for [`IoRing::reap`] / [`IoRing::wait_cqe`].
    PostCq,
    /// Run a continuation on the completion worker.
    Continue(Continuation<P>),
}

struct SqEntry<P> {
    token: CompletionToken,
    user_data: u64,
    op: SqeOp<P>,
    action: DoneAction<P>,
}

struct SqState<P> {
    queue: VecDeque<SqEntry<P>>,
    stopped: bool,
    /// Workers waiting on `sq_cv` right now (idle, or lingering in the
    /// batch window). A submitter wakes one only when this is non-zero: a
    /// worker that is mid-batch re-checks the queue before it parks, so a
    /// notify then would be a futex syscall nobody is listening for.
    parked_workers: usize,
}

/// Ring meters surfaced to benchmarks and the acceptance tests.
#[derive(Debug, Default)]
pub struct IoStats {
    pub submitted: Counter,
    pub completed: Counter,
    pub cancelled: Counter,
    /// Worker batches executed (each charges one device round-trip).
    pub batches: Counter,
    /// Condvar notifies submitters issued to wake a parked worker (at most
    /// one per submit call; none while every worker is busy).
    pub worker_wakes: Counter,
    /// SQEs answered from a same-batch duplicate page read.
    pub coalesced: Counter,
    /// CQEs dropped because the completion queue was full (io_uring-style
    /// overflow; poll-mode callers must size their bursts to [`CQ_CAPACITY`]).
    pub cq_overflows: Counter,
    /// Submitted-but-not-completed operations, with high-watermark.
    inflight: Gauge,
    /// Histogram of SQ depth observed at each submission.
    pub queue_depth: LatencyHistogram,
}

impl IoStats {
    pub fn inflight(&self) -> u64 {
        self.inflight.get()
    }

    /// Highest number of concurrently in-flight operations since `reset`.
    pub fn inflight_hwm(&self) -> u64 {
        self.inflight.hwm()
    }

    pub fn reset(&self) {
        self.submitted.reset();
        self.completed.reset();
        self.cancelled.reset();
        self.batches.reset();
        self.worker_wakes.reset();
        self.coalesced.reset();
        self.cq_overflows.reset();
        self.inflight.reset();
        self.queue_depth.reset();
    }
}

struct RingCore<P> {
    storage: Arc<SharedStorage<P>>,
    cfg: IoRingConfig,
    sq: TrackedMutex<SqState<P>>,
    /// Workers wait here for work; submitters wait here for SQ space.
    sq_cv: TrackedCondvar,
    cq: TrackedMutex<VecDeque<Cqe<P>>>,
    cq_cv: TrackedCondvar,
    stats: IoStats,
    next_token: AtomicU64,
}

impl<P: Clone + Send + Sync + StorageImage + 'static> RingCore<P> {
    /// Base device cost of one op (the fixed round-trip), excluding the
    /// per-byte bandwidth and codec terms added at execution time.
    fn base_latency_ns(&self, op: &SqeOp<P>) -> u64 {
        match op {
            SqeOp::ReadPage(_) => self.storage.page_store().read_latency_ns(),
            SqeOp::WritePage(..) => self.storage.page_store().write_latency_ns(),
            SqeOp::LogRead { stream, .. } => stream.read_latency_ns(),
            SqeOp::LogSync { stream, .. } => stream.sync_latency_ns(),
        }
    }

    /// Execute one op; the batch's base round-trip is charged separately.
    /// `page_cache` coalesces duplicate same-batch page reads. Returns the
    /// payload plus this op's per-byte cost (bandwidth on *physical* bytes
    /// moved, codec CPU on raw bytes compressed) — the batch *sums* byte
    /// terms while taking the *max* base cost: round-trips overlap at the
    /// device, but the bytes still stream through one pipe.
    fn execute(
        &self,
        op: SqeOp<P>,
        page_cache: &mut HashMap<PageId, Option<Arc<P>>>,
    ) -> (Result<CqePayload<P>>, u64) {
        let cfg = self.storage.page_store().latency_cfg();
        match op {
            SqeOp::ReadPage(id) => {
                if let Some(hit) = page_cache.get(&id) {
                    self.stats.coalesced.inc();
                    // One transfer serves every coalesced duplicate.
                    return (Ok(CqePayload::Page(hit.clone())), 0);
                }
                let bytes = cfg.byte_ns(self.storage.page_store().physical_size(id));
                let page = match self.storage.page_store().read_uncharged(id) {
                    Ok(p) => p,
                    Err(e) => return (Err(e), 0),
                };
                page_cache.insert(id, page.clone());
                (Ok(CqePayload::Page(page)), bytes)
            }
            SqeOp::WritePage(id, data) => {
                let cost = match self.storage.write_page_uncharged(id, data) {
                    Ok(c) => c,
                    Err(e) => return (Err(e), 0),
                };
                // The store now holds newer bytes than any coalesced copy.
                page_cache.remove(&id);
                (
                    Ok(CqePayload::Written),
                    cfg.byte_ns(cost.physical_bytes) + cfg.codec_ns(cost.codec_raw_bytes),
                )
            }
            SqeOp::LogRead {
                stream,
                from,
                max_bytes,
            } => {
                // Gather read: compressed frames leave a dead tail behind
                // every group, and a stop-at-hole read would degenerate to
                // one charged round-trip per frame.
                let chunk = match stream.read_gather_uncharged(from, max_bytes) {
                    Ok(c) => c,
                    Err(e) => return (Err(e), 0),
                };
                let bytes = cfg.byte_ns(chunk.data.len());
                (Ok(CqePayload::Chunk(chunk)), bytes)
            }
            SqeOp::LogSync { stream, target } => {
                let (lsn, newly) = stream.sync_to_uncharged_bytes(target);
                (Ok(CqePayload::Synced(lsn)), cfg.byte_ns(newly as usize))
            }
        }
    }

    /// Drain and execute one batch. With `block`, parks until work arrives
    /// or the ring stops; without, returns `false` immediately when idle.
    /// Returns whether a batch was processed.
    fn process_batch(&self, block: bool) -> bool {
        let batch: Vec<SqEntry<P>> = {
            let mut sq = self.sq.lock();
            loop {
                if !sq.queue.is_empty() {
                    break;
                }
                if sq.stopped || !block {
                    return false;
                }
                sq.parked_workers += 1;
                self.sq_cv.wait(&mut sq);
                sq.parked_workers -= 1;
            }
            // Adaptive batch window: with work queued but the batch not yet
            // full, linger briefly for more submissions so the single
            // round-trip charge below covers a fuller batch. One bounded
            // wait only — the window must not add latency proportional to
            // queue churn. The condvar releases the SQ lock while waiting,
            // so submitters are not blocked out of the window.
            if block
                && self.cfg.batch_window_us > 0
                && !sq.stopped
                && sq.queue.len() < self.cfg.batch_limit.max(1)
            {
                let window = std::time::Duration::from_micros(self.cfg.batch_window_us);
                sq.parked_workers += 1;
                let _ = self.sq_cv.wait_for(&mut sq, window);
                sq.parked_workers -= 1;
                if sq.queue.is_empty() {
                    // Everything was drained by a peer worker while we
                    // lingered; go back to idle instead of charging for
                    // an empty batch.
                    return !sq.stopped;
                }
            }
            let n = sq.queue.len().min(self.cfg.batch_limit.max(1));
            sq.queue.drain(..n).collect()
        };
        // Freed SQ slots: wake submitters blocked on backpressure.
        self.sq_cv.notify_all();
        self.stats.batches.inc();

        // Charge the device round-trip once for the whole batch: requests
        // submitted together overlap at the device, so the batch's *base*
        // cost is its slowest member, not the sum. The per-byte terms
        // (physical bytes moved + codec CPU) are summed across the batch —
        // overlapping round-trips still share one data pipe. Execution
        // happens first (it is what determines the compressed sizes), the
        // single charge follows with no ring lock held — the charge point
        // the sanitizer guards — and completions are only delivered after
        // the full batch cost has elapsed.
        let base = batch
            .iter()
            .map(|e| self.base_latency_ns(&e.op))
            .max()
            .unwrap_or(0);
        let mut page_cache: HashMap<PageId, Option<Arc<P>>> = HashMap::new();
        let mut done = Vec::with_capacity(batch.len());
        let mut byte_ns = 0u64;
        for mut entry in batch {
            let op = entry.op_take();
            let (result, extra) = self.execute(op, &mut page_cache);
            byte_ns += extra;
            done.push((entry, result));
        }
        let charge = base + byte_ns;
        self.storage.page_store().stats().charged_io_ns.add(charge);
        precise_wait_ns(charge);
        for (entry, result) in done {
            self.finish(entry, result);
        }
        true
    }
}

impl<P> RingCore<P> {
    /// Deliver a finished entry. Must be called with no ring locks held:
    /// continuations re-enter the engine (LBP installs, WAL observes).
    fn finish(&self, entry: SqEntry<P>, result: Result<CqePayload<P>>) {
        let was_cancelled = matches!(result, Ok(CqePayload::Cancelled));
        let cqe = Cqe {
            token: entry.token,
            user_data: entry.user_data,
            result,
        };
        self.stats.inflight.dec();
        if was_cancelled {
            self.stats.cancelled.inc();
        } else {
            self.stats.completed.inc();
        }
        match entry.action {
            DoneAction::PostCq => {
                let mut cq = self.cq.lock();
                if cq.len() >= CQ_CAPACITY {
                    cq.pop_front();
                    self.stats.cq_overflows.inc();
                }
                cq.push_back(cqe);
                drop(cq);
                self.cq_cv.notify_all();
            }
            DoneAction::Continue(f) => f(cqe),
        }
    }
}

impl<P> SqEntry<P> {
    /// Take the op out, leaving a placeholder (the entry still carries the
    /// token/user_data/action needed to deliver the result).
    fn op_take(&mut self) -> SqeOp<P> {
        std::mem::replace(&mut self.op, SqeOp::ReadPage(PageId::NULL))
    }
}

/// The per-node submission/completion ring. Owns its worker threads; drop
/// drains the queue (queued entries complete as `Cancelled`) and joins them.
pub struct IoRing<P> {
    core: Arc<RingCore<P>>,
    workers: Vec<JoinHandle<()>>,
}

impl<P> std::fmt::Debug for IoRing<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoRing")
            .field("workers", &self.workers.len())
            .field("inflight", &self.core.stats.inflight.get())
            .finish_non_exhaustive()
    }
}

impl<P: Clone + Send + Sync + StorageImage + 'static> IoRing<P> {
    pub fn new(storage: Arc<SharedStorage<P>>, cfg: IoRingConfig) -> Self {
        let core = Arc::new(RingCore {
            storage,
            cfg,
            sq: TrackedMutex::new(
                IO_SQ,
                SqState {
                    queue: VecDeque::with_capacity(cfg.sq_capacity),
                    stopped: false,
                    parked_workers: 0,
                },
            ),
            sq_cv: TrackedCondvar::new(),
            cq: TrackedMutex::new(IO_CQ, VecDeque::new()),
            cq_cv: TrackedCondvar::new(),
            stats: IoStats::default(),
            next_token: AtomicU64::new(1),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || while core.process_batch(true) {})
            })
            .collect();
        IoRing { core, workers }
    }

    pub fn stats(&self) -> &IoStats {
        &self.core.stats
    }

    /// Enqueue one op whose CQE lands in the completion queue (poll with
    /// [`reap`](Self::reap) or block in [`wait_cqe`](Self::wait_cqe)).
    pub fn submit(&self, op: SqeOp<P>, user_data: u64) -> Result<CompletionToken> {
        self.enqueue_one(op, user_data, DoneAction::PostCq)
    }

    /// Enqueue one op whose continuation runs on the completion worker.
    /// The continuation is invoked exactly once — with the operation's
    /// result, or with [`CqePayload::Cancelled`] if the SQE is cancelled
    /// (or still queued at shutdown).
    pub fn submit_with(
        &self,
        op: SqeOp<P>,
        user_data: u64,
        continuation: Continuation<P>,
    ) -> Result<CompletionToken> {
        self.enqueue_one(op, user_data, DoneAction::Continue(continuation))
    }

    /// Batched submission: enqueue all ops back-to-back under one SQ lock,
    /// so one worker batch picks them up together and same-page reads
    /// coalesce. CQEs land in the completion queue.
    pub fn submit_all(&self, ops: Vec<(SqeOp<P>, u64)>) -> Result<Vec<CompletionToken>> {
        self.enqueue(
            ops.into_iter()
                .map(|(op, user_data)| (op, user_data, DoneAction::PostCq)),
        )
    }

    /// [`submit_all`](Self::submit_all) with a continuation per op: one SQ
    /// lock, at most one worker wake for the whole batch.
    pub fn submit_all_with(
        &self,
        ops: Vec<(SqeOp<P>, u64, Continuation<P>)>,
    ) -> Result<Vec<CompletionToken>> {
        self.enqueue(
            ops.into_iter()
                .map(|(op, user_data, f)| (op, user_data, DoneAction::Continue(f))),
        )
    }

    fn enqueue_one(
        &self,
        op: SqeOp<P>,
        user_data: u64,
        action: DoneAction<P>,
    ) -> Result<CompletionToken> {
        let tokens = self.enqueue(std::iter::once((op, user_data, action)))?;
        Ok(tokens[0])
    }

    /// The one submission path: push every entry under one SQ lock, waiting
    /// out backpressure, then wake a worker if one is parked.
    fn enqueue(
        &self,
        entries: impl ExactSizeIterator<Item = (SqeOp<P>, u64, DoneAction<P>)>,
    ) -> Result<Vec<CompletionToken>> {
        // Submission may block on backpressure: the caller must not hold
        // tracked locks (the wait can span a device round-trip).
        assert_charge_point();
        let core = &self.core;
        let mut tokens = Vec::with_capacity(entries.len());
        let mut sq = core.sq.lock();
        for (op, user_data, action) in entries {
            loop {
                if sq.stopped {
                    return Err(PmpError::aborted("io ring is shut down"));
                }
                if sq.queue.len() < core.cfg.sq_capacity.max(1) {
                    break;
                }
                // Full of this call's own entries, with every worker still
                // parked from before: they must start draining first.
                if sq.parked_workers > 0 {
                    core.stats.worker_wakes.inc();
                    core.sq_cv.notify_all();
                }
                core.sq_cv.wait(&mut sq);
            }
            let token = CompletionToken(core.next_token.fetch_add(1, Ordering::Relaxed));
            sq.queue.push_back(SqEntry {
                token,
                user_data,
                op,
                action,
            });
            core.stats.submitted.inc();
            core.stats.inflight.inc();
            core.stats.queue_depth.record_ns(sq.queue.len() as u64);
            tokens.push(token);
        }
        let wake = sq.parked_workers > 0;
        drop(sq);
        if wake {
            core.stats.worker_wakes.inc();
            if tokens.len() == 1 {
                core.sq_cv.notify_one();
            } else {
                core.sq_cv.notify_all();
            }
        }
        Ok(tokens)
    }

    /// Submit a page read and block until it completes (convenience for
    /// cold paths that need exactly one page).
    pub fn read_page(&self, page: PageId) -> Result<Option<Arc<P>>> {
        let done: Completion<Result<Option<Arc<P>>>> = Completion::new();
        let tx = done.clone();
        self.submit_with(
            SqeOp::ReadPage(page),
            page.0,
            Box::new(move |cqe| {
                tx.complete(match cqe.result {
                    Ok(CqePayload::Page(p)) => Ok(p),
                    Ok(CqePayload::Cancelled) => Err(PmpError::aborted("page read cancelled")),
                    Ok(_) => Err(PmpError::internal("unexpected payload for page read")),
                    Err(e) => Err(e),
                });
            }),
        )?;
        done.wait()
    }

    /// Submit a log chunk read; returns a [`Completion`] resolving to the
    /// chunk. Recovery submits one per stream, then waits — the reads
    /// overlap in one worker batch instead of serialising.
    pub fn log_read(
        &self,
        stream: &Arc<LogStream>,
        from: Lsn,
        max_bytes: usize,
    ) -> Result<Completion<Result<ReadChunk>>> {
        let done: Completion<Result<ReadChunk>> = Completion::new();
        let tx = done.clone();
        self.submit_with(
            SqeOp::LogRead {
                stream: Arc::clone(stream),
                from,
                max_bytes,
            },
            from.0,
            Box::new(move |cqe| {
                tx.complete(match cqe.result {
                    Ok(CqePayload::Chunk(c)) => Ok(c),
                    Ok(CqePayload::Cancelled) => Err(PmpError::aborted("log read cancelled")),
                    Ok(_) => Err(PmpError::internal("unexpected payload for log read")),
                    Err(e) => Err(e),
                });
            }),
        )?;
        Ok(done)
    }

    /// Cancel one queued SQE. Returns `true` if it was still queued (its
    /// completion path runs with [`CqePayload::Cancelled`]); `false` if it
    /// already started executing or completed.
    pub fn cancel(&self, token: CompletionToken) -> bool {
        let entry = {
            let mut sq = self.core.sq.lock();
            sq.queue
                .iter()
                .position(|e| e.token == token)
                .and_then(|i| sq.queue.remove(i))
        };
        match entry {
            Some(e) => {
                self.core.finish(e, Ok(CqePayload::Cancelled));
                true
            }
            None => false,
        }
    }

    /// Cancel every queued SQE (crash path). In-flight batches are not
    /// interrupted — they complete normally and their continuations must
    /// cope (the engine's wipe-generation protocol refuses stale installs).
    /// Returns how many entries were cancelled.
    pub fn cancel_queued(&self) -> usize {
        let drained: Vec<SqEntry<P>> = {
            let mut sq = self.core.sq.lock();
            sq.queue.drain(..).collect()
        };
        self.core.sq_cv.notify_all();
        let n = drained.len();
        for e in drained {
            self.core.finish(e, Ok(CqePayload::Cancelled));
        }
        n
    }

    /// Non-blocking completion poll.
    pub fn reap(&self) -> Option<Cqe<P>> {
        self.core.cq.lock().pop_front()
    }

    /// Block until a CQE is available. Returns `None` once the ring is shut
    /// down and the completion queue is drained.
    pub fn wait_cqe(&self) -> Option<Cqe<P>> {
        assert_charge_point();
        let mut cq = self.core.cq.lock();
        loop {
            if let Some(cqe) = cq.pop_front() {
                return Some(cqe);
            }
            if self.core.sq.lock().stopped {
                return None;
            }
            self.core.cq_cv.wait(&mut cq);
        }
    }

    /// Drive one batch on the calling thread (poll mode / tests). Returns
    /// whether any work was done.
    pub fn drive(&self) -> bool {
        self.core.process_batch(false)
    }

    /// Queued (not yet picked up) submissions.
    pub fn sq_len(&self) -> usize {
        self.core.sq.lock().queue.len()
    }

    /// Stop accepting submissions and wake everything. Queued entries are
    /// cancelled; worker threads exit (joined on drop).
    pub fn shutdown(&self) {
        {
            let mut sq = self.core.sq.lock();
            if sq.stopped {
                return;
            }
            sq.stopped = true;
        }
        self.cancel_queued();
        self.core.sq_cv.notify_all();
        self.core.cq_cv.notify_all();
    }
}

impl<P> Drop for IoRing<P> {
    fn drop(&mut self) {
        {
            let mut sq = self.core.sq.lock();
            sq.stopped = true;
        }
        self.core.sq_cv.notify_all();
        self.core.cq_cv.notify_all();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            // A continuation may hold the last reference to the ring's
            // owner, which then drops on the worker itself; that worker
            // cannot join itself and exits on its own once this returns.
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
        // Workers are gone; entries they never drained (e.g. on a 0-worker
        // poll ring) must still complete exactly once, as cancelled, so no
        // waiter hangs and no sentinel leaks.
        let drained: Vec<SqEntry<P>> = self.core.sq.lock().queue.drain(..).collect();
        for e in drained {
            self.core.finish(e, Ok(CqePayload::Cancelled));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::{NodeId, StorageLatencyConfig};

    fn storage(latency: StorageLatencyConfig) -> Arc<SharedStorage<String>> {
        Arc::new(SharedStorage::new(latency))
    }

    fn manual_ring(storage: &Arc<SharedStorage<String>>) -> IoRing<String> {
        // No workers: tests drive batches deterministically via `drive()`.
        IoRing::new(
            Arc::clone(storage),
            IoRingConfig {
                workers: 0,
                ..IoRingConfig::default()
            },
        )
    }

    #[test]
    fn submit_reap_roundtrip() {
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        st.page_store()
            .write(id, Arc::new("hello".to_string()))
            .unwrap();
        let ring = manual_ring(&st);
        let token = ring.submit(SqeOp::ReadPage(id), 7).unwrap();
        assert!(ring.reap().is_none(), "nothing completed yet");
        assert!(ring.drive());
        let cqe = ring.reap().unwrap();
        assert_eq!(cqe.token, token);
        assert_eq!(cqe.user_data, 7);
        match cqe.result.unwrap() {
            CqePayload::Page(Some(p)) => assert_eq!(*p, "hello"),
            other => panic!("unexpected payload {other:?}"),
        }
        assert_eq!(ring.stats().completed.get(), 1);
        assert_eq!(ring.stats().inflight(), 0);
    }

    #[test]
    fn write_then_read_through_ring() {
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        let ring = manual_ring(&st);
        ring.submit(SqeOp::WritePage(id, Arc::new("v1".to_string())), 0)
            .unwrap();
        ring.submit(SqeOp::ReadPage(id), 1).unwrap();
        ring.drive();
        let w = ring.reap().unwrap();
        assert!(matches!(w.result.unwrap(), CqePayload::Written));
        let r = ring.reap().unwrap();
        match r.result.unwrap() {
            CqePayload::Page(Some(p)) => assert_eq!(*p, "v1"),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn same_batch_duplicate_reads_coalesce() {
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        st.page_store()
            .write(id, Arc::new("x".to_string()))
            .unwrap();
        let other = st.page_store().allocate_page_id();
        st.page_store()
            .write(other, Arc::new("y".to_string()))
            .unwrap();
        st.page_store().stats().reset();
        let ring = manual_ring(&st);
        ring.submit_all(vec![
            (SqeOp::ReadPage(id), 0),
            (SqeOp::ReadPage(other), 1),
            (SqeOp::ReadPage(id), 2),
            (SqeOp::ReadPage(id), 3),
        ])
        .unwrap();
        ring.drive();
        assert_eq!(ring.stats().coalesced.get(), 2, "two duplicate reads");
        assert_eq!(
            st.page_store().stats().page_reads.get(),
            2,
            "one storage access per distinct page"
        );
        for _ in 0..4 {
            let cqe = ring.reap().unwrap();
            assert!(matches!(cqe.result.unwrap(), CqePayload::Page(Some(_))));
        }
    }

    #[test]
    fn continuation_runs_with_result() {
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        st.page_store()
            .write(id, Arc::new("abc".to_string()))
            .unwrap();
        let ring = manual_ring(&st);
        let done: Completion<usize> = Completion::new();
        let tx = done.clone();
        ring.submit_with(
            SqeOp::ReadPage(id),
            0,
            Box::new(move |cqe| {
                let len = match cqe.result.unwrap() {
                    CqePayload::Page(Some(p)) => p.len(),
                    _ => 0,
                };
                tx.complete(len);
            }),
        )
        .unwrap();
        assert!(done.try_take().is_none());
        ring.drive();
        assert_eq!(done.try_take(), Some(3));
    }

    #[test]
    fn set_notify_fires_on_completion() {
        let done: Completion<u32> = Completion::new();
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        done.set_notify(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "no value, no waker");
        done.complete(7);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        done.complete(8);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "waker is one-shot");
        assert_eq!(done.try_take(), Some(7), "first delivery wins");
    }

    #[test]
    fn set_notify_after_completion_runs_immediately() {
        let done: Completion<u32> = Completion::new();
        done.complete(1);
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        done.set_notify(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "late registration must observe the already-landed value"
        );
        assert!(done.is_ready());
    }

    #[test]
    fn batch_window_gathers_fuller_batches() {
        // With the window enabled a lone worker that wakes on the first
        // submission lingers long enough for the rest of the burst to land,
        // so the whole burst completes in far fewer charged batches.
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        st.page_store()
            .write(id, Arc::new("w".to_string()))
            .unwrap();
        let ring = IoRing::new(
            Arc::clone(&st),
            IoRingConfig {
                workers: 1,
                batch_limit: 32,
                batch_window_us: 20_000,
                ..IoRingConfig::default()
            },
        );
        let mut tokens = Vec::new();
        for i in 0..16 {
            tokens.push(
                ring.submit(SqeOp::ReadPage(id), i)
                    .expect("submit within capacity"),
            );
        }
        for _ in 0..16 {
            let cqe = ring.wait_cqe().expect("ring is live");
            assert!(matches!(cqe.result.unwrap(), CqePayload::Page(Some(_))));
        }
        assert!(
            ring.stats().batches.get() < 16,
            "window must fold the burst into fewer batches (got {})",
            ring.stats().batches.get()
        );
    }

    #[test]
    fn blocking_read_page_with_workers() {
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        st.page_store()
            .write(id, Arc::new("zz".to_string()))
            .unwrap();
        let ring = IoRing::new(Arc::clone(&st), IoRingConfig::default());
        assert_eq!(*ring.read_page(id).unwrap().unwrap(), "zz");
        assert!(ring.read_page(PageId(999_999)).unwrap().is_none());
    }

    #[test]
    fn log_ops_round_trip() {
        let st = storage(StorageLatencyConfig::disabled());
        let stream = st.redo_stream(NodeId(0));
        stream.append(b"hello log");
        let ring = manual_ring(&st);
        ring.submit(
            SqeOp::LogSync {
                stream: Arc::clone(&stream),
                target: Lsn(9),
            },
            0,
        )
        .unwrap();
        ring.drive();
        match ring.reap().unwrap().result.unwrap() {
            CqePayload::Synced(lsn) => assert_eq!(lsn, Lsn(9)),
            other => panic!("unexpected payload {other:?}"),
        }
        let done = ring.log_read(&stream, Lsn(0), 1024).unwrap();
        ring.drive();
        let chunk = done.wait().unwrap();
        assert_eq!(chunk.data, b"hello log");

        // A read below the stream's start completes with the typed error.
        stream.truncate_below(Lsn(5));
        let below = ring.log_read(&stream, Lsn(0), 1024).unwrap();
        let from_start = ring.log_read(&stream, Lsn(5), 1024).unwrap();
        ring.drive();
        assert_eq!(
            below.wait().unwrap_err(),
            PmpError::LogTruncated {
                requested: Lsn(0),
                start: Lsn(5)
            }
        );
        assert_eq!(from_start.wait().unwrap().data, b" log");
    }

    /// Spin until `cond` holds (the ring's worker runs on its own thread).
    fn until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn submissions_wake_a_worker_only_when_one_is_parked() {
        let st = storage(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        st.page_store()
            .write(id, Arc::new("w".to_string()))
            .unwrap();
        let ring = IoRing::new(
            Arc::clone(&st),
            IoRingConfig {
                workers: 1,
                ..IoRingConfig::default()
            },
        );
        let parked = |ring: &IoRing<String>| ring.core.sq.lock().parked_workers;
        until("the worker never parked", || parked(&ring) == 1);

        // One op to a parked worker: one wake. Its continuation then holds
        // the worker mid-batch until the test lets go.
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        ring.submit_with(
            SqeOp::ReadPage(id),
            0,
            Box::new(move |_| {
                entered_tx.send(()).unwrap();
                released.recv().unwrap();
            }),
        )
        .unwrap();
        entered.recv().unwrap();
        assert_eq!(ring.stats().worker_wakes.get(), 1);
        assert_eq!(parked(&ring), 0);

        // N submissions while the only worker is busy: no wake is issued,
        // and every one of them still completes — the worker looks at the
        // queue again before it parks.
        for i in 0..16 {
            ring.submit(SqeOp::ReadPage(id), i).unwrap();
        }
        assert_eq!(ring.stats().worker_wakes.get(), 1, "nobody to wake");
        release.send(()).unwrap();
        for _ in 0..16 {
            let cqe = ring.wait_cqe().expect("ring is live");
            assert!(matches!(cqe.result.unwrap(), CqePayload::Page(Some(_))));
        }

        // A batch submitted to the parked worker costs one wake, not one
        // per entry.
        until("the worker never parked again", || parked(&ring) == 1);
        let done = Arc::new(AtomicU64::new(0));
        let ops = (0..8)
            .map(|i| {
                let done = Arc::clone(&done);
                let f: Continuation<String> = Box::new(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
                (SqeOp::ReadPage(id), i, f)
            })
            .collect();
        ring.submit_all_with(ops).unwrap();
        until("the batch never completed", || {
            done.load(Ordering::SeqCst) == 8
        });
        assert_eq!(ring.stats().worker_wakes.get(), 2);
    }

    #[test]
    fn cancel_queued_entry_completes_as_cancelled() {
        let st = storage(StorageLatencyConfig::disabled());
        let ring = manual_ring(&st);
        let t1 = ring.submit(SqeOp::ReadPage(PageId(1)), 1).unwrap();
        let t2 = ring.submit(SqeOp::ReadPage(PageId(2)), 2).unwrap();
        assert!(ring.cancel(t1), "queued entry must be cancellable");
        assert!(!ring.cancel(t1), "second cancel is a no-op");
        let cqe = ring.reap().unwrap();
        assert_eq!(cqe.token, t1);
        assert!(matches!(cqe.result.unwrap(), CqePayload::Cancelled));
        ring.drive();
        let cqe = ring.reap().unwrap();
        assert_eq!(cqe.token, t2);
        assert!(!ring.cancel(t2), "completed entry cannot be cancelled");
        assert_eq!(ring.stats().cancelled.get(), 1);
        assert_eq!(ring.stats().completed.get(), 1);
        assert_eq!(ring.stats().inflight(), 0);
    }

    #[test]
    fn inflight_gauge_tracks_depth() {
        let st = storage(StorageLatencyConfig::disabled());
        let ring = manual_ring(&st);
        for i in 0..6 {
            ring.submit(SqeOp::ReadPage(PageId(i + 1)), i).unwrap();
        }
        assert_eq!(ring.stats().inflight(), 6);
        while ring.drive() {}
        assert_eq!(ring.stats().inflight(), 0);
        assert_eq!(ring.stats().inflight_hwm(), 6);
        assert_eq!(ring.stats().submitted.get(), 6);
    }

    #[test]
    fn submission_backpressure_blocks_until_space() {
        let st = storage(StorageLatencyConfig::disabled());
        let ring = Arc::new(IoRing::new(
            Arc::clone(&st),
            IoRingConfig {
                sq_capacity: 2,
                workers: 0,
                batch_limit: 1,
                ..IoRingConfig::default()
            },
        ));
        ring.submit(SqeOp::ReadPage(PageId(1)), 0).unwrap();
        ring.submit(SqeOp::ReadPage(PageId(2)), 0).unwrap();
        let r2 = Arc::clone(&ring);
        let blocked = std::thread::spawn(move || r2.submit(SqeOp::ReadPage(PageId(3)), 0).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!blocked.is_finished(), "submit must block on a full SQ");
        ring.drive(); // frees one slot
        blocked.join().unwrap();
        while ring.drive() {}
        assert_eq!(ring.stats().completed.get(), 3);
    }

    #[test]
    fn shutdown_cancels_queued_and_refuses_new() {
        let st = storage(StorageLatencyConfig::disabled());
        let ring = manual_ring(&st);
        let done: Completion<bool> = Completion::new();
        let tx = done.clone();
        ring.submit_with(
            SqeOp::ReadPage(PageId(1)),
            0,
            Box::new(move |cqe| {
                tx.complete(matches!(cqe.result, Ok(CqePayload::Cancelled)));
            }),
        )
        .unwrap();
        ring.shutdown();
        assert_eq!(
            done.try_take(),
            Some(true),
            "queued continuation must run exactly once, as cancelled"
        );
        assert!(ring.submit(SqeOp::ReadPage(PageId(2)), 0).is_err());
        assert!(ring.wait_cqe().is_none(), "shut-down ring yields no CQEs");
    }

    #[test]
    fn workers_drain_and_overlap_charged_latency() {
        // 8 reads at 2ms each through 2 workers with batching must take
        // far less than 16ms of wall clock — the batch charges its max,
        // not its sum. This is the depth-scaling property the engine's
        // multi-in-flight loads build on.
        let st = storage(StorageLatencyConfig {
            read_ns: 2_000_000,
            write_ns: 2_000_000,
            sync_ns: 1_000_000,
            per_kib_ns: 0,
            codec_ns_per_kib: 0,
            scale: 1.0,
            enabled: true,
        });
        let mut ids = Vec::new();
        for i in 0..8u64 {
            let id = st.page_store().allocate_page_id();
            st.page_store()
                .write(id, Arc::new(format!("p{i}")))
                .unwrap();
            ids.push(id);
        }
        let ring = IoRing::new(Arc::clone(&st), IoRingConfig::default());
        let t0 = std::time::Instant::now();
        ring.submit_all(ids.iter().map(|id| (SqeOp::ReadPage(*id), id.0)).collect())
            .unwrap();
        let mut seen = 0;
        while seen < 8 {
            let cqe = ring.wait_cqe().expect("ring is live");
            assert!(matches!(cqe.result.unwrap(), CqePayload::Page(Some(_))));
            seen += 1;
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(12),
            "8×2ms reads must overlap, took {elapsed:?}"
        );
    }

    #[test]
    fn batch_charge_scales_with_physical_bytes() {
        use pmp_common::CompressionConfig;
        // Latency model with no base cost: the whole charge is the byte
        // term, so the counters compare pure bandwidth cost.
        let cfg = StorageLatencyConfig {
            read_ns: 0,
            write_ns: 0,
            sync_ns: 0,
            per_kib_ns: 1_024, // 1ns per byte: charge == physical bytes
            codec_ns_per_kib: 0,
            scale: 1.0,
            enabled: true,
        };
        let payload = "abcd".repeat(4096); // 16 KiB, highly compressible
        let mut charged = Vec::new();
        for comp in [CompressionConfig::off(), CompressionConfig::lz4()] {
            let st: Arc<SharedStorage<String>> =
                Arc::new(SharedStorage::new_with_compression(cfg, comp));
            let ring = manual_ring(&st);
            let id = st.page_store().allocate_page_id();
            ring.submit(SqeOp::WritePage(id, Arc::new(payload.clone())), 0)
                .unwrap();
            ring.drive();
            assert!(matches!(
                ring.reap().unwrap().result.unwrap(),
                CqePayload::Written
            ));
            // Read it back: the read charge follows the stored physical size.
            ring.submit(SqeOp::ReadPage(id), 1).unwrap();
            ring.drive();
            charged.push(st.page_store().stats().charged_io_ns.get());
        }
        assert_eq!(charged[0], 2 * 16_384, "Off charges raw bytes both ways");
        assert!(
            charged[1] < charged[0] / 4,
            "compressed write+read must charge  <1/4 of raw, got {} vs {}",
            charged[1],
            charged[0]
        );
    }

    /// Measures cold-read throughput as a function of in-flight depth; the
    /// EXPERIMENTS.md table is produced from this probe (the criterion
    /// bench mirrors it for `cargo bench`).
    #[test]
    #[ignore]
    fn depth_scaling_probe() {
        let st = storage(StorageLatencyConfig::realistic()); // 100µs reads
        let mut ids = Vec::new();
        for i in 0..64u64 {
            let id = st.page_store().allocate_page_id();
            st.page_store()
                .write(id, Arc::new(format!("p{i}")))
                .unwrap();
            ids.push(id);
        }
        for depth in [1usize, 2, 4, 8, 16, 32] {
            let ring = IoRing::new(
                Arc::clone(&st),
                IoRingConfig {
                    batch_limit: depth,
                    ..IoRingConfig::default()
                },
            );
            let rounds = 200;
            let t0 = std::time::Instant::now();
            for r in 0..rounds {
                let ops: Vec<_> = (0..depth)
                    .map(|i| (SqeOp::ReadPage(ids[(r + i) % ids.len()]), i as u64))
                    .collect();
                ring.submit_all(ops).unwrap();
                for _ in 0..depth {
                    ring.wait_cqe().unwrap();
                }
            }
            let elapsed = t0.elapsed();
            let total = (rounds * depth) as f64;
            println!(
                "depth {depth:>2}: {:>10.0} loads/s  ({:?} for {} loads)",
                total / elapsed.as_secs_f64(),
                elapsed,
                rounds * depth,
            );
        }
    }
}
