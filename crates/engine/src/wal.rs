//! The node's redo pipeline: atomic record groups, LLSN stamping and group
//! commit, §4.4.
//!
//! Two invariants the recovery design depends on are enforced here:
//!
//! 1. **Per-file LLSN monotonicity** — "LLSNs within a single log file are
//!    always incremental". LLSN allocation and the *byte-range reservation*
//!    in the stream happen under one mutex, so record order in the stream
//!    matches LLSN order. The actual encoding of the records into bytes is
//!    done outside that mutex (into the reserved range), keeping the
//!    critical section to an LLSN bump plus a stream-offset bump.
//! 2. **Mini-transaction atomicity** — all records of one mini-transaction
//!    (e.g. the three page images of a split) occupy a single
//!    `LogStream` reservation, and the stream's durability watermark never
//!    advances into an unfilled reservation: a crash either persists the
//!    whole group or none of it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmp_common::sync::{sched_point, LockClass, TrackedMutex};
use pmp_common::{CompressionConfig, Counter, Llsn, Lsn};
use pmp_rdma::precise_wait_ns;
use pmp_storage::{Codec, LogStream};

/// LLSN allocation + reservation critical section. Charge-free: encoding
/// and all storage waits happen outside it.
const WAL_LOG: LockClass = LockClass::new("engine.wal.log");
/// Group-commit serialization. The leader *deliberately* holds this across
/// the simulated fsync — that is the device-side serialization the group
/// commit protocol exists to amortize, so the charge-point assertion is
/// waived for this class.
const WAL_SYNC: LockClass = LockClass::charge_exempt(
    "engine.wal.sync",
    "group-commit leader holds the sync mutex across the fsync it performs on behalf of the batch",
);

use crate::llsn::LlsnClock;
use crate::redo::{LogFrame, RedoRecord};

/// Consecutive empty collect windows after which the leader stops waiting.
/// Any follower that rides a later fsync re-arms the window, so a lone
/// committer pays the window at most this many times per concurrency lull.
const EMPTY_WINDOW_LIMIT: u64 = 3;

/// Group-commit observability: how well the bounded-wait window amortizes
/// fsyncs. `fsyncs / commits < 1.0` at high concurrency is the whole point.
#[derive(Debug, Default)]
pub struct WalGroupStats {
    /// Fsync batches led (each charged exactly one storage sync).
    pub batches: Counter,
    /// Committers whose target was already durable when they got the sync
    /// mutex — they rode another leader's fsync for free.
    pub riders: Counter,
    /// Collect windows the leader actually waited out.
    pub windows_waited: Counter,
    /// Windows that closed without a single new arrival.
    pub empty_windows: Counter,
}

/// Callback fired (with the achieved durable LSN) by whichever fsync batch
/// covers an async committer's target — the group-commit wait class of the
/// transaction scheduler.
pub type ForceCallback = Box<dyn FnOnce(Lsn) + Send>;

/// Waker registered by the async force path. The sync-mutex pending-list
/// callback registry.
const WAL_PENDING: LockClass = LockClass::new("engine.wal.pending");

struct PendingForce {
    id: u64,
    target: Lsn,
    cb: ForceCallback,
}

impl std::fmt::Debug for PendingForce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingForce")
            .field("id", &self.id)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

/// The outcome of [`Wal::force_async`].
#[derive(Debug)]
pub enum ForceOutcome {
    /// The stream is durable at the returned LSN. A value short of the
    /// requested target means a crash truncated the stream — same contract
    /// as [`Wal::force`].
    Durable(Lsn),
    /// A leader holds the sync mutex; the registered callback fires once a
    /// covering fsync completes (or the crash drain runs).
    Pending,
}

/// The node WAL front-end.
#[derive(Debug)]
pub struct Wal {
    stream: Arc<LogStream>,
    /// Serializes LLSN allocation + byte-range reservation (invariant 1).
    log_mutex: TrackedMutex<()>,
    /// Serializes fsyncs so concurrent committers batch (group commit).
    sync_mutex: TrackedMutex<()>,
    llsn: LlsnClock,
    /// Bounded-wait collect window (ns). 0 = classic ride-only batching.
    window_ns: u64,
    /// Highest force target announced by any committer, durable or not.
    /// Announced *before* queueing on the sync mutex, so the current
    /// leader's fsync can cover arrivals it never sees as followers.
    pending_max: AtomicU64,
    /// Monotone count of `force` slow-path entries; the leader snapshots it
    /// around the collect window to detect whether anyone showed up.
    arrivals: AtomicU64,
    /// Consecutive windows that closed empty (adaptivity state).
    empty_streak: AtomicU64,
    /// Async committers parked on this group-commit round. Every entry is
    /// guaranteed a fire: a leader never releases the sync mutex while an
    /// unsatisfied entry exists (it loops, re-syncing to the grown
    /// `pending_max`), and `drain_pending_on_crash` fires the rest with the
    /// truncated watermark.
    pending_cbs: TrackedMutex<Vec<PendingForce>>,
    next_cb_id: AtomicU64,
    group: WalGroupStats,
    /// With log compression on, every group is wrapped in a [`LogFrame`] and
    /// compressed at fill time (outside the log mutex); the saved tail of
    /// the reservation is returned to the stream as a dead range.
    framed: bool,
    codec: Codec,
}

impl Wal {
    /// Uncompressed WAL: groups are raw concatenated records, bit-for-bit
    /// the pre-compression format.
    pub fn new(stream: Arc<LogStream>, group_window_us: u64) -> Self {
        Self::new_with_compression(stream, group_window_us, CompressionConfig::off())
    }

    pub fn new_with_compression(
        stream: Arc<LogStream>,
        group_window_us: u64,
        comp: CompressionConfig,
    ) -> Self {
        Wal {
            stream,
            log_mutex: TrackedMutex::new(WAL_LOG, ()),
            sync_mutex: TrackedMutex::new(WAL_SYNC, ()),
            llsn: LlsnClock::new(),
            window_ns: group_window_us.saturating_mul(1_000),
            pending_max: AtomicU64::new(0),
            arrivals: AtomicU64::new(0),
            empty_streak: AtomicU64::new(0),
            pending_cbs: TrackedMutex::new(WAL_PENDING, Vec::new()),
            next_cb_id: AtomicU64::new(0),
            group: WalGroupStats::default(),
            framed: comp.log_enabled(),
            codec: Codec::new(comp.compression),
        }
    }

    /// Whether groups on this stream are wrapped in [`LogFrame`]s.
    pub fn framed(&self) -> bool {
        self.framed
    }

    pub fn group_stats(&self) -> &WalGroupStats {
        &self.group
    }

    pub fn stream(&self) -> &Arc<LogStream> {
        &self.stream
    }

    pub fn llsn_clock(&self) -> &LlsnClock {
        &self.llsn
    }

    /// Append one atomic group of records. The builder runs under the log
    /// mutex and is handed the LLSN clock: for each page it mutates (the
    /// caller holds those pages' write latches) it allocates `clock.next()`,
    /// stamps the page, and returns the finished records. Returns the byte
    /// LSN one past the group (the force target for commit durability).
    ///
    /// Only LLSN allocation and the byte-range reservation run under
    /// `log_mutex`; the records are encoded into the reserved range
    /// *outside* the lock, so concurrent groups serialize on two counter
    /// bumps instead of on each other's serialization work.
    pub fn log_atomic(&self, build: impl FnOnce(&LlsnClock) -> Vec<RedoRecord>) -> Lsn {
        let (records, reservation) = {
            let _g = self.log_mutex.lock();
            let records = build(&self.llsn);
            debug_assert!(!records.is_empty(), "empty log group");
            let bytes: usize = records.iter().map(|r| r.encoded_len()).sum();
            let reserve = if self.framed {
                // Worst case: the codec does not win and the frame stores
                // the raw bytes. Whatever compression saves comes back as a
                // dead range at fill time — the reservation size (and with
                // it the force target) stays deterministic under the mutex.
                LogFrame::OVERHEAD + bytes
            } else {
                bytes
            };
            (records, self.stream.reserve(reserve))
        };
        // Encode (and compress) outside the log mutex, directly into the
        // reserved range — the critical section stays two counter bumps.
        let mut buf = Vec::with_capacity(reservation.len());
        for rec in &records {
            rec.encode_into(&mut buf);
        }
        let end = reservation.end();
        if self.framed {
            let raw_len = buf.len();
            let frame = LogFrame::encode(&self.codec, &buf);
            debug_assert!(frame.len() <= reservation.len());
            self.stream.fill_prefix(reservation, &frame, raw_len);
        } else {
            self.stream.fill(reservation, &buf);
        }
        end
    }

    /// Group commit: make everything up to `target` durable. If another
    /// committer's fsync already covered us this returns without I/O;
    /// otherwise exactly one fsync runs at a time and late arrivals ride on
    /// the leader's barrier (`sync_to` itself waits out any fills still in
    /// flight below `target`).
    ///
    /// Returns the achieved durable LSN. A return short of `target` means
    /// a crash truncated the stream underneath us — the caller's records
    /// can never become durable and anything gated on them (a commit
    /// acknowledgement, a DBP push) must not proceed.
    pub fn force(&self, target: Lsn) -> Lsn {
        let durable = self.stream.durable_lsn();
        if durable >= target {
            return durable;
        }
        // Announce our target before queueing on the sync mutex: the fill is
        // already complete (`force` runs after `log_atomic`), so the current
        // leader may fold us into its fsync even though we never reach the
        // mutex while it holds it.
        self.pending_max.fetch_max(target.0, Ordering::Release);
        self.arrivals.fetch_add(1, Ordering::Release);
        sched_point("wal.force.announce-window");
        let _g = self.sync_mutex.lock();
        let durable = self.stream.durable_lsn();
        if durable >= target {
            // A leader's batch covered us; concurrency is live, so re-arm
            // the collect window if emptiness had disabled it.
            self.group.riders.inc();
            self.empty_streak.store(0, Ordering::Relaxed); // lint: allow(relaxed-atomic): adaptive group-commit heuristic; a stale read costs one extra empty window
            drop(_g);
            self.rescue_orphans();
            return durable;
        }
        // We are the leader.
        let (achieved, fire) = self.lead_sync(target);
        drop(_g);
        for (cb, lsn) in fire {
            cb(lsn);
        }
        self.rescue_orphans();
        achieved
    }

    /// Serve async entries that slipped past a leader's final pending-scan
    /// (registered after the scan, before the mutex release). Every path
    /// that held the sync mutex calls this after releasing it, so a
    /// registrant whose `try_lock` failed is always reached: the holder it
    /// lost to rescans here after releasing.
    fn rescue_orphans(&self) {
        loop {
            if self.pending_cbs.lock().is_empty() {
                return;
            }
            let Some(_g) = self.sync_mutex.try_lock() else {
                // An active leader owns the list now (its own rescue pass
                // runs after it releases).
                return;
            };
            let target = {
                let cbs = self.pending_cbs.lock();
                match cbs.iter().map(|c| c.target).max() {
                    Some(t) => t,
                    None => return,
                }
            };
            let durable = self.stream.durable_lsn();
            let (_achieved, fire) = if durable >= target {
                let mut fire: Vec<(ForceCallback, Lsn)> = Vec::new();
                let mut cbs = self.pending_cbs.lock();
                let mut i = 0;
                while i < cbs.len() {
                    if cbs[i].target <= durable {
                        let e = cbs.remove(i);
                        fire.push((e.cb, durable));
                    } else {
                        i += 1;
                    }
                }
                drop(cbs);
                (durable, fire)
            } else {
                self.lead_sync(target)
            };
            drop(_g);
            for (cb, lsn) in fire {
                cb(lsn);
            }
        }
    }

    /// Leader body shared by [`Wal::force`] and [`Wal::force_async`]. Must
    /// be called with the sync mutex held and `target` not yet durable.
    /// Returns the achieved watermark plus the satisfied async callbacks,
    /// which the caller fires *after* releasing the sync mutex (they wake
    /// parked committers, which may immediately re-enter `force`).
    fn lead_sync(&self, target: Lsn) -> (Lsn, Vec<(ForceCallback, Lsn)>) {
        // Hold the door open for a bounded window so followers arriving
        // right behind us share this fsync instead of each paying their
        // own. The wait happens under the (charge-exempt) sync mutex by
        // design: it *is* the batch-formation time the group commit
        // protocol trades for fewer fsyncs. Two gates keep the wait from
        // becoming pure latency:
        //
        // * a group that has already formed skips it — if some follower
        //   announced an LSN beyond ours, this fsync amortizes without any
        //   waiting, and under saturation that is the steady state (every
        //   batch would otherwise pay the window for stragglers it mostly
        //   doesn't catch);
        // * adaptivity — after `EMPTY_WINDOW_LIMIT` windows with zero
        //   arrivals a lone committer stops paying the wait until riders
        //   reappear.
        if self.window_ns > 0
            && self.pending_max.load(Ordering::Acquire) <= target.0
            // lint: allow(relaxed-atomic): adaptive group-commit heuristic; a stale read costs one extra empty window
            && self.empty_streak.load(Ordering::Relaxed) < EMPTY_WINDOW_LIMIT
        {
            let before = self.arrivals.load(Ordering::Acquire);
            self.group.windows_waited.inc();
            precise_wait_ns(self.window_ns);
            if self.arrivals.load(Ordering::Acquire) == before {
                self.group.empty_windows.inc();
                self.empty_streak.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomic): adaptive group-commit heuristic; a stale read costs one extra empty window
            } else {
                self.empty_streak.store(0, Ordering::Relaxed); // lint: allow(relaxed-atomic): adaptive group-commit heuristic; a stale read costs one extra empty window
            }
        }
        let mut fire: Vec<(ForceCallback, Lsn)> = Vec::new();
        loop {
            // Sync the whole announced batch, not just our own target. A
            // pending announcement past the end of a crash-truncated stream
            // is harmless: `sync_to` bounds its fill wait through
            // `data.len()` and returns the achieved watermark, and each
            // caller judges that against its *own* target.
            let group_target = Lsn(target.0.max(self.pending_max.load(Ordering::Acquire)));
            self.group.batches.inc();
            // One covered sync suffices: `sync_to` waits out fills below
            // the target, so it returns short only when a crash truncated
            // the stream underneath us — durability can then never reach
            // `target`, and retrying would spin (charging an fsync per lap)
            // forever.
            sched_point("wal.lead-sync.window");
            let achieved = self.stream.sync_to(group_target);
            let unsatisfied = {
                let mut cbs = self.pending_cbs.lock();
                let mut i = 0;
                while i < cbs.len() {
                    if cbs[i].target <= achieved {
                        let e = cbs.remove(i);
                        fire.push((e.cb, achieved));
                    } else {
                        i += 1;
                    }
                }
                !cbs.is_empty()
            };
            if achieved < group_target {
                // Crash truncation: the stream can never reach the
                // remaining targets, so fire everything left with the
                // truncated watermark — each caller judges it against its
                // own target and fails the commit.
                let rest: Vec<PendingForce> = std::mem::take(&mut *self.pending_cbs.lock());
                for e in rest {
                    fire.push((e.cb, achieved));
                }
                return (achieved, fire);
            }
            if !unsatisfied {
                return (achieved, fire);
            }
            // Async committers announced (and registered) after our
            // `pending_max` read: their announce preceded their
            // registration, so looping with a fresh read strictly grows the
            // group target and this terminates.
        }
    }

    /// Async group commit: like [`Wal::force`], but instead of blocking
    /// behind an active leader the caller registers `on_durable` and parks.
    /// Returns [`ForceOutcome::Durable`] when the target is already covered
    /// or this thread led the batch itself (bounded inline work), and
    /// [`ForceOutcome::Pending`] when an active leader adopted the
    /// callback.
    pub fn force_async(&self, target: Lsn, on_durable: ForceCallback) -> ForceOutcome {
        let durable = self.stream.durable_lsn();
        if durable >= target {
            return ForceOutcome::Durable(durable);
        }
        self.pending_max.fetch_max(target.0, Ordering::Release);
        self.arrivals.fetch_add(1, Ordering::Release);
        // Register *before* probing the sync mutex: a leader never releases
        // the mutex with unsatisfied entries on the list, so once we are
        // registered either some leader fires us or our own try_lock below
        // succeeds and we lead.
        let id = self.next_cb_id.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomic): monotonic callback-id allocator
        self.pending_cbs.lock().push(PendingForce {
            id,
            target,
            cb: on_durable,
        });
        // Publish-then-check: a leader may have finished covering `target`
        // between the first durable check and our registration.
        let durable = self.stream.durable_lsn();
        if durable >= target {
            let mut cbs = self.pending_cbs.lock();
            if let Some(pos) = cbs.iter().position(|c| c.id == id) {
                cbs.remove(pos);
                return ForceOutcome::Durable(durable);
            }
            // A leader already claimed the callback; the wake is imminent
            // and the parked re-run will see the durable watermark.
            return ForceOutcome::Pending;
        }
        match self.sync_mutex.try_lock() {
            Some(_g) => {
                // Lead the batch inline (bounded: window + one or a few
                // covered fsyncs). Our own callback fires as part of it —
                // a harmless self-wake the parker absorbs.
                let (achieved, fire) = self.lead_sync(target);
                drop(_g);
                for (cb, lsn) in fire {
                    cb(lsn);
                }
                self.rescue_orphans();
                ForceOutcome::Durable(achieved)
            }
            None => ForceOutcome::Pending,
        }
    }

    /// Crash path: fire every pending async committer with the truncated
    /// durable watermark. Their targets can never be reached, so the parked
    /// commits wake, observe `forced < end` (or the epoch bump) and fail
    /// with `NodeUnavailable` — the "never acked" guarantee the
    /// failure-injection tests assert.
    pub fn drain_pending_on_crash(&self) {
        let durable = self.stream.durable_lsn();
        let cbs: Vec<PendingForce> = std::mem::take(&mut *self.pending_cbs.lock());
        for e in cbs {
            (e.cb)(durable);
        }
    }

    /// Rule 2 of §4.4: observing a fetched page advances the LLSN clock.
    pub fn observe_llsn(&self, page_llsn: Llsn) {
        self.llsn.observe(page_llsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redo::RedoOp;
    use pmp_common::{GlobalTrxId, PageId, StorageLatencyConfig, TableId};

    fn wal() -> Wal {
        wal_with_window(0)
    }

    fn wal_with_window(window_us: u64) -> Wal {
        Wal::new(
            Arc::new(LogStream::new(StorageLatencyConfig::disabled())),
            window_us,
        )
    }

    fn commit_rec() -> RedoRecord {
        RedoRecord {
            llsn: Llsn::ZERO,
            page: PageId::NULL,
            table: TableId(0),
            op: RedoOp::Commit {
                trx: GlobalTrxId::NONE,
                cts: pmp_common::Cts(1),
            },
        }
    }

    fn remove_rec(llsn: Llsn, key: u128) -> RedoRecord {
        RedoRecord {
            llsn,
            page: PageId(1),
            table: TableId(1),
            op: RedoOp::RemoveRow { key },
        }
    }

    #[test]
    fn log_atomic_returns_end_lsn() {
        let w = wal();
        let end1 = w.log_atomic(|_| vec![commit_rec()]);
        let end2 = w.log_atomic(|_| vec![commit_rec()]);
        assert!(end2 > end1);
        assert_eq!(w.stream().end_lsn(), end2);
    }

    #[test]
    fn force_is_batched() {
        let w = wal();
        let end = w.log_atomic(|_| vec![commit_rec()]);
        w.force(end);
        let syncs = w.stream().sync_count();
        w.force(end); // already durable → no new fsync
        assert_eq!(w.stream().sync_count(), syncs);
    }

    #[test]
    fn records_decode_back_in_order() {
        let w = wal();
        w.log_atomic(|c| vec![remove_rec(c.next(), 1), remove_rec(c.next(), 2)]);
        w.log_atomic(|c| vec![remove_rec(c.next(), 3)]);
        let end = w.stream().end_lsn();
        w.force(end);

        let chunk = w.stream().read_chunk(Lsn::ZERO, usize::MAX);
        let mut pos = 0;
        let mut llsns = Vec::new();
        while let Some((rec, used)) = RedoRecord::decode_from(&chunk.data[pos..]).unwrap() {
            llsns.push(rec.llsn);
            pos += used;
        }
        assert_eq!(llsns, vec![Llsn(1), Llsn(2), Llsn(3)]);
    }

    #[test]
    fn concurrent_groups_keep_llsn_monotone_in_stream() {
        use std::thread;
        let w = Arc::new(wal());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                thread::spawn(move || {
                    for _ in 0..200 {
                        w.log_atomic(|c| vec![remove_rec(c.next(), 0), remove_rec(c.next(), 1)]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        w.force(w.stream().end_lsn());
        let chunk = w.stream().read_chunk(Lsn::ZERO, usize::MAX);
        let mut pos = 0;
        let mut last = Llsn::ZERO;
        let mut count = 0;
        while let Some((rec, used)) = RedoRecord::decode_from(&chunk.data[pos..]).unwrap() {
            assert!(
                rec.llsn > last,
                "stream order must match LLSN order (invariant 1)"
            );
            last = rec.llsn;
            pos += used;
            count += 1;
        }
        assert_eq!(count, 4 * 200 * 2);
    }

    #[test]
    fn empty_windows_disable_the_wait() {
        // A lone committer pays the collect window only until the adaptive
        // streak trips, then every further force skips it.
        let w = wal_with_window(100);
        for _ in 0..10 {
            let end = w.log_atomic(|_| vec![commit_rec()]);
            w.force(end);
        }
        let g = w.group_stats();
        assert_eq!(g.windows_waited.get(), EMPTY_WINDOW_LIMIT);
        assert_eq!(g.empty_windows.get(), EMPTY_WINDOW_LIMIT);
        assert_eq!(g.batches.get(), 10, "every lone force still fsyncs");
        assert_eq!(g.riders.get(), 0);
        assert_eq!(w.stream().sync_count(), 10);
    }

    #[test]
    fn window_folds_concurrent_committer_into_leader_fsync() {
        use std::thread;
        let w = Arc::new(wal_with_window(20_000)); // generous: 20ms
        let end1 = w.log_atomic(|_| vec![commit_rec()]);
        let leader = {
            let w = Arc::clone(&w);
            thread::spawn(move || w.force(end1))
        };
        // Wait until the leader is inside its collect window, then arrive.
        while w.group_stats().windows_waited.get() == 0 {
            thread::yield_now();
        }
        let end2 = w.log_atomic(|_| vec![commit_rec()]);
        let achieved = w.force(end2);
        assert!(leader.join().unwrap() >= end1);
        assert!(achieved >= end2, "follower covered by the leader's batch");
        assert_eq!(w.stream().sync_count(), 1, "one fsync for both commits");
        assert_eq!(w.group_stats().batches.get(), 1);
        assert_eq!(w.group_stats().riders.get(), 1);
        assert_eq!(
            w.group_stats().empty_windows.get(),
            0,
            "an occupied window must not count toward the adaptive streak"
        );
    }

    #[test]
    fn riders_rearm_a_disabled_window() {
        use std::thread;
        let w = Arc::new(wal_with_window(100));
        // Trip the adaptive streak with lone commits.
        for _ in 0..5 {
            let end = w.log_atomic(|_| vec![commit_rec()]);
            w.force(end);
        }
        assert_eq!(w.group_stats().windows_waited.get(), EMPTY_WINDOW_LIMIT);
        // A burst of concurrent committers produces riders, re-arming the
        // window for the next lull.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let w = Arc::clone(&w);
                thread::spawn(move || {
                    for _ in 0..50 {
                        let end = w.log_atomic(|_| vec![commit_rec()]);
                        w.force(end);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        if w.group_stats().riders.get() == 0 {
            // Scheduling never overlapped two committers — nothing to
            // assert about re-arming.
            return;
        }
        if w.empty_streak.load(Ordering::Relaxed) >= EMPTY_WINDOW_LIMIT {
            // lint: allow(relaxed-atomic): adaptive group-commit heuristic; a stale read costs one extra empty window
            // The burst's serialized tail re-tripped the streak with lone
            // commits *after* the last rider (common on one CPU): the
            // window is legitimately disabled again, so there is nothing
            // to assert about the next commit.
            return;
        }
        let waited_before = w.group_stats().windows_waited.get();
        let end = w.log_atomic(|_| vec![commit_rec()]);
        w.force(end);
        assert!(
            w.group_stats().windows_waited.get() > waited_before,
            "a rider must reset the empty streak and re-enable the window"
        );
    }

    #[test]
    fn group_force_amortizes_fsyncs_under_concurrency() {
        use std::thread;
        let w = Arc::new(wal_with_window(100));
        let committers = 8;
        let per = 50;
        let handles: Vec<_> = (0..committers)
            .map(|_| {
                let w = Arc::clone(&w);
                thread::spawn(move || {
                    for _ in 0..per {
                        let end = w.log_atomic(|_| vec![commit_rec()]);
                        assert!(w.force(end) >= end);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = committers * per;
        assert!(
            w.stream().sync_count() <= total,
            "never more fsyncs than forces"
        );
        assert_eq!(
            w.stream().sync_count(),
            w.group_stats().batches.get(),
            "every fsync on this stream is a led batch"
        );
    }

    #[test]
    fn force_async_leads_inline_when_uncontended() {
        use std::sync::atomic::AtomicBool;
        let w = wal();
        let end = w.log_atomic(|_| vec![commit_rec()]);
        let fired = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&fired);
        match w.force_async(
            end,
            Box::new(move |_| {
                f.store(true, Ordering::SeqCst);
            }),
        ) {
            ForceOutcome::Durable(achieved) => assert!(achieved >= end),
            ForceOutcome::Pending => panic!("no leader was active"),
        }
        assert!(
            fired.load(Ordering::SeqCst),
            "the inline lead fires the caller's own callback (self-wake)"
        );
        assert_eq!(w.stream().sync_count(), 1);
        // Already durable: pure fast path, callback dropped unfired.
        match w.force_async(end, Box::new(|_| panic!("must not fire"))) {
            ForceOutcome::Durable(achieved) => assert!(achieved >= end),
            ForceOutcome::Pending => panic!("already durable"),
        }
        assert_eq!(w.stream().sync_count(), 1, "no extra fsync when covered");
    }

    #[test]
    fn force_async_behind_leader_is_fired_by_the_leader() {
        use std::sync::mpsc;
        use std::thread;
        let w = Arc::new(wal_with_window(50_000)); // hold the leader in its window
        let end1 = w.log_atomic(|_| vec![commit_rec()]);
        let leader = {
            let w = Arc::clone(&w);
            thread::spawn(move || w.force(end1))
        };
        while w.group_stats().windows_waited.get() == 0 {
            thread::yield_now();
        }
        // Leader is mid-window holding the sync mutex: an async committer
        // must go Pending and be fired by the leader's batch.
        let end2 = w.log_atomic(|_| vec![commit_rec()]);
        let (tx, rx) = mpsc::channel::<Lsn>();
        match w.force_async(
            end2,
            Box::new(move |achieved| {
                let _ = tx.send(achieved);
            }),
        ) {
            ForceOutcome::Pending => {
                let achieved = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("leader must fire the pending callback");
                assert!(achieved >= end2, "the group sync covers the late target");
            }
            // The leader finished its window before we probed the mutex —
            // scheduling race, the inline path is exercised elsewhere.
            ForceOutcome::Durable(achieved) => assert!(achieved >= end2),
        }
        assert!(leader.join().unwrap() >= end1);
    }

    #[test]
    fn drain_pending_on_crash_fires_with_truncated_watermark() {
        use std::sync::mpsc;
        let w = wal();
        let end = w.log_atomic(|_| vec![commit_rec()]);
        // Simulate a committer that registered and parked (no leader runs).
        let (tx, rx) = mpsc::channel::<Lsn>();
        w.pending_cbs.lock().push(PendingForce {
            id: 999,
            target: end,
            cb: Box::new(move |achieved| {
                let _ = tx.send(achieved);
            }),
        });
        w.stream().crash();
        w.drain_pending_on_crash();
        let achieved = rx.try_recv().expect("drain fires synchronously");
        assert!(
            achieved < end,
            "the truncated watermark can never satisfy the lost record"
        );
        assert!(w.pending_cbs.lock().is_empty());
    }

    fn framed_wal() -> Wal {
        Wal::new_with_compression(
            Arc::new(LogStream::new(StorageLatencyConfig::disabled())),
            0,
            CompressionConfig::lz4(),
        )
    }

    #[test]
    fn framed_groups_compress_and_roundtrip_through_gather_read() {
        let w = framed_wal();
        assert!(w.framed());
        for batch in 0..10u64 {
            w.log_atomic(|c| {
                (0..8)
                    .map(|k| remove_rec(c.next(), (batch * 8 + k) as u128))
                    .collect()
            });
        }
        let end = w.stream().end_lsn();
        assert!(w.force(end) >= end, "force target is the reservation end");
        assert!(
            w.stream().physical_byte_count() < w.stream().logical_byte_count(),
            "repetitive groups must compress: {} physical vs {} logical",
            w.stream().physical_byte_count(),
            w.stream().logical_byte_count()
        );
        // Recovery-style read: gather across the dead tails, then decode
        // frame-by-frame and records within each frame.
        let chunk = w.stream().read_gather_uncharged(Lsn::ZERO, usize::MAX);
        let codec = Codec::new(pmp_common::Compression::Lz4Like);
        let mut pos = 0;
        let mut llsns = Vec::new();
        while let Some((raw, used)) = LogFrame::decode(&codec, &chunk.data[pos..]).unwrap() {
            let mut rpos = 0;
            while let Some((rec, rused)) = RedoRecord::decode_from(&raw[rpos..]).unwrap() {
                llsns.push(rec.llsn);
                rpos += rused;
            }
            assert_eq!(rpos, raw.len(), "frames hold whole records");
            pos += used;
        }
        assert_eq!(pos, chunk.data.len());
        assert_eq!(llsns.len(), 80);
        assert!(
            llsns.windows(2).all(|w| w[0] < w[1]),
            "LLSN order preserved"
        );
    }

    #[test]
    fn framed_concurrent_groups_keep_llsn_monotone() {
        use std::thread;
        let w = Arc::new(framed_wal());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                thread::spawn(move || {
                    for _ in 0..100 {
                        let end = w
                            .log_atomic(|c| vec![remove_rec(c.next(), 0), remove_rec(c.next(), 1)]);
                        assert!(w.force(end) >= end);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let chunk = w.stream().read_gather_uncharged(Lsn::ZERO, usize::MAX);
        let codec = Codec::new(pmp_common::Compression::Lz4Like);
        let mut pos = 0;
        let mut last = Llsn::ZERO;
        let mut count = 0;
        while let Some((raw, used)) = LogFrame::decode(&codec, &chunk.data[pos..]).unwrap() {
            let mut rpos = 0;
            while let Some((rec, rused)) = RedoRecord::decode_from(&raw[rpos..]).unwrap() {
                assert!(rec.llsn > last, "stream order must match LLSN order");
                last = rec.llsn;
                rpos += rused;
                count += 1;
            }
            pos += used;
        }
        assert_eq!(count, 4 * 100 * 2);
    }

    #[test]
    fn observe_feeds_clock() {
        let w = wal();
        w.observe_llsn(Llsn(41));
        let end = w.log_atomic(|c| vec![remove_rec(c.next(), 9)]);
        w.force(end);
        let chunk = w.stream().read_chunk(Lsn::ZERO, usize::MAX);
        let (rec, _) = RedoRecord::decode_from(&chunk.data).unwrap().unwrap();
        assert_eq!(rec.llsn, Llsn(42));
    }
}
