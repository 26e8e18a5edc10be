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
//!
//! Group commit ([`Wal::force`]) is written once against the scheduler's
//! wait path ([`Waiter`]): whoever finds the sync mutex free leads one
//! fsync for everything announced; everyone else registers a waker and
//! suspends — a task parks, a thread blocks — until a leader's fsync covers
//! it or hands it the lead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmp_common::sync::{sched_point, LockClass, TrackedMutex, TrackedMutexGuard};
use pmp_common::{CompressionConfig, Counter, Llsn, Lsn, Result};
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
use crate::scheduler::{backstop, Waiter, Waker};

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
    /// Committers that announced a target and found it durable without
    /// leading — they rode another leader's fsync for free.
    pub riders: Counter,
    /// Collect windows the leader actually waited out.
    pub windows_waited: Counter,
    /// Windows that closed without a single new arrival.
    pub empty_windows: Counter,
}

/// The followers' registry.
const WAL_PENDING: LockClass = LockClass::new("engine.wal.pending");

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
    /// Committers suspended behind a leader, by registration id. Every
    /// entry is guaranteed a wake: whoever releases the sync mutex then
    /// wakes them all, and so does `drain_pending_on_crash`.
    pending: TrackedMutex<Vec<(u64, Waker)>>,
    next_id: AtomicU64,
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
            pending: TrackedMutex::new(WAL_PENDING, Vec::new()),
            next_id: AtomicU64::new(0),
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
    /// acknowledgement, a DBP push) must not proceed. `Err` is only ever
    /// [`PmpError::WouldBlock`](pmp_common::PmpError::WouldBlock), for a
    /// task that suspended behind a leader; a thread always gets `Ok`.
    ///
    /// `registration` is the caller's entry in the followers' registry,
    /// `None` before the first call. A task keeps it across its suspends and
    /// calls again with it when woken, so one wait announces itself once,
    /// holds one entry and counts as one rider however often it is re-run.
    pub fn force(&self, target: Lsn, registration: &mut Option<u64>) -> Result<Lsn> {
        let durable = self.stream.durable_lsn();
        if durable >= target {
            if let Some(id) = registration.take() {
                // Re-run of a wait some leader's fsync covered.
                self.unregister(id);
                self.rode();
            }
            return Ok(durable);
        }
        let id = *registration.get_or_insert_with(|| {
            // Announce our target before anything else: the fill is already
            // complete (`force` runs after `log_atomic`), so the current
            // leader may fold us into its fsync without ever seeing us.
            self.pending_max.fetch_max(target.0, Ordering::Release);
            self.arrivals.fetch_add(1, Ordering::Release);
            sched_point("wal.force.announce-window");
            self.next_id.fetch_add(1, Ordering::Relaxed) // lint: allow(relaxed-atomic): monotonic registration-id allocator
        });
        let waiter = Waiter::current();
        loop {
            // Register *before* probing the sync mutex: whoever holds it
            // scans the registry after releasing it, so once we are
            // registered either that scan wakes us or our own try_lock
            // succeeds and we lead.
            self.register(id, waiter.waker());
            if let Some(sync) = self.sync_mutex.try_lock() {
                self.unregister(id);
                *registration = None;
                return Ok(self.lead(target, sync));
            }
            // Publish-then-check: the leader may have covered `target`
            // before our registration, and then its scan owes us nothing.
            let durable = self.stream.durable_lsn();
            if durable >= target {
                self.unregister(id);
                *registration = None;
                self.rode();
                return Ok(durable);
            }
            sched_point("wal.force.follow");
            // A covering fsync, a hand-off of the lead or the crash drain
            // wakes us.
            waiter.suspend(backstop())?;
        }
    }

    /// Enter the registry, or — a re-check after a wake that was not a
    /// leader's scan — replace the waker of the entry still there.
    fn register(&self, id: u64, waker: Waker) {
        let mut pending = self.pending.lock();
        match pending.iter_mut().find(|e| e.0 == id) {
            Some(entry) => entry.1 = waker,
            None => pending.push((id, waker)),
        }
    }

    fn unregister(&self, id: u64) {
        self.pending.lock().retain(|e| e.0 != id);
    }

    /// A leader's batch covered this committer: concurrency is live, so
    /// re-arm the collect window if emptiness had disabled it.
    fn rode(&self) {
        self.group.riders.inc();
        self.empty_streak.store(0, Ordering::Relaxed); // lint: allow(relaxed-atomic): adaptive group-commit heuristic; a stale read costs one extra empty window
    }

    /// With the sync mutex ours: lead one batch — the collect window and a
    /// single fsync of everything announced — unless the previous leader
    /// already covered `target`; release the mutex; wake the followers.
    ///
    /// Leadership is bounded: one fsync per call. A follower the fsync did
    /// not cover is not served by looping here — woken with the rest, it
    /// finds the mutex free and leads the next batch.
    fn lead(&self, target: Lsn, sync: TrackedMutexGuard<'_, ()>) -> Lsn {
        let durable = self.stream.durable_lsn();
        if durable >= target {
            drop(sync);
            self.rode();
            self.wake_followers();
            return durable;
        }
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
        // Sync the whole announced batch, not just our own target. A
        // pending announcement past the end of a crash-truncated stream is
        // harmless: `sync_to` bounds its fill wait through `data.len()` and
        // returns the achieved watermark, and each caller judges that
        // against its *own* target.
        let group_target = Lsn(target.0.max(self.pending_max.load(Ordering::Acquire)));
        self.group.batches.inc();
        sched_point("wal.lead-sync.window");
        // One covered sync suffices: `sync_to` waits out fills below the
        // target, so it returns short only when a crash truncated the
        // stream underneath us — durability can then never reach `target`,
        // and retrying would spin (charging an fsync per lap) forever.
        let achieved = self.stream.sync_to(group_target);
        drop(sync);
        self.wake_followers();
        achieved
    }

    /// Wake the registered followers to re-check: the covered ones return,
    /// and of the rest (they announced after the leader sized its batch, or
    /// a crash truncated the stream) whoever gets the sync mutex leads next.
    /// Runs *after* the mutex is released, with no lock held while the
    /// wakers fire (a woken committer may immediately re-enter `force`): a
    /// follower that registers after this scan finds the mutex free and
    /// leads itself, and one that registered before it is seen here.
    fn wake_followers(&self) {
        let wake = std::mem::take(&mut *self.pending.lock());
        for (_, waker) in wake {
            waker.wake();
        }
    }

    /// Crash path: wake every suspended committer. Their targets can never
    /// be reached, so they re-check, lead a sync that returns the truncated
    /// watermark, observe `forced < end` (or the epoch bump) and fail with
    /// `NodeUnavailable` — the "never acked" guarantee the
    /// failure-injection tests assert.
    pub fn drain_pending_on_crash(&self) {
        self.wake_followers();
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

    impl Wal {
        /// Test support: run `f` as a leader stuck mid-batch would see it — the
        /// sync mutex held — then release it the way a leader does.
        pub(crate) fn while_leading<R>(&self, f: impl FnOnce() -> R) -> R {
            let sync = self.sync_mutex.lock();
            let out = f();
            drop(sync);
            self.wake_followers();
            out
        }
    }

    fn wal() -> Wal {
        wal_with_window(0)
    }

    fn wal_with_window(window_us: u64) -> Wal {
        Wal::new(
            Arc::new(LogStream::new(StorageLatencyConfig::disabled())),
            window_us,
        )
    }

    /// One force for a plain thread (which never sees `Err`).
    fn force(w: &Wal, target: Lsn) -> Lsn {
        w.force(target, &mut None).expect("a thread waits in place")
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
        force(&w, end);
        let syncs = w.stream().sync_count();
        force(&w, end); // already durable → no new fsync
        assert_eq!(w.stream().sync_count(), syncs);
    }

    #[test]
    fn records_decode_back_in_order() {
        let w = wal();
        w.log_atomic(|c| vec![remove_rec(c.next(), 1), remove_rec(c.next(), 2)]);
        w.log_atomic(|c| vec![remove_rec(c.next(), 3)]);
        let end = w.stream().end_lsn();
        force(&w, end);

        let chunk = w.stream().read_chunk(Lsn::ZERO, usize::MAX).unwrap();
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
        force(&w, w.stream().end_lsn());
        let chunk = w.stream().read_chunk(Lsn::ZERO, usize::MAX).unwrap();
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
            force(&w, end);
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
            thread::spawn(move || force(&w, end1))
        };
        // Wait until the leader is inside its collect window, then arrive.
        while w.group_stats().windows_waited.get() == 0 {
            thread::yield_now();
        }
        let end2 = w.log_atomic(|_| vec![commit_rec()]);
        let achieved = force(&w, end2);
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
            force(&w, end);
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
                        force(&w, end);
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
            // The burst's serialized tail re-tripped the streak with lone
            // commits *after* the last rider (common on one CPU): the
            // window is legitimately disabled again, so there is nothing
            // to assert about the next commit.
            return;
        }
        let waited_before = w.group_stats().windows_waited.get();
        let end = w.log_atomic(|_| vec![commit_rec()]);
        force(&w, end);
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
                        assert!(force(&w, end) >= end);
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
    fn task_behind_a_leader_parks_and_the_leaders_scan_wakes_it() {
        use crate::scheduler::{eventually, Scheduler, StepResult};
        let w = Arc::new(wal());
        let end = w.log_atomic(|_| vec![commit_rec()]);
        let sched = Scheduler::new(1);
        let forced = Arc::new(TrackedMutex::new(WAL_PENDING, None));
        let (w2, f2) = (Arc::clone(&w), Arc::clone(&forced));
        // Behind a leader whose fsync does not cover it: once the leader
        // releases the mutex, its scan hands the task the lead.
        let mut registration = None;
        w.while_leading(|| {
            let parker = sched.spawn(Box::new(move || match w2.force(end, &mut registration) {
                Ok(lsn) => {
                    *f2.lock() = Some(lsn);
                    StepResult::Done
                }
                Err(e) => {
                    assert_eq!(e, pmp_common::PmpError::WouldBlock);
                    StepResult::Parked
                }
            }));
            eventually("task never parked", || parker.is_parked());
            assert_eq!(w.pending.lock().len(), 1, "registered before it parked");
            assert_eq!(w.stream().sync_count(), 0);
        });
        eventually("task never led", || forced.lock().is_some());
        assert!(forced.lock().unwrap() >= end);
        assert_eq!(w.stream().sync_count(), 1);
        assert!(w.pending.lock().is_empty());
        assert_eq!(sched.stats().timer_fires.get(), 0, "woken, not timed out");
    }

    #[test]
    fn a_rerun_task_holds_one_registration_and_counts_one_ride() {
        use crate::scheduler::{eventually, Scheduler, StepResult};
        use std::sync::atomic::AtomicUsize;
        let w = Arc::new(wal());
        let end = w.log_atomic(|_| vec![commit_rec()]);
        let sched = Scheduler::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let (w2, r2) = (Arc::clone(&w), Arc::clone(&runs));
        let mut registration = None;
        w.while_leading(|| {
            let parker = sched.spawn(Box::new(move || {
                r2.fetch_add(1, Ordering::SeqCst);
                match w2.force(end, &mut registration) {
                    Ok(_) => StepResult::Done,
                    Err(_) => StepResult::Parked,
                }
            }));
            eventually("task never parked", || parker.is_parked());
            // Wakes that are not a leader's scan (a stale timer, another
            // source's late waker) re-run the wait: still one entry, one
            // announcement.
            for rerun in 2..=4 {
                parker.wake();
                eventually("task never re-parked", || {
                    runs.load(Ordering::SeqCst) == rerun && parker.is_parked()
                });
                assert_eq!(w.pending.lock().len(), 1, "re-run {rerun} registered again");
                assert_eq!(w.arrivals.load(Ordering::Acquire), 1);
            }
            // The leader's fsync covers it.
            w.stream().sync_to(end);
        });
        eventually("task never finished", || sched.stats().tasks.get() == 0);
        let g = w.group_stats();
        assert_eq!((g.riders.get(), g.batches.get()), (1, 0), "it rode");
        assert!(w.pending.lock().is_empty());
    }

    #[test]
    fn crash_drain_wakes_followers_to_a_truncated_watermark() {
        use crate::scheduler::eventually;
        let w = Arc::new(wal());
        let end = w.log_atomic(|_| vec![commit_rec()]);
        let leader = w.sync_mutex.lock();
        let follower = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || force(&w, end))
        };
        eventually("follower never registered", || w.pending.lock().len() == 1);
        w.stream().crash();
        drop(leader);
        w.drain_pending_on_crash();
        let achieved = follower.join().unwrap();
        assert!(
            achieved < end,
            "the truncated watermark can never satisfy the lost record"
        );
        assert!(w.pending.lock().is_empty());
    }

    #[test]
    fn group_commit_leadership_is_one_fsync_per_call() {
        use std::thread;
        // 8 blocking committers x 200 commits on a 20 us window and a 50 us
        // fsync: every call returns covered, fsyncs amortize, and no call
        // leads more than one batch — each slow-path call either rode or
        // led exactly once.
        let w = Arc::new(Wal::new(
            Arc::new(LogStream::new(StorageLatencyConfig::realistic())),
            20,
        ));
        let (committers, per) = (8u64, 200u64);
        let handles: Vec<_> = (0..committers)
            .map(|_| {
                let w = Arc::clone(&w);
                thread::spawn(move || {
                    for _ in 0..per {
                        let end = w.log_atomic(|_| vec![commit_rec()]);
                        assert!(force(&w, end) >= end);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = w.group_stats();
        let slow_path_calls = w.arrivals.load(Ordering::Acquire);
        assert_eq!(g.batches.get() + g.riders.get(), slow_path_calls);
        assert!(
            g.batches.get() < committers * per,
            "8 committers behind a 50 us fsync must share some ({} batches)",
            g.batches.get()
        );
        assert_eq!(w.stream().sync_count(), g.batches.get());
        assert!(w.pending.lock().is_empty(), "nobody left suspended");
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
        assert!(force(&w, end) >= end, "force target is the reservation end");
        assert!(
            w.stream().physical_byte_count() < w.stream().logical_byte_count(),
            "repetitive groups must compress: {} physical vs {} logical",
            w.stream().physical_byte_count(),
            w.stream().logical_byte_count()
        );
        // Recovery-style read: gather across the dead tails, then decode
        // frame-by-frame and records within each frame.
        let chunk = w
            .stream()
            .read_gather_uncharged(Lsn::ZERO, usize::MAX)
            .unwrap();
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
                        assert!(force(&w, end) >= end);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let chunk = w
            .stream()
            .read_gather_uncharged(Lsn::ZERO, usize::MAX)
            .unwrap();
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
        force(&w, end);
        let chunk = w.stream().read_chunk(Lsn::ZERO, usize::MAX).unwrap();
        let (rec, _) = RedoRecord::decode_from(&chunk.data).unwrap().unwrap();
        assert_eq!(rec.llsn, Llsn(42));
    }
}
