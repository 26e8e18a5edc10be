//! Buffer Fusion and the distributed buffer pool (DBP), §4.2 / Figure 4.
//!
//! Nodes push updated pages into the DBP and fetch peers' updates from it
//! over one-sided RDMA, so a page modified on node A reaches node B in
//! microseconds instead of a storage round-trip plus log replay (the
//! Taurus-MM coherence path the paper contrasts against, §2.3).
//!
//! For each page the DBP keeps the metadata from Figure 4: the page's
//! address in disaggregated memory (`r_addr`, modelled by the map entry),
//! the node ids holding copies, and the registered addresses of their
//! `valid` flags. When a new version of a page is stored, Buffer Fusion
//! remotely clears the other holders' flags ("remotely invalidates the
//! copies on other nodes via the address of the invalid flag").
//!
//! Capacity management: the DBP is a cache over shared storage. Evicting an
//! entry writes the page back through an injected [`EvictionSink`] (so the
//! latest version is never lost) and invalidates every holder's copy (so no
//! node can keep trusting a copy whose future invalidations would have no
//! directory entry to flow through). The write-back is asynchronous: the
//! pushing statement only *picks* the victim and queues its image at the
//! sink; the directory entry is removed by the sink's completion, after the
//! image has landed (DESIGN.md §12, "DBP eviction: submit / complete").
//! A storage checkpoint runs the same two halves over every dirty entry
//! ([`BufferFusion::write_back_all`]) with a completion that keeps the entry
//! and marks it clean instead of removing it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use pmp_common::sync::{assert_charge_point, sched_point, LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{Counter, Gauge, Llsn, NodeId, PageId};
use pmp_repl::{Locality, ReplicatedFabric};

/// DBP directory shards. Every op touches exactly one shard.
const DBP_SHARD: LockClass = LockClass::new("pmfs.dbp.shard");
/// The eviction-sink slot (taken only to clone the `Arc`).
const DBP_SINK: LockClass = LockClass::new("pmfs.dbp.sink");
/// Gate of the queued-write-back gauge (bound check and `drain_evictions`).
const DBP_WRITEBACKS: LockClass = LockClass::new("pmfs.dbp.writebacks");

/// Write-backs that may be queued at the sink at once, cluster-wide. Past
/// it the evicting thread writes its victim back itself instead of waiting
/// for a slot, so a burst (bulk load) spreads the codec work over its
/// producers rather than serialising it behind the one consumer.
pub const MAX_QUEUED_WRITEBACKS: usize = 64;

/// How a write-back ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteBackOutcome {
    /// Shared storage holds the image.
    Written,
    /// Cancelled at sink shutdown, or refused by the store: storage does
    /// not hold the image, so the directory entry must stay.
    NotWritten,
}

/// Completion of a queued write-back; runs exactly once, on whichever
/// thread finishes (or cancels) the write.
pub type WriteBackDone = Box<dyn FnOnce(WriteBackOutcome) + Send>;

/// One write-back handed to [`EvictionSink::submit`].
pub struct QueuedWriteBack<P> {
    pub page_id: PageId,
    pub page: Arc<P>,
    pub llsn: Llsn,
    pub done: WriteBackDone,
}

/// Where DBP pages are written back (wired to the shared page store by the
/// cluster assembly).
pub trait EvictionSink<P>: Send + Sync {
    /// Write the page on the calling thread, paying the storage wait.
    fn write_now(&self, page_id: PageId, page: Arc<P>, llsn: Llsn) -> WriteBackOutcome;

    /// Queue the write-backs — one submission, so at most one wake of the
    /// sink's consumer — and return without waiting for them. A sink
    /// without a queue (the default) writes on the calling thread.
    fn submit(&self, batch: Vec<QueuedWriteBack<P>>) {
        for w in batch {
            (w.done)(self.write_now(w.page_id, w.page, w.llsn));
        }
    }
}

/// No-op sink for tests that never overflow the DBP.
pub struct DiscardSink;

impl<P> EvictionSink<P> for DiscardSink {
    fn write_now(&self, _page_id: PageId, _page: Arc<P>, _llsn: Llsn) -> WriteBackOutcome {
        WriteBackOutcome::Written
    }
}

/// Where the image handed to [`BufferFusion::register_push`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageSource {
    /// Just read from shared storage: storage holds exactly this image, so
    /// evicting it unmodified needs no write-back.
    Storage,
    /// Built or modified in a node's memory (page split, dirty frame
    /// re-registered after a DBP loss): storage may be older.
    Memory,
}

#[derive(Debug)]
struct Holder {
    node: NodeId,
    valid_flag: Arc<AtomicBool>,
}

#[derive(Debug)]
struct DbpEntry<P> {
    page: Arc<P>,
    llsn: Llsn,
    /// LLSN shared storage is known to hold for this page, set by a
    /// registration that follows a storage load and by a write-back that
    /// landed. An entry whose `llsn` equals it is clean.
    stored_llsn: Option<Llsn>,
    holders: Vec<Holder>,
}

impl<P> DbpEntry<P> {
    /// Shared storage is not known to hold this version.
    fn is_dirty(&self) -> bool {
        self.stored_llsn != Some(self.llsn)
    }
}

#[derive(Debug)]
struct Shard<P> {
    entries: HashMap<PageId, DbpEntry<P>>,
    fifo: VecDeque<PageId>,
    /// Victims picked whose write-back has not completed. They are still in
    /// `entries` (and out of `fifo`), so the shard is over capacity only by
    /// what exceeds them.
    in_flight: usize,
}

/// What a write-back's completion does with the entry once storage holds
/// its image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AfterWrite {
    /// Eviction: remove the entry (unless a push made it newer meanwhile).
    Evict,
    /// Storage checkpoint: the entry stays served.
    Keep,
}

/// What the submit half of an eviction picked.
enum Victim<P> {
    /// Storage already holds the image: the entry is gone, these are its
    /// holders' flags.
    Clean(Vec<Arc<AtomicBool>>),
    Dirty(PageId, Arc<P>, Llsn),
}

/// Per-service meters.
#[derive(Debug, Default)]
pub struct BufferFusionStats {
    pub hits: Counter,
    pub misses: Counter,
    pub fetches: Counter,
    pub pushes: Counter,
    pub invalidations: Counter,
    pub evictions: Counter,
    /// Evictions that needed no storage write (subset of `evictions`).
    pub clean_evictions: Counter,
    /// Write-backs queued at the sink.
    pub writebacks_submitted: Counter,
    /// Write-backs the evicting thread ran itself because
    /// [`MAX_QUEUED_WRITEBACKS`] were already queued.
    pub writebacks_helped: Counter,
    /// Write-backs queued right now, with high-water mark.
    pub writebacks_queued: Gauge,
    /// Write-backs a storage checkpoint ran (queued or helped); their
    /// entries stayed in the DBP.
    pub checkpoint_writebacks: Counter,
    /// Write-backs that did not land (refused by the store, or cancelled
    /// at sink shutdown); their entries stayed dirty.
    pub writebacks_failed: Counter,
}

const SHARDS: usize = 64;

/// The Buffer Fusion service and its distributed buffer pool.
///
/// Page payloads written into the DBP go through
/// [`ReplicatedFabric::bulk_write`], which lands the bytes on every live
/// PMFS replica; the directory metadata (holders, valid-flag addresses) is
/// RPC-served and shipped to the backups via `replicate_mutation`
/// (DESIGN.md §15).
pub struct BufferFusion<P> {
    repl: Arc<ReplicatedFabric>,
    shards: Vec<TrackedMutex<Shard<P>>>,
    per_shard_capacity: usize,
    page_bytes: usize,
    stats: BufferFusionStats,
    sink: TrackedMutex<Option<Arc<dyn EvictionSink<P>>>>,
    /// Held to move `stats.writebacks_queued`, so the bound check and the
    /// increment are one step; `queued_cv` signals the gauge reaching zero.
    queued_gate: TrackedMutex<()>,
    queued_cv: TrackedCondvar,
    /// Bumped by every [`clear`](Self::clear): what was pushed under an
    /// older epoch may exist nowhere but in the pushers' redo.
    loss_epoch: AtomicU64,
    /// For the completion closures queued at the sink.
    me: Weak<Self>,
}

impl<P> std::fmt::Debug for BufferFusion<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferFusion")
            .field("stats", &self.stats)
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish_non_exhaustive()
    }
}

impl<P: Send + Sync + 'static> BufferFusion<P> {
    pub fn new(repl: Arc<ReplicatedFabric>, capacity: usize, page_bytes: usize) -> Arc<Self> {
        Arc::new_cyclic(|me| BufferFusion {
            repl,
            shards: (0..SHARDS)
                .map(|_| {
                    TrackedMutex::new(
                        DBP_SHARD,
                        Shard {
                            entries: HashMap::new(),
                            fifo: VecDeque::new(),
                            in_flight: 0,
                        },
                    )
                })
                .collect(),
            per_shard_capacity: (capacity / SHARDS).max(1),
            page_bytes,
            stats: BufferFusionStats::default(),
            sink: TrackedMutex::new(DBP_SINK, None),
            queued_gate: TrackedMutex::new(DBP_WRITEBACKS, ()),
            queued_cv: TrackedCondvar::new(),
            loss_epoch: AtomicU64::new(0),
            me: me.clone(),
        })
    }

    /// Install the write-back sink (the shared page store).
    pub fn set_eviction_sink(&self, sink: Arc<dyn EvictionSink<P>>) {
        *self.sink.lock() = Some(sink);
    }

    pub fn stats(&self) -> &BufferFusionStats {
        &self.stats
    }

    fn shard_index(id: PageId) -> usize {
        (id.0 as usize) & (SHARDS - 1)
    }

    fn shard(&self, id: PageId) -> &TrackedMutex<Shard<P>> {
        &self.shards[Self::shard_index(id)]
    }

    /// RPC: "is page X in the DBP?" On a hit the caller is registered as a
    /// holder and the page is transferred (RPC + one-sided read). On a miss
    /// the caller reads shared storage and follows up with
    /// [`register_push`](Self::register_push).
    pub fn lookup_or_register(
        &self,
        caller: NodeId,
        page_id: PageId,
        valid_flag: Arc<AtomicBool>,
    ) -> Option<(Arc<P>, Llsn)> {
        let out = self.repl.rpc(32, || {
            let mut shard = self.shard(page_id).lock();
            match shard.entries.get_mut(&page_id) {
                Some(entry) => {
                    self.stats.hits.inc();
                    upsert_holder(entry, caller, valid_flag);
                    let out = (Arc::clone(&entry.page), entry.llsn);
                    drop(shard);
                    self.repl.bulk_read(self.page_bytes, Locality::Remote);
                    Some(out)
                }
                None => {
                    self.stats.misses.inc();
                    None
                }
            }
        });
        if out.is_some() {
            // The holder registration mutated the directory: ship it to the
            // PMFS backups.
            self.repl.replicate_mutation(32);
        }
        out
    }

    /// After a storage read on a DBP miss, the loading node registers the
    /// page and writes it into the DBP ("Once loaded by a node, the page is
    /// registered to the DBP and remotely written to it", §4.2). Also how a
    /// node publishes an image it built itself (`PageSource::Memory`).
    ///
    /// If a concurrent loader won the race the existing (same or newer)
    /// version is kept and returned so the caller adopts it.
    pub fn register_push(
        &self,
        caller: NodeId,
        page_id: PageId,
        page: Arc<P>,
        llsn: Llsn,
        valid_flag: Arc<AtomicBool>,
        source: PageSource,
    ) -> (Arc<P>, Llsn) {
        let stored_llsn = (source == PageSource::Storage).then_some(llsn);
        let result = self.repl.rpc(32, || {
            let mut shard = self.shard(page_id).lock();
            match shard.entries.get_mut(&page_id) {
                Some(entry) => {
                    upsert_holder(entry, caller, valid_flag);
                    if llsn > entry.llsn {
                        entry.page = Arc::clone(&page);
                        entry.llsn = llsn;
                    }
                    entry.stored_llsn = entry.stored_llsn.max(stored_llsn);
                    (Arc::clone(&entry.page), entry.llsn)
                }
                None => {
                    shard.entries.insert(
                        page_id,
                        DbpEntry {
                            page: Arc::clone(&page),
                            llsn,
                            stored_llsn,
                            holders: vec![Holder {
                                node: caller,
                                valid_flag,
                            }],
                        },
                    );
                    shard.fifo.push_back(page_id);
                    (page, llsn)
                }
            }
        });
        // The page payload lands on every live replica; the new directory
        // entry rides along.
        self.repl.bulk_write(self.page_bytes, Locality::Remote);
        self.repl.replicate_mutation(32);
        self.stats.pushes.inc();
        self.maybe_evict(page_id);
        result
    }

    /// One-sided fetch by a node that is already a registered holder (it
    /// knows the page's `r_addr`). Returns `None` when the entry has been
    /// evicted — or the caller is no longer a holder — in which case the
    /// caller must retry through the RPC path.
    pub fn fetch(&self, caller: NodeId, page_id: PageId) -> Option<(Arc<P>, Llsn)> {
        self.stats.fetches.inc();
        let out = {
            let shard = self.shard(page_id).lock();
            let entry = shard.entries.get(&page_id)?;
            if !entry.holders.iter().any(|h| h.node == caller) {
                return None;
            }
            (Arc::clone(&entry.page), entry.llsn)
        };
        self.repl.bulk_read(self.page_bytes, Locality::Remote);
        Some(out)
    }

    /// Push an updated page (one-sided write), after which Buffer Fusion
    /// invalidates every other holder's copy. The caller must hold the
    /// page's exclusive PLock, which serializes pushes per page.
    pub fn push(&self, caller: NodeId, page_id: PageId, page: Arc<P>, llsn: Llsn) {
        self.repl.bulk_write(self.page_bytes, Locality::Remote);
        self.stats.pushes.inc();
        let flags_to_clear: Vec<Arc<AtomicBool>> = {
            let mut shard = self.shard(page_id).lock();
            match shard.entries.get_mut(&page_id) {
                Some(entry) => {
                    if llsn <= entry.llsn {
                        // Stale push (e.g. a background flush racing a
                        // negotiation-driven push that already won): ignore.
                        return;
                    }
                    entry.page = page;
                    entry.llsn = llsn;
                    entry
                        .holders
                        .iter()
                        .filter(|h| h.node != caller)
                        .map(|h| Arc::clone(&h.valid_flag))
                        .collect()
                }
                None => {
                    // Entry was evicted since the caller registered;
                    // re-create it. The caller remains a holder via its
                    // next lookup (its own copy is the one being pushed, so
                    // no flag is needed until it re-registers).
                    shard.entries.insert(
                        page_id,
                        DbpEntry {
                            page,
                            llsn,
                            stored_llsn: None,
                            holders: Vec::new(),
                        },
                    );
                    shard.fifo.push_back(page_id);
                    Vec::new()
                }
            }
        };
        self.invalidate(&flags_to_clear);
        self.maybe_evict(page_id);
    }

    /// One doorbell batch clears every given holder flag: N flag writes,
    /// one charged round trip. Call with no shard lock held. The flags are
    /// node-owned memory, not PMFS state — they don't replicate.
    fn invalidate(&self, flags: &[Arc<AtomicBool>]) {
        if flags.is_empty() {
            return;
        }
        let mut batch = self.repl.batch();
        for flag in flags {
            self.stats.invalidations.inc();
            batch.write_flag(flag, false, Locality::Remote);
        }
        batch.flush();
    }

    /// Drop the caller from a page's holder list (LBP eviction notice).
    pub fn unregister(&self, caller: NodeId, page_id: PageId) {
        self.repl.rpc(16, || {
            if let Some(entry) = self.shard(page_id).lock().entries.get_mut(&page_id) {
                entry.holders.retain(|h| h.node != caller);
            }
        });
        self.repl.replicate_mutation(16);
    }

    /// Current DBP contents for a page without any charge (recovery uses
    /// this from the PMFS side; also handy in tests).
    pub fn peek(&self, page_id: PageId) -> Option<(Arc<P>, Llsn)> {
        let shard = self.shard(page_id).lock();
        shard
            .entries
            .get(&page_id)
            .map(|e| (Arc::clone(&e.page), e.llsn))
    }

    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Entries whose image shared storage is not known to hold.
    pub fn dirty_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.entries.values().filter(|e| e.is_dirty()).count()
            })
            .sum()
    }

    /// How many times the DBP has lost its contents ([`clear`](Self::clear)).
    /// A claim that rests on pushes — a node's scan-start checkpoint — holds
    /// only while the epoch it was made under is still the current one.
    pub fn loss_epoch(&self) -> u64 {
        self.loss_epoch.load(Ordering::SeqCst)
    }

    /// Simulate DBP memory loss: every cached page vanishes, every holder's
    /// copy is invalidated. Nodes transparently fall back to shared storage
    /// (the paper's DBP-failure story: pages "can be recovered from logs in
    /// the event of a DBP failure" — we additionally write back through the
    /// sink on orderly eviction, so only log-recoverable state is ever lost
    /// here). Write-backs in flight still land; their completions find no
    /// entry.
    pub fn clear(&self) {
        // Before the first entry goes: a walk that read the old epoch and
        // then misses an entry must find the new one when it re-reads.
        self.loss_epoch.fetch_add(1, Ordering::SeqCst);
        // Drain each shard under its lock, but pay for the remote flag
        // writes only after the lock is dropped — the invalidation fan-out
        // is O(holders) remote ops and must not stall concurrent lookups.
        for shard in &self.shards {
            let drained: Vec<DbpEntry<P>> = {
                let mut s = shard.lock();
                s.fifo.clear();
                s.entries.drain().map(|(_, entry)| entry).collect()
            };
            // One doorbell batch per drained shard covers every holder of
            // every dropped page.
            let flags: Vec<_> = drained.iter().flat_map(holder_flags).collect();
            self.invalidate(&flags);
        }
    }

    /// FIFO eviction keeping each shard within its capacity. Never evicts
    /// `just_touched`.
    fn maybe_evict(&self, just_touched: PageId) {
        self.evict_shard(Self::shard_index(just_touched), Some(just_touched));
    }

    /// Submit half of eviction: while the shard holds more entries than its
    /// capacity plus the victims already in flight, pick the oldest entry
    /// and queue its image at the sink. The caller does not wait for the
    /// write.
    ///
    /// The victim's directory entry stays in place — concurrent loaders keep
    /// hitting the DBP — until [`complete_write_back`](Self::complete_write_back)
    /// runs, after the image has landed. Remove-then-write-back would open a
    /// window (one storage write wide) in which a page that exists only in
    /// the DBP, such as a freshly split child, is in neither place and a
    /// concurrent loader aborts with "missing from shared storage"; with the
    /// removal in the write's completion that order cannot be written down.
    fn evict_shard(&self, idx: usize, just_touched: Option<PageId>) {
        let sink = self.sink.lock().clone();
        loop {
            let victim = {
                let mut shard = self.shards[idx].lock();
                self.pick_victim(&mut shard, just_touched)
            };
            let (victim, page, llsn) = match victim {
                None => return,
                Some(Victim::Clean(flags)) => {
                    self.invalidate(&flags);
                    continue;
                }
                Some(Victim::Dirty(victim, page, llsn)) => (victim, page, llsn),
            };
            sched_point("dbp.evict.submit");
            let Some(sink) = &sink else {
                // No store behind this DBP: the image is simply dropped.
                self.complete_write_back(
                    idx,
                    victim,
                    llsn,
                    WriteBackOutcome::Written,
                    AfterWrite::Evict,
                );
                continue;
            };
            // A victim that was kept is replaced by the next turn of this
            // loop; a store that refuses writes ends the pass (the next
            // push retries).
            let mut batch = Vec::new();
            let helped = self.queue_or_help(
                sink,
                &mut batch,
                idx,
                (victim, page, llsn),
                AfterWrite::Evict,
            );
            if !batch.is_empty() {
                sink.submit(batch);
            }
            if helped == Some(WriteBackOutcome::NotWritten) {
                return;
            }
        }
    }

    /// Submit half of one write-back: put it in `batch` for the sink's
    /// queue if one of the [`MAX_QUEUED_WRITEBACKS`] slots is free —
    /// its completion runs [`complete_write_back`](Self::complete_write_back)
    /// and gives the slot back. With the queue full, run it here rather
    /// than wait for a slot (after handing over what `batch` has gathered,
    /// so the consumer is busy meanwhile) and return how it ended.
    fn queue_or_help(
        &self,
        sink: &Arc<dyn EvictionSink<P>>,
        batch: &mut Vec<QueuedWriteBack<P>>,
        idx: usize,
        (page_id, page, llsn): (PageId, Arc<P>, Llsn),
        then: AfterWrite,
    ) -> Option<WriteBackOutcome> {
        if self.reserve_queue_slot() {
            self.stats.writebacks_submitted.inc();
            let me = self.me.clone();
            batch.push(QueuedWriteBack {
                page_id,
                page,
                llsn,
                done: Box::new(move |outcome| {
                    let Some(me) = me.upgrade() else { return };
                    if me.complete_write_back(idx, page_id, llsn, outcome, then) {
                        me.evict_shard(idx, None);
                    }
                    me.release_queue_slot();
                }),
            });
            return None;
        }
        if !batch.is_empty() {
            sink.submit(std::mem::take(batch));
        }
        self.stats.writebacks_helped.inc();
        let outcome = sink.write_now(page_id, page, llsn);
        self.complete_write_back(idx, page_id, llsn, outcome, then);
        Some(outcome)
    }

    /// Storage checkpoint, DBP half: write every dirty entry back through
    /// the eviction sink — same queue bound, same help-when-full — *keeping*
    /// the entries and marking them clean, and wait for the writes to land.
    ///
    /// `epoch` is the [`loss_epoch`](Self::loss_epoch) the caller read
    /// before it made sure the pushes it cares about had happened. Returns
    /// whether storage now holds, for every page, an image at least as new
    /// as the DBP's was when the walk passed it: `false` if a write-back
    /// failed meanwhile (this walk's or an eviction's — either may have been
    /// the one a page's newest image rode on), or if the DBP was lost since
    /// `epoch` was read (an entry the caller pushed may then have vanished
    /// unwritten). A push racing the walk leaves its entry dirty and the
    /// result `true` — the image written is still at least what the caller
    /// had pushed.
    pub fn write_back_all(&self, epoch: u64) -> bool {
        assert_charge_point();
        let Some(sink) = self.sink.lock().clone() else {
            // No store behind this DBP: nothing can land.
            return self.dirty_count() == 0;
        };
        let failed_before = self.stats.writebacks_failed.get();
        for idx in 0..self.shards.len() {
            if self.loss_epoch() != epoch {
                break;
            }
            let dirty: Vec<(PageId, Arc<P>, Llsn)> = {
                let shard = self.shards[idx].lock();
                shard
                    .entries
                    .iter()
                    .filter(|(_, e)| e.is_dirty())
                    .map(|(&id, e)| (id, Arc::clone(&e.page), e.llsn))
                    .collect()
            };
            sched_point("dbp.checkpoint.submit");
            self.stats.checkpoint_writebacks.add(dirty.len() as u64);
            // One submission per shard: one wake of the sink's consumer
            // however many pages the shard had dirty.
            let mut batch = Vec::with_capacity(dirty.len());
            for image in dirty {
                self.queue_or_help(&sink, &mut batch, idx, image, AfterWrite::Keep);
            }
            if !batch.is_empty() {
                sink.submit(batch);
            }
        }
        self.drain_evictions();
        self.stats.writebacks_failed.get() == failed_before && self.loss_epoch() == epoch
    }

    /// Under the shard lock: the oldest entry to evict, if the shard is over
    /// capacity. A clean victim is removed here; a dirty one only leaves the
    /// FIFO and is counted in flight.
    fn pick_victim(&self, shard: &mut Shard<P>, just_touched: Option<PageId>) -> Option<Victim<P>> {
        // Bound the scan by the queue length: victims in flight are out of
        // the FIFO, which could otherwise leave only `just_touched` to cycle
        // through forever.
        let mut spins = shard.fifo.len();
        while shard.entries.len().saturating_sub(shard.in_flight) > self.per_shard_capacity
            && spins > 0
        {
            spins -= 1;
            let c = shard.fifo.pop_front()?;
            if Some(c) == just_touched {
                shard.fifo.push_back(c);
                continue;
            }
            // An id whose entry `clear` dropped is skipped.
            let Some(entry) = shard.entries.get(&c) else {
                continue;
            };
            if !entry.is_dirty() {
                let entry = shard.entries.remove(&c).expect("checked above");
                self.stats.evictions.inc();
                self.stats.clean_evictions.inc();
                return Some(Victim::Clean(holder_flags(&entry).collect()));
            }
            shard.in_flight += 1;
            return Some(Victim::Dirty(c, Arc::clone(&entry.page), entry.llsn));
        }
        None
    }

    /// Complete half of a write-back of `page_id` at `llsn`. If the image
    /// landed, storage is now known to hold `llsn`; what happens to the
    /// entry is the caller's `then`:
    ///
    /// * [`AfterWrite::Evict`] removes it — only if storage holds its
    ///   *current* version. A concurrent push made it newer — keep it so the
    ///   newest version is never lost — or the write did not happen: either
    ///   way the entry goes back in FIFO order (the submit half took it out
    ///   of the queue). The removed entry's holder flags are cleared: with
    ///   the entry gone, future invalidations would have nowhere to flow
    ///   through.
    /// * [`AfterWrite::Keep`] leaves it served; it is clean exactly if it is
    ///   still at the written LLSN.
    ///
    /// Returns whether an eviction's victim was kept although its image was
    /// written, i.e. the shard still needs another victim.
    fn complete_write_back(
        &self,
        idx: usize,
        page_id: PageId,
        llsn: Llsn,
        outcome: WriteBackOutcome,
        then: AfterWrite,
    ) -> bool {
        sched_point("dbp.evict.complete");
        let written = outcome == WriteBackOutcome::Written;
        if !written {
            self.stats.writebacks_failed.inc();
        }
        let evict = then == AfterWrite::Evict;
        let (flags_to_clear, kept): (Vec<Arc<AtomicBool>>, bool) = {
            let mut shard = self.shards[idx].lock();
            if evict {
                shard.in_flight = shard.in_flight.saturating_sub(1);
            }
            match shard.entries.get_mut(&page_id) {
                Some(entry) => {
                    if written {
                        entry.stored_llsn = entry.stored_llsn.max(Some(llsn));
                    }
                    if !evict {
                        (Vec::new(), false)
                    } else if written && entry.llsn <= llsn {
                        let entry = shard.entries.remove(&page_id).expect("checked above");
                        self.stats.evictions.inc();
                        (holder_flags(&entry).collect(), false)
                    } else {
                        shard.fifo.push_back(page_id);
                        (Vec::new(), written)
                    }
                }
                None => (Vec::new(), false), // cleared concurrently
            }
        };
        self.invalidate(&flags_to_clear);
        kept
    }

    /// Claim one of the [`MAX_QUEUED_WRITEBACKS`] slots; `false` when all
    /// are taken.
    fn reserve_queue_slot(&self) -> bool {
        let _gate = self.queued_gate.lock();
        let queued = &self.stats.writebacks_queued;
        if queued.get() >= MAX_QUEUED_WRITEBACKS as u64 {
            return false;
        }
        queued.inc();
        true
    }

    fn release_queue_slot(&self) {
        let _gate = self.queued_gate.lock();
        let queued = &self.stats.writebacks_queued;
        queued.dec();
        if queued.get() == 0 {
            self.queued_cv.notify_all();
        }
    }

    /// Block until no write-back is queued at the sink (checkpoints,
    /// shutdown, tests): every write-back submitted before the call has
    /// landed and completed. A charge point — the wait spans
    /// storage writes.
    pub fn drain_evictions(&self) {
        assert_charge_point();
        let mut gate = self.queued_gate.lock();
        while self.stats.writebacks_queued.get() > 0 {
            self.queued_cv.wait(&mut gate);
        }
    }
}

fn holder_flags<P>(entry: &DbpEntry<P>) -> impl Iterator<Item = Arc<AtomicBool>> + '_ {
    entry.holders.iter().map(|h| Arc::clone(&h.valid_flag))
}

fn upsert_holder<P>(entry: &mut DbpEntry<P>, node: NodeId, valid_flag: Arc<AtomicBool>) {
    match entry.holders.iter_mut().find(|h| h.node == node) {
        Some(h) => h.valid_flag = valid_flag,
        None => entry.holders.push(Holder { node, valid_flag }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use pmp_common::LatencyConfig;
    use std::sync::atomic::Ordering;

    type Bf = BufferFusion<String>;

    fn bf(capacity: usize) -> Arc<Bf> {
        BufferFusion::new(
            Arc::new(ReplicatedFabric::single(Arc::new(pmp_rdma::Fabric::new(
                LatencyConfig::disabled(),
            )))),
            capacity,
            16 * 1024,
        )
    }

    fn flag(v: bool) -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(v))
    }

    /// `register_push` of a one-word page by node 1.
    fn put(bf: &Bf, id: PageId, text: &str, llsn: u64, flag: &Arc<AtomicBool>, source: PageSource) {
        bf.register_push(
            NodeId(1),
            id,
            Arc::new(text.into()),
            Llsn(llsn),
            Arc::clone(flag),
            source,
        );
    }

    #[test]
    fn miss_then_register_then_hit() {
        let bf = bf(1024);
        let p = PageId(7);
        let f1 = flag(true);
        assert!(bf
            .lookup_or_register(NodeId(1), p, Arc::clone(&f1))
            .is_none());
        let (page, llsn) = bf.register_push(
            NodeId(1),
            p,
            Arc::new("v1".into()),
            Llsn(5),
            Arc::clone(&f1),
            PageSource::Memory,
        );
        assert_eq!(*page, "v1");
        assert_eq!(llsn, Llsn(5));

        let f2 = flag(true);
        let (page, llsn) = bf
            .lookup_or_register(NodeId(2), p, Arc::clone(&f2))
            .expect("now a hit");
        assert_eq!(*page, "v1");
        assert_eq!(llsn, Llsn(5));
        assert_eq!(bf.stats().hits.get(), 1);
        assert_eq!(bf.stats().misses.get(), 1);
    }

    #[test]
    fn push_invalidates_other_holders_only() {
        let bf = bf(1024);
        let p = PageId(3);
        let f1 = flag(true);
        let f2 = flag(true);
        bf.register_push(
            NodeId(1),
            p,
            Arc::new("v1".into()),
            Llsn(1),
            Arc::clone(&f1),
            PageSource::Memory,
        );
        bf.lookup_or_register(NodeId(2), p, Arc::clone(&f2))
            .unwrap();

        bf.push(NodeId(1), p, Arc::new("v2".into()), Llsn(2));
        assert!(f1.load(Ordering::Acquire), "pusher keeps its copy valid");
        assert!(!f2.load(Ordering::Acquire), "peer copy must be invalidated");
        let (page, llsn) = bf.peek(p).unwrap();
        assert_eq!(*page, "v2");
        assert_eq!(llsn, Llsn(2));
    }

    #[test]
    fn stale_push_is_ignored() {
        let bf = bf(1024);
        let p = PageId(3);
        bf.register_push(
            NodeId(1),
            p,
            Arc::new("v5".into()),
            Llsn(5),
            flag(true),
            PageSource::Memory,
        );
        bf.push(NodeId(1), p, Arc::new("v3-stale".into()), Llsn(3));
        assert_eq!(*bf.peek(p).unwrap().0, "v5");
    }

    #[test]
    fn one_sided_fetch_requires_registration() {
        let bf = bf(1024);
        let p = PageId(9);
        bf.register_push(
            NodeId(1),
            p,
            Arc::new("v1".into()),
            Llsn(1),
            flag(true),
            PageSource::Memory,
        );
        assert!(bf.fetch(NodeId(1), p).is_some());
        assert!(
            bf.fetch(NodeId(2), p).is_none(),
            "unregistered node has no r_addr and must take the RPC path"
        );
        assert!(bf.fetch(NodeId(1), PageId(999)).is_none());
    }

    #[test]
    fn register_push_race_keeps_newest() {
        let bf = bf(1024);
        let p = PageId(4);
        bf.register_push(
            NodeId(1),
            p,
            Arc::new("new".into()),
            Llsn(9),
            flag(true),
            PageSource::Memory,
        );
        // A slower loader with an older version must adopt the newer page.
        let (page, llsn) = bf.register_push(
            NodeId(2),
            p,
            Arc::new("old".into()),
            Llsn(2),
            flag(true),
            PageSource::Memory,
        );
        assert_eq!(*page, "new");
        assert_eq!(llsn, Llsn(9));
    }

    #[test]
    fn unregister_stops_invalidations() {
        let bf = bf(1024);
        let p = PageId(5);
        let f2 = flag(true);
        bf.register_push(
            NodeId(1),
            p,
            Arc::new("v1".into()),
            Llsn(1),
            flag(true),
            PageSource::Memory,
        );
        bf.lookup_or_register(NodeId(2), p, Arc::clone(&f2))
            .unwrap();
        bf.unregister(NodeId(2), p);
        bf.push(NodeId(1), p, Arc::new("v2".into()), Llsn(2));
        assert!(f2.load(Ordering::Acquire), "unregistered holder untouched");
    }

    struct RecordingSink(Mutex<Vec<(PageId, Llsn)>>);
    impl EvictionSink<String> for RecordingSink {
        fn write_now(&self, page_id: PageId, _page: Arc<String>, llsn: Llsn) -> WriteBackOutcome {
            self.0.lock().push((page_id, llsn));
            WriteBackOutcome::Written
        }
    }

    #[test]
    fn eviction_writes_back_and_invalidates() {
        // capacity < SHARDS → per-shard capacity of 1.
        let bf = bf(1);
        let sink = Arc::new(RecordingSink(Mutex::new(Vec::new())));
        bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<String>>);

        // Two pages in the same shard (ids differ by SHARDS).
        let p1 = PageId(2);
        let p2 = PageId(2 + 64);
        let f1 = flag(true);
        bf.register_push(
            NodeId(1),
            p1,
            Arc::new("a".into()),
            Llsn(1),
            Arc::clone(&f1),
            PageSource::Memory,
        );
        bf.register_push(
            NodeId(1),
            p2,
            Arc::new("b".into()),
            Llsn(2),
            flag(true),
            PageSource::Memory,
        );

        assert_eq!(bf.page_count(), 1, "oldest entry must have been evicted");
        assert!(bf.peek(p1).is_none());
        assert!(
            !f1.load(Ordering::Acquire),
            "holder of evicted page invalidated"
        );
        assert_eq!(sink.0.lock().as_slice(), &[(p1, Llsn(1))]);
    }

    /// A sink that observes, at write-back time, whether the page is still
    /// served by the DBP directory — and can optionally push a newer
    /// version mid-eviction to exercise the keep-freshened-entry path.
    struct WindowProbeSink {
        bf: Mutex<Option<Arc<Bf>>>,
        write_backs: Mutex<Vec<(PageId, Llsn, bool)>>,
        push_newer_once: Mutex<bool>,
    }

    impl WindowProbeSink {
        fn new(push_newer_once: bool) -> Self {
            WindowProbeSink {
                bf: Mutex::new(None),
                write_backs: Mutex::new(Vec::new()),
                push_newer_once: Mutex::new(push_newer_once),
            }
        }
    }

    impl EvictionSink<String> for WindowProbeSink {
        fn write_now(&self, page_id: PageId, _page: Arc<String>, llsn: Llsn) -> WriteBackOutcome {
            let bf = Arc::clone(self.bf.lock().as_ref().expect("sink wired"));
            self.write_backs
                .lock()
                .push((page_id, llsn, bf.peek(page_id).is_some()));
            let race = std::mem::take(&mut *self.push_newer_once.lock());
            if race {
                // Guard released above: the racing push re-enters the
                // eviction path on this same thread.
                bf.push(
                    NodeId(1),
                    page_id,
                    Arc::new("racing-newer".into()),
                    Llsn(99),
                );
            }
            WriteBackOutcome::Written
        }
    }

    /// Regression for the split-page push race: eviction used to remove the
    /// directory entry *before* the write-back landed, leaving a window
    /// (one storage-write wide) in which the page was in neither the DBP
    /// nor shared storage and concurrent loaders aborted with "missing from
    /// shared storage". The entry must still be served while write_back
    /// runs.
    #[test]
    fn eviction_write_back_lands_before_directory_removal() {
        let bf = bf(1);
        let sink = Arc::new(WindowProbeSink::new(false));
        *sink.bf.lock() = Some(Arc::clone(&bf));
        bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<String>>);

        let p1 = PageId(2);
        let p2 = PageId(2 + 64); // same shard
        bf.register_push(
            NodeId(1),
            p1,
            Arc::new("a".into()),
            Llsn(1),
            flag(true),
            PageSource::Memory,
        );
        bf.register_push(
            NodeId(1),
            p2,
            Arc::new("b".into()),
            Llsn(2),
            flag(true),
            PageSource::Memory,
        );

        assert_eq!(
            sink.write_backs.lock().as_slice(),
            &[(p1, Llsn(1), true)],
            "the page must still be in the DBP directory while its write-back is in flight"
        );
        assert!(bf.peek(p1).is_none(), "entry removed after the write-back");
    }

    /// A push racing the eviction write-back makes the entry newer than the
    /// snapshot being written back: the entry must be kept (dropping it
    /// would lose the newest version — the racing push's own eviction pass
    /// turns on the other page instead), and the next eviction writes the
    /// racing version back before removing the entry.
    #[test]
    fn eviction_keeps_entry_freshened_by_concurrent_push() {
        let bf = bf(1);
        let sink = Arc::new(WindowProbeSink::new(true));
        *sink.bf.lock() = Some(Arc::clone(&bf));
        bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<String>>);

        let p1 = PageId(2);
        let p2 = PageId(2 + 64); // same shard
        let p3 = PageId(2 + 128); // same shard
        bf.register_push(
            NodeId(1),
            p1,
            Arc::new("a".into()),
            Llsn(1),
            flag(true),
            PageSource::Memory,
        );
        // Evicting p1 to make room for p2 fires the racing push mid
        // write-back: the stale (Llsn 1) snapshot must not take the entry
        // out, and the eviction pass settles on p2 instead.
        bf.register_push(
            NodeId(1),
            p2,
            Arc::new("b".into()),
            Llsn(2),
            flag(true),
            PageSource::Memory,
        );

        assert_eq!(
            sink.write_backs.lock().as_slice(),
            &[(p1, Llsn(1), true), (p2, Llsn(2), true)],
            "stale write-back must not remove the freshened entry"
        );
        let (page, llsn) = bf.peek(p1).expect("freshened entry kept");
        assert_eq!(
            (page.as_str(), llsn),
            ("racing-newer", Llsn(99)),
            "the racing version survives the stale write-back"
        );

        // The next eviction writes the racing version back, then removes.
        bf.register_push(
            NodeId(1),
            p3,
            Arc::new("c".into()),
            Llsn(3),
            flag(true),
            PageSource::Memory,
        );
        assert_eq!(
            sink.write_backs.lock().as_slice(),
            &[
                (p1, Llsn(1), true),
                (p2, Llsn(2), true),
                (p1, Llsn(99), true)
            ],
            "the racing version must reach storage before the entry is removed"
        );
        assert!(
            bf.peek(p1).is_none(),
            "entry evicted once the racing version reached storage"
        );
    }

    /// Storage holds what a storage load registered: evicting it unchanged
    /// writes nothing; once a push made it newer, eviction writes it back.
    #[test]
    fn clean_entry_is_evicted_without_a_write() {
        let bf = bf(1);
        let sink = Arc::new(RecordingSink(Mutex::new(Vec::new())));
        bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<String>>);
        let (p1, p2, p3) = (PageId(2), PageId(2 + 64), PageId(2 + 128)); // one shard
        let f1 = flag(true);

        put(&bf, p1, "a", 1, &f1, PageSource::Storage);
        put(&bf, p2, "b", 2, &flag(true), PageSource::Storage);
        assert!(bf.peek(p1).is_none(), "load -> evict drops the entry");
        assert!(!f1.load(Ordering::Acquire), "and invalidates its holder");
        assert!(sink.0.lock().is_empty(), "with no page write");
        assert_eq!(bf.stats().clean_evictions.get(), 1);
        assert_eq!(bf.stats().evictions.get(), 1);

        bf.push(NodeId(1), p2, Arc::new("b2".into()), Llsn(3));
        put(&bf, p3, "c", 4, &flag(true), PageSource::Storage);
        assert!(bf.peek(p2).is_none());
        assert_eq!(
            sink.0.lock().as_slice(),
            &[(p2, Llsn(3))],
            "load -> push newer -> evict writes the newer image once"
        );
        assert_eq!(bf.stats().clean_evictions.get(), 1);
        assert_eq!(bf.stats().evictions.get(), 2);
    }

    /// A sink with a queue the test controls: `submit` parks the write-back
    /// at the gate; `open` ends every parked one with the given outcome.
    #[derive(Default)]
    struct GateSink {
        parked: Mutex<Vec<WriteBackDone>>,
        /// Size of every batch `submit` was handed.
        batches: Mutex<Vec<usize>>,
        written_inline: Mutex<Vec<PageId>>,
    }

    impl EvictionSink<String> for GateSink {
        fn write_now(&self, page_id: PageId, _page: Arc<String>, _llsn: Llsn) -> WriteBackOutcome {
            self.written_inline.lock().push(page_id);
            WriteBackOutcome::Written
        }

        fn submit(&self, batch: Vec<QueuedWriteBack<String>>) {
            self.batches.lock().push(batch.len());
            self.parked.lock().extend(batch.into_iter().map(|w| w.done));
        }
    }

    impl GateSink {
        fn install(bf: &Bf) -> Arc<GateSink> {
            let sink = Arc::new(GateSink::default());
            bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<String>>);
            sink
        }

        fn parked(&self) -> usize {
            self.parked.lock().len()
        }

        fn open(&self, outcome: WriteBackOutcome) {
            // Taken out first: a completion may submit the next victim.
            let parked = std::mem::take(&mut *self.parked.lock());
            for done in parked {
                done(outcome);
            }
        }
    }

    /// The statement that overflows a shard does not wait for the victim's
    /// write-back: `register_push` and `push` return with it parked at the
    /// sink, the victim stays served meanwhile, and only the completion
    /// removes it and invalidates its holder.
    #[test]
    fn pushes_return_while_the_write_back_is_blocked() {
        let bf = bf(1);
        let sink = GateSink::install(&bf);
        let (p1, p2) = (PageId(2), PageId(2 + 64)); // one shard
        let f1 = flag(true);
        put(&bf, p1, "a", 1, &f1, PageSource::Memory);
        put(&bf, p2, "b", 2, &flag(true), PageSource::Memory);
        bf.push(NodeId(1), p2, Arc::new("b2".into()), Llsn(3));

        assert_eq!(sink.parked(), 1, "p1's write-back is queued, once");
        assert_eq!(bf.stats().writebacks_queued.get(), 1);
        assert_eq!(bf.page_count(), 2);
        let (page, llsn) = bf.fetch(NodeId(1), p1).expect("victim still served");
        assert_eq!((page.as_str(), llsn), ("a", Llsn(1)));
        assert!(f1.load(Ordering::Acquire), "holder still valid");

        sink.open(WriteBackOutcome::Written);
        bf.drain_evictions();
        assert!(bf.peek(p1).is_none(), "removed once the image landed");
        assert!(!f1.load(Ordering::Acquire), "holder invalidated");
        assert_eq!(bf.stats().evictions.get(), 1);
        assert_eq!(bf.stats().writebacks_queued.get(), 0);
        assert!(sink.written_inline.lock().is_empty());
    }

    /// At most `MAX_QUEUED_WRITEBACKS` write-backs queue up; past that the
    /// evicting thread writes its victim back itself and goes on.
    #[test]
    fn full_queue_makes_the_submitter_help() {
        let bf = bf(SHARDS); // one entry per shard
        let sink = GateSink::install(&bf);
        // Three pages per shard, shard by shard within a round: the second
        // round queues one victim per shard (filling the queue exactly), the
        // third finds it full.
        for round in 0..3 {
            for shard in 0..SHARDS {
                let id = PageId((round * SHARDS + shard) as u64);
                put(&bf, id, "p", 1, &flag(true), PageSource::Memory);
            }
        }
        let stats = bf.stats();
        assert_eq!(sink.parked(), MAX_QUEUED_WRITEBACKS);
        assert_eq!(
            stats.writebacks_submitted.get(),
            MAX_QUEUED_WRITEBACKS as u64
        );
        assert_eq!(stats.writebacks_queued.hwm(), MAX_QUEUED_WRITEBACKS as u64);
        assert_eq!(stats.writebacks_helped.get(), SHARDS as u64);
        assert_eq!(sink.written_inline.lock().len(), SHARDS);
        assert_eq!(stats.evictions.get(), SHARDS as u64, "helped ones are done");
        assert_eq!(bf.page_count(), 2 * SHARDS);

        sink.open(WriteBackOutcome::Written);
        assert_eq!(bf.page_count(), SHARDS);
        assert_eq!(stats.writebacks_queued.get(), 0);
        assert_eq!(stats.writebacks_queued.hwm(), MAX_QUEUED_WRITEBACKS as u64);
    }

    /// A write-back cancelled at sink shutdown (or refused by the store)
    /// leaves its entry in the DBP, served and evictable again.
    #[test]
    fn cancelled_write_back_leaves_the_entry_in_place() {
        let bf = bf(1);
        let sink = GateSink::install(&bf);
        let (p1, p2, p3) = (PageId(2), PageId(2 + 64), PageId(2 + 128));
        let f1 = flag(true);
        put(&bf, p1, "a", 1, &f1, PageSource::Memory);
        put(&bf, p2, "b", 2, &flag(true), PageSource::Memory);
        sink.open(WriteBackOutcome::NotWritten);

        assert_eq!(bf.page_count(), 2);
        assert!(bf.fetch(NodeId(1), p1).is_some());
        assert!(f1.load(Ordering::Acquire), "holder keeps its copy");
        assert_eq!(bf.stats().evictions.get(), 0);
        assert_eq!(sink.parked(), 0, "a failed write is not retried at once");

        // The next push to the shard finds both old entries evictable.
        put(&bf, p3, "c", 3, &flag(true), PageSource::Memory);
        assert_eq!(sink.parked(), 2);
        sink.open(WriteBackOutcome::Written);
        assert_eq!(bf.page_count(), 1);
        assert!(bf.peek(p3).is_some());
    }

    /// A storage checkpoint's write-back keeps the entry and marks it
    /// clean: the page stays served, its holder stays valid, a second walk
    /// writes nothing, and a later eviction of it needs no write.
    #[test]
    fn write_back_and_keep_marks_the_entry_clean() {
        let bf = bf(1024);
        let sink = Arc::new(RecordingSink(Mutex::new(Vec::new())));
        bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<String>>);
        let (p1, p2) = (PageId(1), PageId(2));
        let f1 = flag(true);
        put(&bf, p1, "a", 1, &f1, PageSource::Memory);
        put(&bf, p2, "b", 2, &flag(true), PageSource::Storage); // already clean
        assert_eq!(bf.dirty_count(), 1);

        assert!(bf.write_back_all(bf.loss_epoch()));
        assert_eq!(sink.0.lock().as_slice(), &[(p1, Llsn(1))]);
        assert_eq!(bf.dirty_count(), 0);
        assert_eq!(bf.page_count(), 2, "entries stay");
        assert!(bf.fetch(NodeId(1), p1).is_some());
        assert!(f1.load(Ordering::Acquire), "holders stay valid");
        assert_eq!(bf.stats().checkpoint_writebacks.get(), 1);
        assert_eq!(bf.stats().evictions.get(), 0);

        assert!(bf.write_back_all(bf.loss_epoch()));
        assert_eq!(sink.0.lock().len(), 1, "nothing dirty, nothing written");

        // A push makes it dirty again; the next walk writes the new image.
        bf.push(NodeId(1), p1, Arc::new("a2".into()), Llsn(5));
        assert_eq!(bf.dirty_count(), 1);
        assert!(bf.write_back_all(bf.loss_epoch()));
        assert_eq!(sink.0.lock().last(), Some(&(p1, Llsn(5))));
    }

    /// The walk queues each shard's dirty entries as one submission, and a
    /// push that lands while the write is in flight leaves the entry dirty
    /// — storage holds the older image — without failing the walk.
    #[test]
    fn a_push_racing_the_checkpoint_write_keeps_the_entry_dirty() {
        let bf = bf(1024);
        let sink = GateSink::install(&bf);
        let (p1, p2, other) = (PageId(2), PageId(2 + 64), PageId(3)); // p1, p2: one shard
        for (id, llsn) in [(p1, 1), (p2, 2), (other, 3)] {
            put(&bf, id, "v", llsn, &flag(true), PageSource::Memory);
        }
        let walk = {
            let bf = Arc::clone(&bf);
            std::thread::spawn(move || bf.write_back_all(bf.loss_epoch()))
        };
        while sink.parked() < 3 {
            std::thread::yield_now();
        }
        let mut batches = sink.batches.lock().clone();
        batches.sort_unstable();
        assert_eq!(batches, [1, 2], "one submission per shard with dirty pages");
        assert_eq!(bf.stats().writebacks_queued.get(), 3);

        bf.push(NodeId(1), p1, Arc::new("newer".into()), Llsn(9));
        sink.open(WriteBackOutcome::Written);
        assert!(walk.join().unwrap(), "what the walk saw has landed");
        assert_eq!(bf.dirty_count(), 1, "only the raced entry is still dirty");
        assert_eq!(bf.peek(p1).unwrap().1, Llsn(9));
        assert_eq!(bf.page_count(), 3);
        assert!(sink.written_inline.lock().is_empty());
    }

    /// A write that does not land fails the walk and leaves its entry dirty.
    #[test]
    fn a_failed_checkpoint_write_reports_incomplete() {
        let bf = bf(1024);
        let sink = GateSink::install(&bf);
        put(&bf, PageId(1), "a", 1, &flag(true), PageSource::Memory);
        let walk = {
            let bf = Arc::clone(&bf);
            std::thread::spawn(move || bf.write_back_all(bf.loss_epoch()))
        };
        while sink.parked() < 1 {
            std::thread::yield_now();
        }
        sink.open(WriteBackOutcome::NotWritten);
        assert!(!walk.join().unwrap());
        assert_eq!(bf.dirty_count(), 1);
    }

    /// Losing the DBP while the walk runs — or at any point since the
    /// caller read the epoch — makes the walk report incomplete: a page the
    /// caller had pushed may have vanished unwritten.
    #[test]
    fn clear_mid_walk_makes_the_walk_report_incomplete() {
        let bf = bf(1024);
        let sink = GateSink::install(&bf);
        put(&bf, PageId(1), "a", 1, &flag(true), PageSource::Memory);
        let epoch = bf.loss_epoch();
        let walk = {
            let bf = Arc::clone(&bf);
            std::thread::spawn(move || bf.write_back_all(epoch))
        };
        while sink.parked() < 1 {
            std::thread::yield_now();
        }
        bf.clear();
        assert_eq!(bf.loss_epoch(), epoch + 1);
        sink.open(WriteBackOutcome::Written);
        assert!(
            !walk.join().unwrap(),
            "every write landed, yet the DBP was lost"
        );

        // And a loss before the walk starts is caught by the stale epoch.
        put(&bf, PageId(2), "b", 2, &flag(true), PageSource::Memory);
        assert!(!bf.write_back_all(epoch));
        assert_eq!(sink.parked(), 0, "a stale walk submits nothing");
        assert_eq!(bf.dirty_count(), 1);
    }

    /// Past `MAX_QUEUED_WRITEBACKS` the walking thread writes pages back
    /// itself, as an evicting thread does.
    #[test]
    fn checkpoint_walk_helps_when_the_queue_is_full() {
        let bf = bf(4096);
        let sink = GateSink::install(&bf);
        let pages = MAX_QUEUED_WRITEBACKS + 10;
        for i in 0..pages {
            put(
                &bf,
                PageId(i as u64),
                "p",
                1,
                &flag(true),
                PageSource::Memory,
            );
        }
        let walk = {
            let bf = Arc::clone(&bf);
            std::thread::spawn(move || bf.write_back_all(bf.loss_epoch()))
        };
        while sink.parked() < MAX_QUEUED_WRITEBACKS || sink.written_inline.lock().len() < 10 {
            std::thread::yield_now();
        }
        assert_eq!(bf.stats().writebacks_helped.get(), 10);
        sink.open(WriteBackOutcome::Written);
        assert!(walk.join().unwrap());
        assert_eq!(bf.dirty_count(), 0);
        assert_eq!(bf.stats().checkpoint_writebacks.get(), pages as u64);
    }

    /// Regression: `clear` used to invalidate holder flags while still
    /// holding the shard lock — a remote charge under a tracked lock. Under
    /// the `sanitize` feature the charge-point assertion in
    /// `precise_wait_ns` makes this test panic if that regresses.
    #[test]
    fn clear_invalidates_outside_shard_locks() {
        let bf = bf(1024);
        let flags: Vec<_> = (0..8).map(|_| flag(true)).collect();
        for (i, f) in flags.iter().enumerate() {
            bf.register_push(
                NodeId(1),
                PageId(i as u64 + 1),
                Arc::new(format!("p{i}")),
                Llsn(1),
                Arc::clone(f),
                PageSource::Memory,
            );
        }
        bf.clear();
        assert_eq!(bf.page_count(), 0);
        assert!(flags.iter().all(|f| !f.load(Ordering::Acquire)));
    }

    #[test]
    fn clear_simulates_dbp_loss() {
        let bf = bf(1024);
        let f1 = flag(true);
        bf.register_push(
            NodeId(1),
            PageId(1),
            Arc::new("a".into()),
            Llsn(1),
            Arc::clone(&f1),
            PageSource::Memory,
        );
        bf.register_push(
            NodeId(1),
            PageId(2),
            Arc::new("b".into()),
            Llsn(1),
            flag(true),
            PageSource::Memory,
        );
        bf.clear();
        assert_eq!(bf.page_count(), 0);
        assert!(!f1.load(Ordering::Acquire));
        assert!(bf.fetch(NodeId(1), PageId(1)).is_none());
    }
}
