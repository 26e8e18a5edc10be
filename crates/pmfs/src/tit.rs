//! The Transaction Information Table (TIT), §4.1 and Figure 3.
//!
//! Every node reserves a region of fabric-registered memory holding a
//! fixed-size array of TIT slots. A slot carries the fields from Figure 3:
//! the transaction object *pointer* (meaningful only on the owning node — we
//! keep it in the engine, not here), the *CTS*, the *version* that
//! disambiguates slot reuse, and the *ref* flag signalling that some
//! transaction is waiting on this one's row locks (§4.3.2).
//!
//! Remote nodes read slots with a single one-sided RDMA READ. In-process we
//! model the single-verb atomicity with a seqlock-style retry on the version
//! field, but charge exactly one fabric read per snapshot.
//!
//! Every word lives in a [`ReplCell`]: with `replicas = 1` each verb is
//! exactly the raw fabric verb; with more, commits and version bumps land in
//! place on every PMFS replica, so a replica crash never loses an
//! acknowledged CTS and recovery re-seats the directory from the survivors
//! (DESIGN.md §15).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{Cts, NodeId, SlotId, CSN_INIT};
use pmp_repl::{Locality, ReplBatch, ReplCell, ReplicatedFabric};

/// Free-list lock class; never nests with anything (pure local allocator).
const TIT_FREE: LockClass = LockClass::new("pmfs.tit.free");

#[derive(Debug)]
struct TitSlot {
    /// Commit timestamp; `CSN_INIT` while the transaction is active.
    cts: Arc<ReplCell>,
    /// Incremented on every reuse of the slot.
    version: Arc<ReplCell>,
    /// Number of transactions waiting for this one to release row locks.
    refs: Arc<ReplCell>,
}

/// A consistent snapshot of one TIT slot as seen by a (possibly remote)
/// reader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotSnapshot {
    pub cts: Cts,
    pub version: u64,
    pub refs: u64,
}

/// One node's TIT region in (replicated) registered memory.
#[derive(Debug)]
pub struct TitRegion {
    repl: Arc<ReplicatedFabric>,
    node: NodeId,
    slots: Vec<TitSlot>,
    free: TrackedMutex<VecDeque<SlotId>>,
    /// Signalled on every [`release`](Self::release): [`allocate_timeout`]
    /// parks here instead of sleep-polling when the table is exhausted.
    ///
    /// [`allocate_timeout`]: Self::allocate_timeout
    free_cv: TrackedCondvar,
    /// Broadcast target: the global minimum view CTS, written remotely by
    /// Transaction Fusion and read locally by the recycler (§4.1 "TIT
    /// recycle").
    global_min_view: Arc<ReplCell>,
    /// Published minimum active local transaction id; peers read it remotely
    /// to short-circuit lock-word liveness checks (§4.3.2).
    min_active_trx: Arc<ReplCell>,
}

impl TitRegion {
    pub fn new(repl: Arc<ReplicatedFabric>, node: NodeId, slot_count: usize) -> Self {
        assert!(slot_count > 0);
        TitRegion {
            node,
            slots: (0..slot_count)
                .map(|_| TitSlot {
                    cts: repl.cell(CSN_INIT.0),
                    version: repl.cell(0),
                    refs: repl.cell(0),
                })
                .collect(),
            free: TrackedMutex::new(TIT_FREE, (0..slot_count as u32).map(SlotId).collect()),
            free_cv: TrackedCondvar::new(),
            global_min_view: repl.cell(CSN_INIT.0),
            min_active_trx: repl.cell(0),
            repl,
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The replication facade this region's cells live on.
    pub fn repl(&self) -> &Arc<ReplicatedFabric> {
        &self.repl
    }

    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub fn free_slots(&self) -> usize {
        self.free.lock().len()
    }

    /// Allocate a free slot for a new local transaction. Returns the slot id
    /// and the new version. Purely local (no fabric traffic): "The
    /// transaction ID and TIT slot can be allocated locally without
    /// communicating with a coordinator" (§4.1).
    pub fn allocate(&self) -> Option<(SlotId, u64)> {
        let slot_id = self.free.lock().pop_front()?;
        Some(self.init_slot(slot_id))
    }

    /// Like [`allocate`](Self::allocate), but when the table is exhausted,
    /// park on the free-list condvar until a slot is released (the recycler
    /// and rollback paths call [`release`](Self::release)) or `timeout`
    /// elapses. Replaces the engine's former fixed-interval sleep poll: a
    /// released slot now wakes exactly one waiter immediately.
    pub fn allocate_timeout(&self, timeout: Duration) -> Option<(SlotId, u64)> {
        // Slot waits are real scheduling delays, deliberately outside the
        // simulated latency model (matches the old sleep-poll semantics).
        // lint: allow(raw-instant): condvar deadline for TIT slot-exhaustion wait
        let deadline = std::time::Instant::now() + timeout;
        let mut free = self.free.lock();
        loop {
            if let Some(slot_id) = free.pop_front() {
                drop(free);
                return Some(self.init_slot(slot_id));
            }
            if self.free_cv.wait_until(&mut free, deadline).timed_out() {
                return None;
            }
        }
    }

    fn init_slot(&self, slot_id: SlotId) -> (SlotId, u64) {
        let slot = &self.slots[slot_id.0 as usize];
        // Version bump *before* resetting CTS so a concurrent remote reader
        // holding the old version never mistakes the new INIT for the old
        // transaction still being active (seqlock discipline).
        let version = self.repl.fetch_add_local(&slot.version, 1) + 1;
        self.repl.store(&slot.refs, 0);
        self.repl.store(&slot.cts, CSN_INIT.0);
        (slot_id, version)
    }

    /// Record the commit timestamp (owning node, local store).
    pub fn commit(&self, slot: SlotId, cts: Cts) {
        debug_assert!(!cts.is_init());
        self.repl.store(&self.slots[slot.0 as usize].cts, cts.0);
    }

    /// Return a slot to the free list. Called by the background recycler
    /// once the transaction's changes are visible to every view, or by the
    /// engine right after a rollback has restored all touched rows.
    pub fn release(&self, slot: SlotId) {
        // Bump the version immediately so any stale reference reads as
        // "slot reused ⇒ transaction finished" (Algorithm 1 line 13-15).
        self.repl
            .fetch_add_local(&self.slots[slot.0 as usize].version, 1);
        self.free.lock().push_back(slot);
        // One slot back → one waiter can proceed.
        self.free_cv.notify_one();
    }

    /// Read a slot, paying exactly one one-sided fabric read when remote.
    /// The seqlock retry models the single-verb atomicity of real RDMA.
    pub fn read_slot(&self, slot: SlotId, locality: Locality) -> SlotSnapshot {
        // One charged verb per snapshot regardless of internal retries.
        self.repl.bulk_read(24, locality);
        let s = &self.slots[slot.0 as usize];
        loop {
            let v0 = self.repl.load(&s.version);
            let cts = self.repl.load(&s.cts);
            let refs = self.repl.load(&s.refs);
            let v1 = self.repl.load(&s.version);
            if v0 == v1 {
                return SlotSnapshot {
                    cts: Cts(cts),
                    version: v0,
                    refs,
                };
            }
            std::hint::spin_loop();
        }
    }

    /// Atomically raise the ref flag on a slot — the waiter's one-sided
    /// fetch-and-add announcing "someone is waiting for your locks"
    /// (Figure 6 step 1). Returns the version observed so the caller can
    /// detect slot reuse.
    pub fn add_ref(&self, slot: SlotId, locality: Locality) -> u64 {
        let s = &self.slots[slot.0 as usize];
        self.repl.fetch_add_u64(&s.refs, 1, locality);
        self.repl.load(&s.version)
    }

    /// Read and clear the ref flag at commit time (owning node, local).
    pub fn take_refs(&self, slot: SlotId) -> u64 {
        self.repl.swap_local(&self.slots[slot.0 as usize].refs, 0)
    }

    /// Commit-time CTS publish + ref-flag collection as one doorbell batch:
    /// the two verbs a commit owes its own TIT slot (Figure 3's CTS field,
    /// Figure 6's ref check) post together and charge once.
    ///
    /// Ordering within the batch matters: the CTS store lands before the
    /// refs swap, so a waiter that FAA'd the ref flag concurrently either
    /// (a) is seen by the swap — the committer will notify it — or (b)
    /// raced past the swap, in which case its own double-check of `trx_cts`
    /// observes the already-published CTS and it never blocks.
    pub fn commit_and_take_refs(&self, slot: SlotId, cts: Cts) -> u64 {
        debug_assert!(!cts.is_init());
        let s = &self.slots[slot.0 as usize];
        let mut batch = self.repl.batch();
        batch.write_cell(&s.cts, cts.0, Locality::Local);
        let refs = batch.swap_cell(&s.refs, 0, Locality::Local);
        batch.flush();
        refs
    }

    /// Post the write of the broadcast global-min-view cell (a remote write
    /// from Transaction Fusion) into its all-regions doorbell batch.
    pub fn post_global_min_view(&self, batch: &mut ReplBatch<'_>, cts: Cts) {
        batch.write_cell(&self.global_min_view, cts.0, Locality::Remote);
    }

    /// Read the broadcast global-min-view cell (owning node, local).
    pub fn load_global_min_view(&self) -> Cts {
        Cts(self.repl.load(&self.global_min_view))
    }

    /// Publish this node's minimum active local transaction id.
    pub fn publish_min_active_trx(&self, trx_id: u64) {
        self.repl.store(&self.min_active_trx, trx_id);
    }

    /// Read a peer's published minimum active transaction id, posted into
    /// a doorbell batch — the background min-view tick reads every peer's
    /// cell in one charged round trip.
    pub fn read_min_active_trx_batched(
        &self,
        batch: &mut ReplBatch<'_>,
        locality: Locality,
    ) -> u64 {
        batch.read_cell(&self.min_active_trx, locality)
    }

    /// Recycle every in-use slot whose CTS is valid and strictly older than
    /// `global_min`, returning the freed slot ids. The engine's background
    /// thread drives this and removes its own bookkeeping for freed slots.
    pub fn recycle_finished(&self, global_min: Cts, in_use: &[SlotId]) -> Vec<SlotId> {
        let mut freed = Vec::new();
        for &slot_id in in_use {
            let s = &self.slots[slot_id.0 as usize];
            let cts = Cts(self.repl.load(&s.cts));
            if !cts.is_init() && cts < global_min {
                self.release(slot_id);
                freed.push(slot_id);
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;
    use pmp_rdma::Fabric;

    fn single() -> Arc<ReplicatedFabric> {
        Arc::new(ReplicatedFabric::single(Arc::new(Fabric::new(
            LatencyConfig::disabled(),
        ))))
    }

    fn region() -> (Arc<ReplicatedFabric>, TitRegion) {
        let repl = single();
        let tit = TitRegion::new(Arc::clone(&repl), NodeId(0), 8);
        (repl, tit)
    }

    #[test]
    fn allocate_commit_read_roundtrip() {
        let (_, tit) = region();
        let (slot, version) = tit.allocate().unwrap();
        let snap = tit.read_slot(slot, Locality::Local);
        assert_eq!(snap.version, version);
        assert!(snap.cts.is_init(), "fresh slot must read as active");

        tit.commit(slot, Cts(42));
        let snap = tit.read_slot(slot, Locality::Remote);
        assert_eq!(snap.cts, Cts(42));
        assert_eq!(snap.version, version);
    }

    #[test]
    fn release_bumps_version_for_stale_readers() {
        let (_, tit) = region();
        let (slot, version) = tit.allocate().unwrap();
        tit.commit(slot, Cts(10));
        tit.release(slot);
        let snap = tit.read_slot(slot, Locality::Remote);
        assert_ne!(
            snap.version, version,
            "a reused slot must be detectable via version mismatch"
        );
    }

    #[test]
    fn slots_exhaust_and_recover() {
        let (_, tit) = region();
        let mut held = Vec::new();
        while let Some((slot, _)) = tit.allocate() {
            held.push(slot);
        }
        assert_eq!(held.len(), 8);
        assert_eq!(tit.free_slots(), 0);
        tit.release(held.pop().unwrap());
        assert!(tit.allocate().is_some());
    }

    #[test]
    fn allocate_timeout_returns_none_when_exhausted() {
        let (_, tit) = region();
        let held: Vec<_> = std::iter::from_fn(|| tit.allocate()).collect();
        assert_eq!(held.len(), 8);
        let t = std::time::Instant::now();
        assert!(tit.allocate_timeout(Duration::from_millis(20)).is_none());
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn allocate_timeout_wakes_on_release() {
        let tit = Arc::new(TitRegion::new(single(), NodeId(0), 1));
        let (held, _) = tit.allocate().unwrap();
        assert_eq!(tit.free_slots(), 0);
        let tit2 = Arc::clone(&tit);
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tit2.release(held);
        });
        // Far below the 5s budget: the release must wake us, not the timeout.
        let t = std::time::Instant::now();
        let got = tit.allocate_timeout(Duration::from_secs(5));
        assert!(got.is_some(), "released slot must satisfy the waiter");
        assert!(t.elapsed() < Duration::from_secs(4));
        releaser.join().unwrap();
    }

    #[test]
    fn ref_flag_accumulates_and_clears() {
        let (_, tit) = region();
        let (slot, _) = tit.allocate().unwrap();
        tit.add_ref(slot, Locality::Remote);
        tit.add_ref(slot, Locality::Remote);
        assert_eq!(tit.take_refs(slot), 2);
        assert_eq!(tit.take_refs(slot), 0, "take must clear");
    }

    #[test]
    fn commit_and_take_refs_publishes_then_collects() {
        let (repl, tit) = region();
        let (slot, version) = tit.allocate().unwrap();
        tit.add_ref(slot, Locality::Remote);
        tit.add_ref(slot, Locality::Remote);
        let before_ops = repl.fabric_stats().batched_ops.get();
        let refs = tit.commit_and_take_refs(slot, Cts(42));
        assert_eq!(refs, 2);
        let snap = tit.read_slot(slot, Locality::Local);
        assert_eq!(snap.cts, Cts(42));
        assert_eq!(snap.version, version);
        assert_eq!(snap.refs, 0, "the batch's swap must clear the flag");
        assert_eq!(
            repl.fabric_stats().batched_ops.get(),
            before_ops + 2,
            "CTS write + refs swap post as one doorbell batch"
        );
    }

    #[test]
    fn seqlock_snapshot_stays_consistent_under_churn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let tit = Arc::new(TitRegion::new(single(), NodeId(0), 1));
        let stop = Arc::new(AtomicBool::new(false));
        // Writer churns the one slot: allocate (odd version, CTS=INIT),
        // commit CTS = version + 100, release (even version).
        let writer = {
            let tit = Arc::clone(&tit);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (slot, version) = tit.allocate().unwrap();
                    tit.commit(slot, Cts(version + 100));
                    tit.release(slot);
                }
            })
        };
        for _ in 0..20_000 {
            let snap = tit.read_slot(SlotId(0), Locality::Remote);
            // The CTS committed under version v is exactly v + 100, and
            // init bumps the version *before* resetting the CTS. A CTS
            // from a later reuse paired with an earlier version (the torn
            // read the seqlock exists to prevent) would therefore show up
            // as cts > version + 100; a stale-but-harmless CTS from an
            // earlier reuse reads below that bound.
            if !snap.cts.is_init() {
                assert!(
                    snap.cts.0 <= snap.version + 100,
                    "future CTS leaked past the version check: {snap:?}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn recycle_frees_only_globally_visible_slots() {
        let (_, tit) = region();
        let (s1, _) = tit.allocate().unwrap();
        let (s2, _) = tit.allocate().unwrap();
        let (s3, _) = tit.allocate().unwrap();
        tit.commit(s1, Cts(5));
        tit.commit(s2, Cts(50));
        // s3 stays active (CSN_INIT).
        let freed = tit.recycle_finished(Cts(10), &[s1, s2, s3]);
        assert_eq!(freed, vec![s1]);
        assert_eq!(tit.free_slots(), 8 - 3 + 1);
    }

    #[test]
    fn min_view_broadcast_cells() {
        let (repl, tit) = region();
        let mut batch = repl.batch();
        tit.post_global_min_view(&mut batch, Cts(99));
        tit.publish_min_active_trx(1234);
        assert_eq!(
            tit.read_min_active_trx_batched(&mut batch, Locality::Remote),
            1234
        );
        batch.flush();
        assert_eq!(tit.load_global_min_view(), Cts(99));
    }

    #[test]
    fn concurrent_allocate_release_is_consistent() {
        let tit = Arc::new(TitRegion::new(single(), NodeId(1), 64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let tit = Arc::clone(&tit);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        if let Some((slot, _)) = tit.allocate() {
                            tit.commit(slot, Cts(i + 2));
                            tit.release(slot);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tit.free_slots(), 64);
    }

    #[test]
    fn committed_cts_survives_a_replica_crash_and_recovery() {
        let repl = Arc::new(ReplicatedFabric::new(
            Arc::new(Fabric::new(LatencyConfig::disabled())),
            3,
            2,
        ));
        let tit = TitRegion::new(Arc::clone(&repl), NodeId(0), 4);
        let (slot, version) = tit.allocate().unwrap();
        tit.commit(slot, Cts(77));
        for victim in 0..3 {
            assert!(repl.crash_replica(victim));
            let snap = tit.read_slot(slot, Locality::Remote);
            assert_eq!(snap.cts, Cts(77), "acked CTS lost in replica {victim}");
            assert_eq!(snap.version, version);
            assert!(repl.recover_replica(victim));
        }
    }
}
