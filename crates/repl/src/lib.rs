//! SWARM-style replication for PMFS state (DESIGN.md §15).
//!
//! The fusion server's registered memory — TIT slots, the TSO cell, broadcast
//! min-view cells — was a single fatal point: no experiment could kill the
//! PMFS. SWARM (arxiv 2409.16258) replicates shared disaggregated-memory data
//! with plain one-sided verbs at near-zero added latency:
//!
//! * **writes** land *in place* on every replica, posted as one doorbell
//!   batch (one charged latency, §"in-place replicated writes");
//! * **reads** touch a *single* replica in the common case and validate a
//!   per-cell sequence word (a seqlock) to detect a concurrently landing
//!   write;
//! * only on a detected conflict does the reader fall back to a **majority
//!   read** across replicas, resolving by a per-cell version **tag**.
//!
//! [`ReplicatedFabric`] is a facade over [`pmp_rdma::Fabric`] operating on
//! [`ReplCell`]s — a 64-bit word striped across `replicas` slots. The
//! protocol is written once, on the doorbell batch ([`ReplBatch`], the
//! replicated [`FabricBatch`]): one body for every write (`ReplBatch::rmw`)
//! and one validated read. The facade's single verbs and owning-node mirrors
//! post one op on a batch of one. With `replicas = 1` each primitive
//! short-circuits to the underlying fabric verb on the single slot: same data
//! movement, same metering, same latency — the unreplicated configuration is
//! bit-for-bit the pre-replication behaviour.
//!
//! Replica health is `Up → Down` on [`crash_replica`] (the crashed replica's
//! slot contents are deliberately scrambled — anything not yet replicated is
//! *gone*) and `Down → Joining → Up` on [`recover_replica`], which re-seats
//! every registered cell from the newest surviving copy (by tag) while
//! writers keep running. Acknowledged state survives any single replica crash
//! because a write is acknowledged only after its doorbell batch — which
//! carries the value to *every* live replica — has been posted: there is no
//! window where an acked value exists on fewer than `alive` replicas.
//!
//! [`crash_replica`]: ReplicatedFabric::crash_replica
//! [`recover_replica`]: ReplicatedFabric::recover_replica

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use pmp_common::sync::{sched_point, spin_point, LockClass, TrackedMutex};
use pmp_common::Counter;
pub use pmp_rdma::Locality;
use pmp_rdma::{Fabric, FabricBatch, FabricStats};

/// Cell-registry lock; held standalone (clone-out before any charged work).
const REPL_CELLS: LockClass = LockClass::new("repl.cells");

/// Replica health states.
const HEALTH_UP: u64 = 0;
/// Being re-seated: writers already include it, readers don't trust it yet.
const HEALTH_JOINING: u64 = 1;
const HEALTH_DOWN: u64 = 2;

/// Pattern smeared over a crashed replica's slots: any read that trusted a
/// dead replica would surface this loudly instead of silently reading stale
/// data.
pub const POISON: u64 = 0x6b6b_6b6b_6b6b_6b6b;

/// Single-replica read validation attempts before falling back to a majority
/// read. Write install windows are a handful of plain stores, so a conflict
/// that persists this long means a real overlapping write burst.
const SINGLE_READ_RETRIES: usize = 64;

/// One replica's copy of a cell: the value word plus the seqlock word and
/// version tag that sit in the same cache line (one RDMA read fetches all
/// three, which is why a validated single-replica read still charges exactly
/// one verb).
#[derive(Debug)]
struct ReplSlot {
    /// Seqlock word: odd while a write is landing on this replica. Held odd
    /// permanently while the replica is crashed.
    seq: AtomicU64,
    /// Monotonic per-cell write tag; majority reads resolve to the highest.
    tag: AtomicU64,
    value: AtomicU64,
}

impl ReplSlot {
    fn new(value: u64) -> Self {
        ReplSlot {
            seq: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            value: AtomicU64::new(value),
        }
    }

    /// One seqlock-validated sample of this copy, `read` fetching the value
    /// word: `(tag, value)`, or `None` if a write was landing.
    fn sample(&self, read: impl FnOnce(&AtomicU64) -> u64) -> Option<(u64, u64)> {
        let s1 = self.seq.load(Ordering::Acquire);
        let tag = self.tag.load(Ordering::Acquire);
        let value = read(&self.value);
        let s2 = self.seq.load(Ordering::Acquire);
        (s1 == s2 && s1 & 1 == 0).then_some((tag, value))
    }

    /// Install `(value, tag)` behind this copy's seqlock window. The value
    /// movement is posted to `batch` (metered; charged at the doorbell), the
    /// seq/tag words ride in the same cache line for free.
    fn install(&self, value: u64, tag: u64, batch: &mut FabricBatch<'_>, loc: Locality) {
        let odd = self.seq.load(Ordering::Acquire) | 1;
        self.seq.store(odd, Ordering::Release);
        batch.write_u64(&self.value, value, loc);
        self.tag.store(tag, Ordering::Release);
        self.seq.store(odd.wrapping_add(1), Ordering::Release);
    }
}

/// A replicated 64-bit registered word: one [`ReplSlot`] per PMFS replica.
/// Created through [`ReplicatedFabric::cell`], which also registers it for
/// crash scrambling and recovery re-seating.
#[derive(Debug)]
pub struct ReplCell {
    /// Serialises writers to this cell. A spin lock, not a tracked mutex:
    /// the critical section is a handful of plain stores (the doorbell
    /// charge is paid *after* release), and cells are word-granular so
    /// contention is per-word, same as the underlying atomics.
    wlock: AtomicBool,
    /// Tag allocator. Allocated under `wlock`, so tags order exactly like
    /// the installs they describe.
    next_tag: AtomicU64,
    slots: Box<[ReplSlot]>,
}

impl ReplCell {
    fn new(value: u64, replicas: usize) -> Self {
        ReplCell {
            wlock: AtomicBool::new(false),
            next_tag: AtomicU64::new(0),
            slots: (0..replicas).map(|_| ReplSlot::new(value)).collect(),
        }
    }

    fn lock(&self) {
        while self
            .wlock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Acquire)
            .is_err()
        {
            spin_point("repl.cell.lock-spin");
            std::hint::spin_loop();
        }
    }

    fn unlock(&self) {
        self.wlock.store(false, Ordering::Release);
    }
}

/// The caller's locality claim is about replica 0, the copy co-located with
/// the word's owner; every other replica is across the fabric.
fn slot_locality(replica: usize, locality: Locality) -> Locality {
    if replica == 0 {
        locality
    } else {
        Locality::Remote
    }
}

/// One lap of a read-retry loop: let a descheduled writer run, and give up
/// the CPU every 64 laps.
fn backoff(lap: usize) {
    spin_point("repl.read.retry");
    if lap.is_multiple_of(64) {
        std::thread::yield_now();
    }
    std::hint::spin_loop();
}

/// Replication meters, surfaced in `pmp_core::StatsSnapshot`.
#[derive(Debug, Default)]
pub struct ReplStats {
    /// Writes fanned out in place to 2+ replicas (never counted at R=1).
    pub replicated_writes: Counter,
    /// Reads served by one replica with a clean seqlock validation.
    pub single_replica_reads: Counter,
    /// Reads that fell back to a cross-replica majority resolution.
    pub majority_reads: Counter,
    /// Conflicts (torn single-replica reads) resolved via majority.
    pub conflicts_resolved: Counter,
    /// Replicas evicted by [`ReplicatedFabric::crash_replica`].
    pub evictions: Counter,
    /// Replicas re-seated by [`ReplicatedFabric::recover_replica`].
    pub recoveries: Counter,
    /// Re-seats initiated by the background suspicion monitor (a subset
    /// of `recoveries`), as opposed to operator/test calls.
    pub auto_reseats: Counter,
}

/// Plain-data snapshot of [`ReplStats`] plus group membership.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplSnapshot {
    pub replicas: usize,
    pub alive: usize,
    pub replicated_writes: u64,
    pub single_replica_reads: u64,
    pub majority_reads: u64,
    pub conflicts_resolved: u64,
    pub evictions: u64,
    pub recoveries: u64,
    pub auto_reseats: u64,
}

/// The replication facade over the raw fabric. See the crate docs for the
/// protocol; see [`ReplicatedFabric::cell`] for how state opts in.
pub struct ReplicatedFabric {
    fabric: Arc<Fabric>,
    replicas: usize,
    /// Minimum not-Down replicas required to keep serving; enforced by the
    /// engine via [`quorum_ok`](Self::quorum_ok), not by the verbs.
    quorum: usize,
    health: Vec<AtomicU64>,
    /// Every live cell, for crash scrambling and recovery re-seating.
    cells: TrackedMutex<Vec<Weak<ReplCell>>>,
    stats: ReplStats,
}

impl std::fmt::Debug for ReplicatedFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedFabric")
            .field("replicas", &self.replicas)
            .field("quorum", &self.quorum)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ReplicatedFabric {
    /// `replicas` PMFS copies, `quorum` of which must stay alive to serve.
    pub fn new(fabric: Arc<Fabric>, replicas: usize, quorum: usize) -> Self {
        let replicas = replicas.max(1);
        let quorum = quorum.clamp(1, replicas);
        ReplicatedFabric {
            fabric,
            replicas,
            quorum,
            health: (0..replicas).map(|_| AtomicU64::new(HEALTH_UP)).collect(),
            cells: TrackedMutex::new(REPL_CELLS, Vec::new()),
            stats: ReplStats::default(),
        }
    }

    /// The unreplicated configuration: one replica, verbs degenerate to the
    /// raw fabric's.
    pub fn single(fabric: Arc<Fabric>) -> Self {
        Self::new(fabric, 1, 1)
    }

    /// Op meters of the underlying fabric; the fabric itself is not reachable
    /// from here, so PMFS state is only touched through replicated verbs.
    pub fn fabric_stats(&self) -> &FabricStats {
        self.fabric.stats()
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub fn quorum(&self) -> usize {
        self.quorum
    }

    pub fn stats(&self) -> &ReplStats {
        &self.stats
    }

    pub fn snapshot(&self) -> ReplSnapshot {
        ReplSnapshot {
            replicas: self.replicas,
            alive: self.alive_replicas(),
            replicated_writes: self.stats.replicated_writes.get(),
            single_replica_reads: self.stats.single_replica_reads.get(),
            majority_reads: self.stats.majority_reads.get(),
            conflicts_resolved: self.stats.conflicts_resolved.get(),
            evictions: self.stats.evictions.get(),
            recoveries: self.stats.recoveries.get(),
            auto_reseats: self.stats.auto_reseats.get(),
        }
    }

    /// Not-Down replica count (Joining counts: it receives all writes).
    pub fn alive_replicas(&self) -> usize {
        self.health
            .iter()
            .filter(|h| h.load(Ordering::Acquire) != HEALTH_DOWN)
            .count()
    }

    /// Whether enough replicas survive to keep acknowledging work.
    pub fn quorum_ok(&self) -> bool {
        self.alive_replicas() >= self.quorum
    }

    pub fn replica_up(&self, replica: usize) -> bool {
        self.health[replica].load(Ordering::Acquire) == HEALTH_UP
    }

    fn is_down(&self, replica: usize) -> bool {
        self.health[replica].load(Ordering::Acquire) == HEALTH_DOWN
    }

    /// Lowest fully-Up replica: the read target and the write authority.
    /// Writers serialise on the cell lock and install to every not-Down
    /// slot, so all Up slots hold identical values between writes — the
    /// lowest is simply a deterministic pick.
    fn primary_up(&self) -> usize {
        for (i, h) in self.health.iter().enumerate() {
            if h.load(Ordering::Acquire) == HEALTH_UP {
                return i;
            }
        }
        panic!("no PMFS replica left Up (replicas={})", self.replicas);
    }

    /// Register a new replicated word initialised to `init` on every slot.
    pub fn cell(&self, init: u64) -> Arc<ReplCell> {
        let cell = Arc::new(ReplCell::new(init, self.replicas));
        let mut cells = self.cells.lock();
        // Amortised prune so crash/recover never walk dead weak refs from
        // dropped regions (tests build thousands of short-lived cells).
        if cells.len() == cells.capacity() {
            cells.retain(|w| w.strong_count() > 0);
        }
        cells.push(Arc::downgrade(&cell));
        drop(cells);
        cell
    }

    /// Start a doorbell batch over the replicated verb surface.
    pub fn batch(&self) -> ReplBatch<'_> {
        ReplBatch {
            repl: self,
            inner: self.fabric.batch(),
        }
    }

    /// The batch of one behind a single verb (see [`Fabric::verb`]): at R>1
    /// a write's fan-out rides its doorbell, and counts as batched traffic.
    fn verb(&self) -> ReplBatch<'_> {
        ReplBatch {
            repl: self,
            inner: self.fabric.verb(),
        }
    }

    // ---- Single verbs: one op on a batch of one ---------------------------

    /// One-sided replicated READ: one replica, one charged verb, seqlock
    /// validated; majority fallback on conflict.
    pub fn read_u64(&self, cell: &ReplCell, locality: Locality) -> u64 {
        self.verb().read_cell(cell, locality)
    }

    /// One-sided replicated compare-and-swap: resolved on the primary,
    /// result installed in place on the other live replicas.
    pub fn cas_u64(
        &self,
        cell: &ReplCell,
        expected: u64,
        new: u64,
        locality: Locality,
    ) -> Result<u64, u64> {
        self.verb().rmw(cell, locality, |batch, word, loc| {
            let result = batch.cas_u64(word, expected, new, loc);
            (result, result.is_ok())
        })
    }

    /// One-sided replicated fetch-and-add (the TSO verb): resolved on the
    /// primary, sum installed in place on the other live replicas.
    pub fn fetch_add_u64(&self, cell: &ReplCell, delta: u64, locality: Locality) -> u64 {
        self.verb().rmw(cell, locality, |batch, word, loc| {
            (batch.fetch_add_u64(word, delta, loc), true)
        })
    }

    /// Bulk READ charge (reads never replicate: single-replica policy).
    pub fn bulk_read(&self, bytes: usize, locality: Locality) {
        self.fabric.bulk_read(bytes, locality);
    }

    /// Bulk WRITE charge, replicated: the payload lands on every live
    /// replica in one doorbell (DBP page pushes at R>1 pay the extra
    /// copies' bytes, not an extra round trip).
    pub fn bulk_write(&self, bytes: usize, locality: Locality) {
        let mut verb = self.verb();
        verb.inner.bulk_write(bytes, locality);
        verb.mirror(bytes);
    }

    /// RPC round trip to the fusion server (the RPC-served directories keep
    /// their single in-process copy; see [`replicate_mutation`]).
    ///
    /// [`replicate_mutation`]: Self::replicate_mutation
    pub fn rpc<R>(&self, request_bytes: usize, handler: impl FnOnce() -> R) -> R {
        self.fabric.rpc(request_bytes, handler)
    }

    /// Charge the in-place replication of an RPC-served directory mutation
    /// (PLock grant, DBP directory update, wait-info edge): one doorbell of
    /// `bytes` to every live backup. Free at R=1. The in-process `HashMap`
    /// state models the copy every surviving replica holds, which is why
    /// those directories survive [`crash_replica`](Self::crash_replica)
    /// without a re-seat.
    pub fn replicate_mutation(&self, bytes: usize) {
        self.verb().mirror(bytes);
    }

    // ---- Unmetered local mirrors ------------------------------------------
    //
    // The TIT's owning-node plain ops (slot init, commit store, version
    // bumps) are deliberately charge-free in the latency model: the primary
    // op is a plain atomic. At R>1 the backup fan-out is posted and metered
    // like any replicated write — the honest cost of replication.

    /// Plain load of the current value (owning-node peek, never charged).
    pub fn load(&self, cell: &ReplCell) -> u64 {
        self.read_primary(cell, usize::MAX, |word, _| word.load(Ordering::Acquire))
            .expect("an unbounded retry only returns a validated value")
    }

    /// Plain store (owning-node op; backup fan-out metered at R>1).
    pub fn store(&self, cell: &ReplCell, value: u64) {
        self.verb().rmw(cell, Locality::Local, |_, word, _| {
            (word.store(value, Ordering::Release), true)
        })
    }

    /// Plain fetch-add (owning-node op; backup fan-out metered at R>1).
    pub fn fetch_add_local(&self, cell: &ReplCell, delta: u64) -> u64 {
        self.verb().rmw(cell, Locality::Local, |_, word, _| {
            (word.fetch_add(delta, Ordering::AcqRel), true)
        })
    }

    /// Plain swap (owning-node op; backup fan-out metered at R>1).
    pub fn swap_local(&self, cell: &ReplCell, value: u64) -> u64 {
        self.verb().rmw(cell, Locality::Local, |_, word, _| {
            (word.swap(value, Ordering::AcqRel), true)
        })
    }

    // ---- The read protocol -------------------------------------------------

    /// The validated single-replica read: sample the primary's copy (`read`
    /// fetches the value word of the replica it is given) until the seqlock
    /// validates, at most `attempts` times. `None` means a write was landing
    /// every time.
    fn read_primary(
        &self,
        cell: &ReplCell,
        attempts: usize,
        mut read: impl FnMut(&AtomicU64, usize) -> u64,
    ) -> Option<u64> {
        if self.replicas == 1 {
            return Some(read(&cell.slots[0].value, 0));
        }
        for lap in 1..=attempts {
            let p = self.primary_up();
            // The pick can be stale by the time the read lands.
            sched_point("repl.read.primary-picked");
            if let Some((_, value)) = cell.slots[p].sample(|word| read(word, p)) {
                return Some(value);
            }
            backoff(lap);
        }
        None
    }

    /// Conflict path: sample every Up replica (one doorbell batch per pass),
    /// require a clean validation from each, resolve to the highest tag.
    fn majority_read(&self, cell: &ReplCell, locality: Locality) -> u64 {
        self.stats.majority_reads.inc();
        let mut lap = 0;
        loop {
            let mut best: Option<(u64, u64)> = None;
            let (mut up, mut sampled) = (0, 0);
            let mut batch = self.fabric.batch();
            for (i, slot) in cell.slots.iter().enumerate() {
                if !self.replica_up(i) {
                    continue;
                }
                up += 1;
                let read = |word: &AtomicU64| batch.read_u64(word, slot_locality(i, locality));
                if let Some((tag, value)) = slot.sample(read) {
                    sampled += 1;
                    if best.is_none_or(|(t, _)| tag > t) {
                        best = Some((tag, value));
                    }
                }
            }
            batch.flush();
            assert!(up > 0, "no PMFS replica left Up during majority read");
            if sampled >= self.quorum.min(up) {
                // A write is acknowledged only after it is installed on
                // every live replica, so any validated sample carries a tag
                // ≥ the newest acknowledged write; the highest tag among a
                // quorum of validated samples resolves the conflict.
                let (_, value) = best.expect("sampled > 0");
                return value;
            }
            lap += 1;
            backoff(lap);
        }
    }

    // ---- Membership --------------------------------------------------------

    /// Kill replica `i`: mark it Down and scramble its slot in every
    /// registered cell (its copy of anything is unrecoverable, like losing a
    /// memory node). Returns false if it was already down, or if this is an
    /// unreplicated facade — at `replicas = 1` there is no replication layer
    /// to inject faults into, only the raw fabric (crash the node instead).
    pub fn crash_replica(&self, replica: usize) -> bool {
        assert!(replica < self.replicas, "replica {replica} out of range");
        if self.replicas == 1 {
            return false;
        }
        if self.health[replica].swap(HEALTH_DOWN, Ordering::AcqRel) == HEALTH_DOWN {
            return false;
        }
        self.stats.evictions.inc();
        let cells = self.live_cells();
        for cell in &cells {
            cell.lock();
            let slot = &cell.slots[replica];
            // Leave seq odd so any in-flight single-replica read that
            // already picked this replica fails validation and retries
            // elsewhere, exactly like an RDMA read to a dead NIC timing out.
            slot.seq
                .store(slot.seq.load(Ordering::Acquire) | 1, Ordering::Release);
            slot.value.store(POISON, Ordering::Release);
            slot.tag.store(0, Ordering::Release);
            cell.unlock();
        }
        true
    }

    /// Re-seat replica `i` from the survivors: mark it Joining (writers
    /// immediately include it again), copy every registered cell from the
    /// newest surviving slot by tag, then mark it Up. Returns false unless
    /// the replica was down. The copy traffic is posted as one doorbell
    /// stream (the model of a log-structured resync).
    pub fn recover_replica(&self, replica: usize) -> bool {
        assert!(replica < self.replicas, "replica {replica} out of range");
        if self.health[replica].load(Ordering::Acquire) != HEALTH_DOWN {
            return false;
        }
        self.health[replica].store(HEALTH_JOINING, Ordering::Release);
        let cells = self.live_cells();
        let mut batch = self.fabric.batch();
        for cell in &cells {
            cell.lock();
            // Newest surviving copy. Plain loads are consistent here: the
            // cell lock excludes writers.
            let mut src: Option<(u64, u64)> = None;
            for (j, slot) in cell.slots.iter().enumerate() {
                if j == replica || !self.replica_up(j) {
                    continue;
                }
                let tag = slot.tag.load(Ordering::Acquire);
                if src.is_none_or(|(t, _)| tag > t) {
                    src = Some((tag, slot.value.load(Ordering::Acquire)));
                }
            }
            if let Some((tag, value)) = src {
                let dst = &cell.slots[replica];
                // A concurrent writer may already have installed something
                // newer than the survivors held when we sampled; never
                // regress it.
                if tag >= dst.tag.load(Ordering::Acquire) {
                    dst.install(value, tag, &mut batch, Locality::Remote);
                }
            }
            cell.unlock();
        }
        batch.flush();
        // Writes landing now must already include the Joining replica.
        sched_point("repl.recover.reseated");
        self.health[replica].store(HEALTH_UP, Ordering::Release);
        self.stats.recoveries.inc();
        true
    }

    /// [`recover_replica`](Self::recover_replica) as invoked by the
    /// background suspicion monitor: same re-seat, plus the
    /// `auto_reseats` meter so operators can tell self-healing from
    /// manual intervention.
    pub fn auto_reseat_replica(&self, replica: usize) -> bool {
        let ok = self.recover_replica(replica);
        if ok {
            self.stats.auto_reseats.inc();
        }
        ok
    }

    /// Replica indices currently marked Down (the monitor's scan surface).
    pub fn down_replicas(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.load(Ordering::Acquire) == HEALTH_DOWN)
            .map(|(i, _)| i)
            .collect()
    }

    /// Clone the registry out of its lock (so scramble/resync never hold a
    /// tracked lock across cell work or charges), dropping dead weak refs.
    fn live_cells(&self) -> Vec<Arc<ReplCell>> {
        let mut cells = self.cells.lock();
        cells.retain(|w| w.strong_count() > 0);
        cells.iter().filter_map(Weak::upgrade).collect()
    }
}

/// Doorbell batch over the replicated verb surface, and the one place the
/// replication protocol is implemented: cell ops replicate into one
/// underlying [`FabricBatch`]; raw passthroughs post directly. One charge
/// when the doorbell rings, at [`flush`](Self::flush) or drop.
pub struct ReplBatch<'a> {
    repl: &'a ReplicatedFabric,
    inner: FabricBatch<'a>,
}

impl ReplBatch<'_> {
    /// The one write path; every mutation of a cell, metered verb or
    /// owning-node mirror, runs through it. Under the cell lock, `op` runs on
    /// the primary's value word inside its seqlock window and says whether it
    /// wrote; if so the new value is tagged, and installed on every other
    /// live replica through the same doorbell.
    fn rmw<T>(
        &mut self,
        cell: &ReplCell,
        locality: Locality,
        op: impl FnOnce(&mut FabricBatch<'_>, &AtomicU64, Locality) -> (T, bool),
    ) -> T {
        let repl = self.repl;
        if repl.replicas == 1 {
            return op(&mut self.inner, &cell.slots[0].value, locality).0;
        }
        cell.lock();
        let p = repl.primary_up();
        let pslot = &cell.slots[p];
        let odd = pslot.seq.load(Ordering::Acquire) | 1;
        pslot.seq.store(odd, Ordering::Release);
        sched_point("repl.write.seq-odd");
        let (out, wrote) = op(&mut self.inner, &pslot.value, slot_locality(p, locality));
        sched_point("repl.torn-window");
        let tag = wrote.then(|| {
            let tag = cell.next_tag.fetch_add(1, Ordering::AcqRel) + 1;
            pslot.tag.store(tag, Ordering::Release);
            tag
        });
        sched_point("repl.write.tag-published");
        pslot.seq.store(odd.wrapping_add(1), Ordering::Release);
        if let Some(tag) = tag {
            let new = pslot.value.load(Ordering::Acquire);
            for (i, slot) in cell.slots.iter().enumerate() {
                if i != p && !repl.is_down(i) {
                    slot.install(new, tag, &mut self.inner, Locality::Remote);
                }
            }
            repl.stats.replicated_writes.inc();
        }
        cell.unlock();
        out
    }

    /// Replicated WRITE of a cell, posted to the batch.
    pub fn write_cell(&mut self, cell: &ReplCell, value: u64, locality: Locality) {
        self.rmw(cell, locality, |batch, word, loc| {
            (batch.write_u64(word, value, loc), true)
        })
    }

    /// Replicated swap of a cell, posted to the batch.
    pub fn swap_cell(&mut self, cell: &ReplCell, value: u64, locality: Locality) -> u64 {
        self.rmw(cell, locality, |batch, word, loc| {
            (batch.swap_u64(word, value, loc), true)
        })
    }

    /// Replicated READ of a cell, posted to the batch: one replica, seqlock
    /// validated, every attempt a posted read; on persistent conflict a
    /// majority read, which rings doorbells of its own.
    pub fn read_cell(&mut self, cell: &ReplCell, locality: Locality) -> u64 {
        let (repl, inner) = (self.repl, &mut self.inner);
        let read = |word: &AtomicU64, p| inner.read_u64(word, slot_locality(p, locality));
        match repl.read_primary(cell, SINGLE_READ_RETRIES, read) {
            Some(value) => {
                repl.stats.single_replica_reads.inc();
                value
            }
            None => {
                repl.stats.conflicts_resolved.inc();
                repl.majority_read(cell, locality)
            }
        }
    }

    /// Bulk WRITE of `bytes` to every live backup (the primary's copy is the
    /// caller's to post). Nothing at R=1.
    fn mirror(&mut self, bytes: usize) {
        let repl = self.repl;
        let backups = (1..repl.replicas).filter(|&i| !repl.is_down(i)).count();
        for _ in 0..backups {
            self.inner.bulk_write(bytes, Locality::Remote);
        }
        if backups > 0 {
            repl.stats.replicated_writes.inc();
        }
    }

    /// Raw one-sided WRITE passthrough (node-owned memory, e.g. a peer's
    /// LBP invalid flag — not PMFS state, so it does not replicate).
    pub fn write_flag(&mut self, flag: &AtomicBool, value: bool, locality: Locality) {
        self.inner.write_flag(flag, value, locality);
    }

    /// One-way fusion→node message, posted to the batch.
    pub fn one_way_message(&mut self, bytes: usize) {
        self.inner.one_way_message(bytes);
    }

    /// Full-round-trip message, posted to the batch.
    pub fn rpc_message(&mut self, bytes: usize) {
        self.inner.rpc_message(bytes);
    }

    /// Ring the doorbell now (see [`FabricBatch::flush`]); dropping the
    /// batch does the same.
    pub fn flush(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;

    fn repl(replicas: usize, quorum: usize) -> ReplicatedFabric {
        ReplicatedFabric::new(
            Arc::new(Fabric::new(LatencyConfig::disabled())),
            replicas,
            quorum,
        )
    }

    /// A replicated remote write, alone in its doorbell.
    fn write(r: &ReplicatedFabric, cell: &ReplCell, value: u64) {
        r.batch().write_cell(cell, value, Locality::Remote);
    }

    #[test]
    fn unreplicated_verbs_meter_exactly_like_the_raw_fabric() {
        let r = repl(1, 1);
        let c = r.cell(7);
        assert_eq!(r.read_u64(&c, Locality::Remote), 7);
        assert_eq!(r.fetch_add_u64(&c, 3, Locality::Remote), 7);
        assert_eq!(r.cas_u64(&c, 10, 20, Locality::Remote), Ok(10));
        assert_eq!(r.cas_u64(&c, 10, 30, Locality::Remote), Err(20));
        r.bulk_write(4096, Locality::Remote);
        r.replicate_mutation(32);
        r.store(&c, 5);
        assert_eq!(r.load(&c), 5);
        assert_eq!(r.swap_local(&c, 6), 5);
        assert_eq!(r.fetch_add_local(&c, 1), 6);
        let s = r.fabric_stats();
        // Exactly the raw verbs: 1 read, 1 bulk write, 3 atomics; the local
        // mirrors and the replication layer add nothing at R=1.
        assert_eq!(s.reads.get(), 1);
        assert_eq!(s.writes.get(), 1);
        assert_eq!(s.bytes_written.get(), 4096);
        assert_eq!(s.atomics.get(), 3);
        assert_eq!(s.batched_ops.get(), 0);
        assert_eq!(r.stats().replicated_writes.get(), 0);
        assert_eq!(r.stats().single_replica_reads.get(), 1);
    }

    #[test]
    fn replicated_write_lands_on_every_slot() {
        let r = repl(3, 2);
        let c = r.cell(0);
        write(&r, &c, 41);
        r.store(&c, 42);
        for slot in c.slots.iter() {
            assert_eq!(slot.value.load(Ordering::Acquire), 42);
        }
        assert_eq!(r.read_u64(&c, Locality::Remote), 42);
        assert_eq!(r.load(&c), 42);
        // 3 slots per write → batched writes metered per slot.
        assert_eq!(r.fabric_stats().writes.get(), 3 + 2); // write fans 3, store fans 2 backups
        assert_eq!(r.stats().replicated_writes.get(), 2);
        assert_eq!(r.stats().single_replica_reads.get(), 1);
    }

    #[test]
    fn rmw_verbs_replicate_their_result() {
        let r = repl(3, 2);
        let c = r.cell(10);
        assert_eq!(r.fetch_add_u64(&c, 5, Locality::Remote), 10);
        assert_eq!(r.cas_u64(&c, 15, 99, Locality::Remote), Ok(15));
        assert_eq!(r.cas_u64(&c, 15, 7, Locality::Remote), Err(99));
        assert_eq!(r.swap_local(&c, 3), 99);
        assert_eq!(r.fetch_add_local(&c, 4), 3);
        for slot in c.slots.iter() {
            assert_eq!(slot.value.load(Ordering::Acquire), 7);
        }
    }

    #[test]
    fn acked_writes_survive_any_single_replica_crash() {
        for victim in 0..3 {
            let r = repl(3, 2);
            let c = r.cell(0);
            write(&r, &c, 1000 + victim as u64);
            assert!(r.crash_replica(victim));
            assert!(!r.crash_replica(victim), "double crash is a no-op");
            assert!(r.quorum_ok());
            assert_eq!(r.read_u64(&c, Locality::Remote), 1000 + victim as u64);
            assert_eq!(r.load(&c), 1000 + victim as u64);
            // Writes keep going to the survivors.
            assert_eq!(
                r.fetch_add_u64(&c, 1, Locality::Remote),
                1000 + victim as u64
            );
            assert_eq!(r.read_u64(&c, Locality::Remote), 1001 + victim as u64);
        }
    }

    #[test]
    fn recovery_reseats_the_crashed_replica_from_survivors() {
        let r = repl(3, 2);
        let c = r.cell(0);
        write(&r, &c, 11);
        assert!(r.crash_replica(0));
        write(&r, &c, 22); // lands only on survivors
        assert!(r.recover_replica(0));
        assert!(!r.recover_replica(0), "double recover is a no-op");
        assert_eq!(c.slots[0].value.load(Ordering::Acquire), 22);
        // Now the *other* replicas can die and the value must hold.
        assert!(r.crash_replica(1));
        assert!(r.crash_replica(2));
        assert!(!r.quorum_ok());
        assert_eq!(r.read_u64(&c, Locality::Remote), 22);
        assert_eq!(r.stats().evictions.get(), 3);
        assert_eq!(r.stats().recoveries.get(), 1);
    }

    #[test]
    fn cells_created_after_a_crash_recover_too() {
        let r = repl(2, 1);
        assert!(r.crash_replica(1));
        let c = r.cell(5);
        write(&r, &c, 6);
        assert!(r.recover_replica(1));
        assert!(r.crash_replica(0));
        assert_eq!(r.read_u64(&c, Locality::Remote), 6);
    }

    #[test]
    fn quorum_tracks_membership() {
        let r = repl(3, 2);
        assert_eq!(r.alive_replicas(), 3);
        assert!(r.quorum_ok());
        r.crash_replica(2);
        assert!(r.quorum_ok());
        r.crash_replica(1);
        assert!(!r.quorum_ok());
        r.recover_replica(1);
        assert!(r.quorum_ok());
    }

    #[test]
    fn batch_cell_ops_replicate_and_roundtrip() {
        let r = repl(3, 2);
        let c = r.cell(1);
        let d = r.cell(100);
        let mut b = r.batch();
        b.write_cell(&c, 8, Locality::Local);
        assert_eq!(b.swap_cell(&d, 3, Locality::Local), 100);
        assert_eq!(b.read_cell(&c, Locality::Remote), 8);
        b.flush();
        for slot in c.slots.iter() {
            assert_eq!(slot.value.load(Ordering::Acquire), 8);
        }
        for slot in d.slots.iter() {
            assert_eq!(slot.value.load(Ordering::Acquire), 3);
        }
    }

    #[test]
    fn batch_cell_ops_at_r1_post_single_ops() {
        let r = repl(1, 1);
        let c = r.cell(1);
        let mut b = r.batch();
        b.write_cell(&c, 2, Locality::Local);
        b.swap_cell(&c, 3, Locality::Local);
        b.read_cell(&c, Locality::Local);
        b.flush();
        let s = r.fabric_stats();
        assert_eq!(s.batched_ops.get(), 3);
        assert_eq!((s.writes.get(), s.atomics.get(), s.reads.get()), (1, 1, 1));
        assert_eq!(r.stats().replicated_writes.get(), 0);
    }

    #[test]
    fn replicated_single_verbs_ring_one_doorbell() {
        let r = repl(3, 2);
        let c = r.cell(0);
        let s = r.fabric_stats();
        r.read_u64(&c, Locality::Remote);
        r.rpc(32, || ());
        assert_eq!(s.batched_ops.get(), 0, "a lone read or RPC is not batched");
        r.fetch_add_u64(&c, 1, Locality::Remote); // primary atomic + 2 backup writes
        assert_eq!(s.batched_ops.get(), 3);
        r.store(&c, 9); // primary plain and unmetered, 2 backup writes
        assert_eq!(s.batched_ops.get(), 5);
        // The page payload reaches the primary and both backups in the same
        // doorbell (DESIGN.md §15), not primary first and backups after.
        r.bulk_write(4096, Locality::Remote);
        assert_eq!(s.batched_ops.get(), 8);
        assert_eq!(s.bytes_written.get(), 4 * 8 + 3 * 4096);
        assert_eq!(r.stats().replicated_writes.get(), 3);
    }

    #[test]
    fn replicate_mutation_is_free_at_r1_and_charged_at_r3() {
        let r1 = repl(1, 1);
        r1.replicate_mutation(32);
        assert_eq!(r1.fabric_stats().writes.get(), 0);

        let r3 = repl(3, 2);
        r3.replicate_mutation(32);
        assert_eq!(r3.fabric_stats().writes.get(), 2);
        assert_eq!(r3.fabric_stats().bytes_written.get(), 64);
        r3.crash_replica(2);
        r3.replicate_mutation(32);
        assert_eq!(r3.fabric_stats().writes.get(), 3, "dead backup skipped");
    }

    #[test]
    fn concurrent_fetch_add_with_crash_and_recovery_loses_nothing() {
        use std::sync::atomic::AtomicBool as StopFlag;
        let r = Arc::new(repl(3, 2));
        let c = r.cell(0);
        let stop = Arc::new(StopFlag::new(false));
        let adders: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        r.fetch_add_u64(&c, 1, Locality::Remote);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for victim in [2usize, 1, 2, 0, 1] {
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(r.crash_replica(victim));
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(r.recover_replica(victim));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = adders.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(r.load(&c), total, "every acknowledged FAA must persist");
        for slot in c.slots.iter() {
            assert_eq!(slot.value.load(Ordering::Acquire), total);
        }
    }

    #[test]
    fn torn_single_replica_reads_fall_back_to_majority() {
        // Hold a write window open by hand on the primary and confirm the
        // reader resolves via the survivors' majority instead of spinning
        // forever or returning the torn value.
        let r = repl(3, 2);
        let c = r.cell(0);
        write(&r, &c, 7);
        let slot0 = &c.slots[0];
        slot0
            .seq
            .store(slot0.seq.load(Ordering::Acquire) | 1, Ordering::Release);
        slot0.value.store(POISON, Ordering::Release);
        assert_eq!(r.read_u64(&c, Locality::Remote), 7);
        assert!(r.stats().majority_reads.get() >= 1);
        assert!(r.stats().conflicts_resolved.get() >= 1);
    }
}
