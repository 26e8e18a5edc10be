//! The fabric: one-sided verbs over registered atomics, plus RPC.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pmp_common::{Counter, LatencyConfig};

use crate::clock::precise_wait_ns;

/// Whether a verb targets the caller's own registered memory (an ordinary
/// load/store — free) or a peer's (pays fabric latency).
///
/// In the real system a node knows this by comparing the target node id with
/// its own before computing the remote TIT address (§4.1); callers here make
/// the same decision and pass it in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Locality {
    Local,
    Remote,
}

/// Verb classes: what an op is metered as and what it costs.
#[derive(Clone, Copy)]
enum OpKind {
    Read,
    Write,
    Atomic,
    Rpc,
    /// Half an RPC round trip; metered as an RPC.
    OneWay,
}

/// Per-fabric op meters. All counters are relaxed; they feed the benchmark
/// reports, not any control decision.
#[derive(Debug, Default)]
pub struct FabricStats {
    pub reads: Counter,
    pub writes: Counter,
    pub atomics: Counter,
    pub rpcs: Counter,
    pub bytes_read: Counter,
    pub bytes_written: Counter,
    /// Ops posted through a [`FabricBatch`] doorbell (also counted in the
    /// per-kind meters above; this tracks how much traffic is coalesced).
    pub batched_ops: Counter,
}

/// The simulated RDMA fabric shared by every node and the PMFS.
///
/// Registered memory is modelled as ordinary shared atomics owned by the
/// respective components (TIT slots, invalid flags, the TSO cell); the fabric
/// provides the verbs that access them with the right latency and metering.
#[derive(Debug)]
pub struct Fabric {
    cfg: LatencyConfig,
    stats: FabricStats,
}

impl Fabric {
    pub fn new(cfg: LatencyConfig) -> Self {
        Fabric {
            cfg,
            stats: FabricStats::default(),
        }
    }

    pub fn config(&self) -> &LatencyConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// One-sided RDMA READ of a 64-bit registered word.
    pub fn read_u64(&self, cell: &AtomicU64, locality: Locality) -> u64 {
        self.verb().read_u64(cell, locality)
    }

    /// One-sided RDMA WRITE of a 64-bit registered word.
    pub fn write_u64(&self, cell: &AtomicU64, value: u64, locality: Locality) {
        self.verb().write_u64(cell, value, locality);
    }

    /// Charge for a one-sided bulk READ of `bytes` (page fetch from the DBP).
    /// The caller performs the actual copy (we move `Arc`s in-process).
    pub fn bulk_read(&self, bytes: usize, locality: Locality) {
        self.verb().bulk_read(bytes, locality);
    }

    /// Charge for a one-sided bulk WRITE of `bytes` (page push to the DBP).
    pub fn bulk_write(&self, bytes: usize, locality: Locality) {
        self.verb().bulk_write(bytes, locality);
    }

    /// Charge the engine-CPU cost of one SQL statement (not fabric traffic,
    /// but part of the same scaled time model).
    pub fn charge_statement(&self) {
        precise_wait_ns(self.cfg.charge_ns(self.cfg.sql_stmt_ns, 0));
    }

    /// Start a doorbell batch: post any number of verbs, then pay for the
    /// whole list with **one** latency when the doorbell rings — the maximum
    /// per-op base cost plus the summed per-byte cost, the same model a
    /// doorbell-batched work-request list (or the `pmp-io` worker batch)
    /// obeys. Every op is still metered individually. This is the only
    /// implementation of a verb: the single-verb methods of this type are a
    /// batch of one.
    pub fn batch(&self) -> FabricBatch<'_> {
        FabricBatch::new(self, true)
    }

    /// The batch of one behind a single verb: posts, meters and charges like
    /// [`batch`](Self::batch), but its ops count as `batched_ops` only if it
    /// ends up carrying more than one (a replicated verb fanning out to its
    /// backups) — a lone verb is not coalesced traffic. Used as a temporary,
    /// it is dropped, and so rings, at the end of the posting statement.
    pub fn verb(&self) -> FabricBatch<'_> {
        FabricBatch::new(self, false)
    }

    /// RDMA-based RPC: charges the round-trip, then runs the handler inline.
    ///
    /// The handler executes on the caller's thread — the real PMFS serves
    /// RPCs from a polling thread pool with negligible queueing at the scales
    /// we run, so inline execution plus the round-trip charge is a faithful
    /// (and deterministic) model. Handlers are allowed to block (e.g. a
    /// PLock request waiting for a conflicting holder, §4.3.1); the charge is
    /// applied up front so blocked time is not double-counted.
    pub fn rpc<R>(&self, request_bytes: usize, handler: impl FnOnce() -> R) -> R {
        self.verb().rpc_message(request_bytes);
        handler()
    }
}

/// A doorbell-batched list of verbs (see [`Fabric::batch`]).
///
/// Data movement happens eagerly when an op is posted (the simulated NIC's
/// DMA is instantaneous in-process), so reads return their value
/// immediately; only the *latency* is deferred and charged once when the
/// doorbell rings: at [`flush`](Self::flush), or wherever the batch is
/// dropped. Post ops under whatever locks you like, but ring the doorbell —
/// the single charge point — with no tracked lock held.
#[derive(Debug)]
pub struct FabricBatch<'a> {
    fabric: &'a Fabric,
    /// Max base cost over the remote ops posted so far (ops complete
    /// concurrently on the wire; the batch is as slow as its slowest op).
    max_base_ns: u64,
    /// Summed payload over the remote ops (bytes serialize on the link).
    remote_bytes: usize,
    any_remote: bool,
    /// Ops posted so far.
    ops: u64,
    /// From [`Fabric::batch`]: every op counts as batched, however few.
    explicit: bool,
}

impl<'a> FabricBatch<'a> {
    fn new(fabric: &'a Fabric, explicit: bool) -> Self {
        FabricBatch {
            fabric,
            max_base_ns: 0,
            remote_bytes: 0,
            any_remote: false,
            ops: 0,
            explicit,
        }
    }

    /// Post one op: meter it, and fold a remote op's cost into the charge.
    fn post(&mut self, kind: OpKind, bytes: usize, locality: Locality) {
        let (cfg, stats) = (&self.fabric.cfg, &self.fabric.stats);
        let base_ns = match kind {
            OpKind::Read => {
                stats.reads.inc();
                stats.bytes_read.add(bytes as u64);
                cfg.one_sided_read_ns
            }
            OpKind::Write => {
                stats.writes.inc();
                stats.bytes_written.add(bytes as u64);
                cfg.one_sided_write_ns
            }
            OpKind::Atomic => {
                stats.atomics.inc();
                cfg.atomic_ns
            }
            OpKind::Rpc => {
                stats.rpcs.inc();
                cfg.rpc_ns
            }
            OpKind::OneWay => {
                stats.rpcs.inc();
                cfg.rpc_ns / 2
            }
        };
        self.ops += 1;
        if locality == Locality::Remote {
            self.any_remote = true;
            self.max_base_ns = self.max_base_ns.max(base_ns);
            self.remote_bytes += bytes;
        }
    }

    /// One-sided READ of a registered word.
    pub fn read_u64(&mut self, cell: &AtomicU64, locality: Locality) -> u64 {
        self.post(OpKind::Read, 8, locality);
        cell.load(Ordering::Acquire)
    }

    /// One-sided WRITE of a registered word.
    pub fn write_u64(&mut self, cell: &AtomicU64, value: u64, locality: Locality) {
        self.post(OpKind::Write, 8, locality);
        cell.store(value, Ordering::Release);
    }

    /// One-sided compare-and-swap.
    pub fn cas_u64(
        &mut self,
        cell: &AtomicU64,
        expected: u64,
        new: u64,
        locality: Locality,
    ) -> Result<u64, u64> {
        self.post(OpKind::Atomic, 8, locality);
        cell.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// One-sided fetch-and-add (the TSO verb).
    pub fn fetch_add_u64(&mut self, cell: &AtomicU64, delta: u64, locality: Locality) -> u64 {
        self.post(OpKind::Atomic, 8, locality);
        cell.fetch_add(delta, Ordering::AcqRel)
    }

    /// Unconditional atomic exchange (a masked FAA on real hardware). Used
    /// by the commit-time TIT refs take.
    pub fn swap_u64(&mut self, cell: &AtomicU64, value: u64, locality: Locality) -> u64 {
        self.post(OpKind::Atomic, 8, locality);
        cell.swap(value, Ordering::AcqRel)
    }

    /// One-sided WRITE of a registered flag (buffer-fusion invalidation
    /// writes a peer's `valid` flag to false, §4.2).
    pub fn write_flag(&mut self, flag: &AtomicBool, value: bool, locality: Locality) {
        self.post(OpKind::Write, 1, locality);
        flag.store(value, Ordering::Release);
    }

    /// Bulk READ charge of `bytes`.
    pub fn bulk_read(&mut self, bytes: usize, locality: Locality) {
        self.post(OpKind::Read, bytes, locality);
    }

    /// Bulk WRITE charge of `bytes`.
    pub fn bulk_write(&mut self, bytes: usize, locality: Locality) {
        self.post(OpKind::Write, bytes, locality);
    }

    /// One-way fusion→node message (half an RPC round trip), used for
    /// negotiation nudges whose reply is implicit. Always remote.
    pub fn one_way_message(&mut self, bytes: usize) {
        self.post(OpKind::OneWay, bytes, Locality::Remote);
    }

    /// A full RPC round trip of `bytes` request payload. Always remote.
    pub fn rpc_message(&mut self, bytes: usize) {
        self.post(OpKind::Rpc, bytes, Locality::Remote);
    }

    /// Nanoseconds the doorbell will charge for what has been posted so
    /// far: max base cost + summed per-byte cost over the remote ops, 0 for
    /// a local-only or empty batch.
    pub fn charge_ns(&self) -> u64 {
        self.fabric
            .cfg
            .charge_ns(self.max_base_ns, self.remote_bytes)
    }

    /// Ring the doorbell now (dropping the batch does the same).
    pub fn flush(self) {}
}

impl Drop for FabricBatch<'_> {
    fn drop(&mut self) {
        if self.explicit || self.ops > 1 {
            self.fabric.stats.batched_ops.add(self.ops);
        }
        if self.any_remote {
            precise_wait_ns(self.charge_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;
    use std::time::Instant;

    fn free_fabric() -> Fabric {
        Fabric::new(LatencyConfig::disabled())
    }

    #[test]
    fn verbs_roundtrip_values() {
        let f = free_fabric();
        let cell = AtomicU64::new(7);
        assert_eq!(f.read_u64(&cell, Locality::Remote), 7);
        f.write_u64(&cell, 9, Locality::Remote);
        assert_eq!(f.read_u64(&cell, Locality::Local), 9);
        let flag = AtomicBool::new(true);
        let mut b = f.batch();
        assert_eq!(b.fetch_add_u64(&cell, 3, Locality::Remote), 9);
        assert_eq!(b.cas_u64(&cell, 12, 20, Locality::Remote), Ok(12));
        assert_eq!(b.cas_u64(&cell, 12, 30, Locality::Remote), Err(20));
        assert_eq!(b.swap_u64(&cell, 0, Locality::Remote), 20);
        b.write_flag(&flag, false, Locality::Remote);
        b.flush();
        assert_eq!(f.stats().atomics.get(), 4);
        assert_eq!(cell.load(Ordering::Relaxed), 0);
        assert!(!flag.load(Ordering::Relaxed));
    }

    #[test]
    fn stats_are_metered_even_when_latency_disabled() {
        let f = free_fabric();
        let cell = AtomicU64::new(0);
        f.read_u64(&cell, Locality::Remote);
        f.read_u64(&cell, Locality::Local);
        f.write_u64(&cell, 1, Locality::Remote);
        f.verb().fetch_add_u64(&cell, 1, Locality::Remote);
        f.bulk_read(16 * 1024, Locality::Remote);
        let r = f.rpc(64, || 42);
        assert_eq!(r, 42);
        assert_eq!(f.stats().reads.get(), 3); // two u64 reads + one bulk
        assert_eq!(f.stats().writes.get(), 1);
        assert_eq!(f.stats().atomics.get(), 1);
        assert_eq!(f.stats().rpcs.get(), 1);
        assert_eq!(f.stats().bytes_read.get(), 8 + 8 + 16 * 1024);
    }

    #[test]
    fn local_access_is_free_remote_pays() {
        let cfg = LatencyConfig {
            one_sided_read_ns: 50_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let cell = AtomicU64::new(0);

        let mut local = f.verb();
        local.read_u64(&cell, Locality::Local);
        assert_eq!(local.charge_ns(), 0, "local reads must not be charged");
        let mut remote = f.verb();
        remote.read_u64(&cell, Locality::Remote);
        assert_eq!(remote.charge_ns(), cfg.charge_ns(50_000, 8));

        let t = Instant::now();
        f.read_u64(&cell, Locality::Remote);
        assert!(
            t.elapsed().as_nanos() >= 50_000,
            "remote read must pay latency"
        );
    }

    #[test]
    fn statement_charge_respects_config() {
        // Disabled → free.
        let f = free_fabric();
        assert_eq!(f.config().charge_ns(f.config().sql_stmt_ns, 0), 0);
        f.charge_statement();

        // Enabled → pays the configured statement cost.
        let cfg = LatencyConfig {
            sql_stmt_ns: 200_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let t = Instant::now();
        f.charge_statement();
        assert!(t.elapsed().as_nanos() >= 200_000);
    }

    #[test]
    fn one_way_message_is_half_an_rpc_and_metered() {
        let cfg = LatencyConfig {
            rpc_ns: 400_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let mut b = f.batch();
        b.one_way_message(32);
        assert_eq!(b.charge_ns(), cfg.charge_ns(200_000, 32), "one-way = rpc/2");
        let t = Instant::now();
        b.flush();
        assert!(t.elapsed().as_nanos() >= 200_000);
        assert_eq!(f.stats().rpcs.get(), 1, "one-way messages count as RPCs");
    }

    #[test]
    fn batch_meters_per_op_but_charges_once() {
        // 4 remote writes of 8B: sequential cost would be 4 × 100µs; the
        // doorbell batch pays max-base + summed-bytes once (~100µs).
        let cfg = LatencyConfig {
            one_sided_write_ns: 100_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let cells: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let mut b = f.batch();
        for (i, c) in cells.iter().enumerate() {
            b.write_u64(c, i as u64 + 1, Locality::Remote);
        }
        assert_eq!(
            b.charge_ns(),
            cfg.charge_ns(100_000, 32),
            "batch must not pay per-op"
        );
        let t = Instant::now();
        b.flush();
        assert!(
            t.elapsed().as_nanos() >= 100_000,
            "batch must pay one op cost"
        );
        // Data landed and every op was metered individually.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), i as u64 + 1);
        }
        assert_eq!(f.stats().writes.get(), 4);
        assert_eq!(f.stats().bytes_written.get(), 32);
        assert_eq!(f.stats().batched_ops.get(), 4);
    }

    #[test]
    fn only_coalesced_ops_count_as_batched() {
        let cell = AtomicU64::new(1);
        // Single verbs are a batch of one, which is not batched traffic…
        let single = free_fabric();
        single.read_u64(&cell, Locality::Remote);
        single.write_u64(&cell, 2, Locality::Remote);
        single.bulk_read(4096, Locality::Remote);
        single.bulk_write(4096, Locality::Remote);
        single.rpc(32, || ());
        assert_eq!(single.stats().batched_ops.get(), 0);
        // …unless the verb fanned out (a replicated write's backups).
        let mut fan = single.verb();
        fan.write_u64(&cell, 3, Locality::Remote);
        fan.write_u64(&cell, 3, Locality::Remote);
        fan.flush();
        assert_eq!(single.stats().batched_ops.get(), 2);

        // An explicit batch counts every op it posts, even a lone one.
        let batched = free_fabric();
        let mut b = batched.batch();
        b.read_u64(&cell, Locality::Remote);
        b.write_u64(&cell, 2, Locality::Remote);
        b.fetch_add_u64(&cell, 1, Locality::Remote);
        b.write_flag(&AtomicBool::new(true), false, Locality::Remote);
        b.bulk_read(4096, Locality::Remote);
        b.one_way_message(32);
        b.flush();
        assert_eq!(batched.stats().batched_ops.get(), 6);
        batched.batch().rpc_message(32);
        assert_eq!(batched.stats().batched_ops.get(), 7);
    }

    #[test]
    fn local_only_batch_is_free() {
        let cfg = LatencyConfig {
            one_sided_write_ns: 200_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let cell = AtomicU64::new(0);
        let mut b = f.batch();
        for _ in 0..8 {
            b.write_u64(&cell, 7, Locality::Local);
        }
        assert_eq!(b.charge_ns(), 0, "local ops are free");
        b.flush();
        assert_eq!(f.stats().writes.get(), 8, "…but still metered");
        assert_eq!(f.stats().batched_ops.get(), 8);
        // An empty batch is also free.
        assert_eq!(f.batch().charge_ns(), 0);
    }

    #[test]
    fn dropped_batch_still_charges() {
        let cfg = LatencyConfig {
            one_sided_write_ns: 100_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let cell = AtomicU64::new(0);
        let t = Instant::now();
        {
            let mut b = f.batch();
            b.write_u64(&cell, 1, Locality::Remote);
            // dropped without an explicit flush
        }
        assert!(t.elapsed().as_nanos() >= 100_000);
    }

    #[test]
    fn rpc_charge_precedes_handler() {
        let cfg = LatencyConfig {
            rpc_ns: 30_000,
            ..LatencyConfig::realistic()
        };
        let f = Fabric::new(cfg);
        let t = Instant::now();
        let elapsed_at_handler = f.rpc(0, || t.elapsed());
        assert!(elapsed_at_handler.as_nanos() >= 30_000);
    }
}
