//! Typed cluster statistics.
//!
//! [`StatsSnapshot`] is a point-in-time copy of every meter the cluster
//! exposes — per-node engine/io/commit-stage/scheduler/read-path sections
//! plus the shared PMFS / storage / fabric services — as plain numbers a
//! harness can assert on or serialize. The `Display` impl renders the
//! one-screen operational report that `Cluster::stats_report` used to
//! assemble by hand (same lines, same `key=value` spellings), so log
//! scrapers and existing tests keep working.

use std::fmt;

/// Point-in-time snapshot of all cluster meters. Cheap to take: every
/// source is an atomic counter/gauge or a histogram summary.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    pub nodes: Vec<NodeSection>,
    pub buffer_fusion: BufferFusionSection,
    pub lock_fusion: LockFusionSection,
    pub row_waits: RowWaitsSection,
    pub storage: StorageSection,
    pub fabric: FabricSection,
    pub repl: ReplSection,
}

/// One primary node's meters.
#[derive(Debug, Clone, Default)]
pub struct NodeSection {
    pub index: usize,
    pub alive: bool,
    pub commits: u64,
    pub rollbacks: u64,
    pub deadlocks: u64,
    pub reads: u64,
    pub writes: u64,
    pub lock_waits: u64,
    /// Transactions open right now (begin → finish) and the high-water
    /// mark — the node's demonstrated open-transaction ceiling.
    pub open_txns: u64,
    pub open_txns_hwm: u64,
    pub io: IoSection,
    pub commit_stages: CommitStagesSection,
    pub wal_group: WalGroupSection,
    pub wal_bytes: WalBytesSection,
    /// First LSN the node's redo stream still holds (moved by storage
    /// checkpoints) and what it keeps in memory above it: end − start, and
    /// the part of that which is dead reservation padding.
    pub redo_start_lsn: u64,
    pub redo_retained_bytes: u64,
    pub redo_dead_bytes: u64,
    /// Highest LSN a storage checkpoint has covered; above
    /// `redo_start_lsn` only while a hold (a standby) pins the log.
    pub storage_checkpoint_lsn: u64,
    pub redo_live_holds: u64,
    pub read_path: ReadPathSection,
    pub scheduler: SchedulerSection,
}

/// An async storage ring: a node's, or the DBP's write-back ring.
#[derive(Debug, Clone, Default)]
pub struct IoSection {
    pub submitted: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub coalesced: u64,
    pub inflight: u64,
    pub inflight_hwm: u64,
    /// Condvar notifies submitters issued to wake a parked worker.
    pub worker_wakes: u64,
    /// Speculative loads submitted (always 0 on the write-back ring).
    pub prefetches: u64,
}

/// Per-stage commit latency summaries, in microseconds. Stages that park
/// on the scheduler are not charged here (their wait elapses off-thread).
#[derive(Debug, Clone, Default)]
pub struct CommitStagesSection {
    pub cts_mean_us: u64,
    pub cts_p99_us: u64,
    pub wal_force_mean_us: u64,
    pub wal_force_p99_us: u64,
    pub tit_mean_us: u64,
    pub tit_p99_us: u64,
    pub backfill_mean_us: u64,
    pub backfill_p99_us: u64,
}

/// WAL group-commit batching.
#[derive(Debug, Clone, Default)]
pub struct WalGroupSection {
    pub batches: u64,
    pub riders: u64,
    pub windows_waited: u64,
    pub empty_windows: u64,
}

/// Version-store read path.
#[derive(Debug, Clone, Default)]
pub struct ReadPathSection {
    pub version_hits: u64,
    pub version_misses: u64,
    pub publishes: u64,
    pub fills: u64,
    pub evictions: u64,
    /// Versions dropped by the min-active-snapshot GC pass.
    pub gc_evictions: u64,
    pub invalidations: u64,
    pub resident_bytes: u64,
}

/// The parkable transaction scheduler.
#[derive(Debug, Clone, Default)]
pub struct SchedulerSection {
    pub parks: u64,
    pub wakes: u64,
    pub inline_runs: u64,
    pub timer_fires: u64,
    /// Always 0: the scheduler has no helper pool since PR 23. Kept because
    /// the benchmark's layer table reads it by name.
    pub blocking_jobs: u64,
    /// Live actor tasks and their high-water mark.
    pub tasks: u64,
    pub tasks_hwm: u64,
}

/// Buffer Fusion (the DBP).
#[derive(Debug, Clone, Default)]
pub struct BufferFusionSection {
    pub hits: u64,
    pub misses: u64,
    pub fetches: u64,
    pub pushes: u64,
    pub invalidations: u64,
    pub evictions: u64,
    /// Evictions whose image storage already held: no write-back.
    pub clean_evictions: u64,
    /// Write-backs queued on the write-back ring.
    pub writebacks_submitted: u64,
    /// Write-backs the evicting thread ran itself (queue full).
    pub writebacks_helped: u64,
    /// Most write-backs ever queued at once.
    pub writebacks_queued_hwm: u64,
    /// Write-backs storage checkpoints ran (their entries stayed).
    pub checkpoint_writebacks: u64,
    /// Write-backs that did not land (store refused, sink shut down).
    pub writebacks_failed: u64,
    /// Entries whose image shared storage is not known to hold.
    pub dbp_dirty_entries: u64,
    /// Times the DBP lost its contents; a node's scan-start checkpoint is
    /// trusted only under the epoch it was recorded in.
    pub dbp_loss_epoch: u64,
    /// The PMFS-side ring the queued write-backs go through.
    pub writeback_io: IoSection,
}

/// Lock Fusion (PLocks).
#[derive(Debug, Clone, Default)]
pub struct LockFusionSection {
    pub acquires: u64,
    pub immediate: u64,
    pub queued: u64,
    pub negotiations: u64,
    pub releases: u64,
    pub timeouts: u64,
}

/// Row-lock wait registry.
#[derive(Debug, Clone, Default)]
pub struct RowWaitsSection {
    pub registered: u64,
    pub commit_notifications: u64,
    pub wakeups: u64,
    pub deadlocks: u64,
}

/// Shared page store.
#[derive(Debug, Clone, Default)]
pub struct StorageSection {
    pub page_reads: u64,
    pub page_writes: u64,
    /// Raw (pre-codec) bytes of page images written.
    pub page_logical_bytes: u64,
    /// Post-codec page bytes that actually landed on storage.
    pub page_physical_bytes: u64,
    /// Page writes absorbed by a slot's uncompressed delta region.
    pub delta_writes: u64,
    /// Delta-region overflows that forced a full page recompress.
    pub recompressions: u64,
    /// Raw redo bytes appended across every node's stream.
    pub log_logical_bytes: u64,
    /// Post-codec redo bytes on storage (== logical when compression is off).
    pub log_physical_bytes: u64,
    /// Total simulated storage time charged cluster-wide (ns): page-store
    /// charges, io-ring batch charges and direct stream charges.
    pub charged_io_ns: u64,
}

impl StorageSection {
    /// logical ÷ physical; 1.0 while nothing codec-aware was written.
    pub fn page_ratio(&self) -> f64 {
        ratio(self.page_logical_bytes, self.page_physical_bytes)
    }

    pub fn log_ratio(&self) -> f64 {
        ratio(self.log_logical_bytes, self.log_physical_bytes)
    }

    /// Effective storage bandwidth in MB/s: logical bytes moved per
    /// second of charged storage time. Scale-invariant the same way the
    /// latency model is — compression raises it without touching the
    /// device profile.
    pub fn effective_mb_per_s(&self) -> f64 {
        let logical = (self.page_logical_bytes + self.log_logical_bytes) as f64;
        if self.charged_io_ns == 0 {
            return 0.0;
        }
        logical * 1000.0 / self.charged_io_ns as f64
    }
}

fn ratio(logical: u64, physical: u64) -> f64 {
    if physical == 0 {
        1.0
    } else {
        logical as f64 / physical as f64
    }
}

/// One node's WAL bytes-on-storage meters.
#[derive(Debug, Clone, Default)]
pub struct WalBytesSection {
    /// Raw record bytes appended (pre-framing, pre-codec).
    pub logical_bytes: u64,
    /// Bytes actually filled into the stream (frame bytes when framed).
    pub physical_bytes: u64,
    /// Physical bytes made durable by syncs so far.
    pub synced_bytes: u64,
}

impl WalBytesSection {
    pub fn ratio(&self) -> f64 {
        ratio(self.logical_bytes, self.physical_bytes)
    }
}

/// Simulated RDMA fabric.
#[derive(Debug, Clone, Default)]
pub struct FabricSection {
    pub reads: u64,
    pub writes: u64,
    pub atomics: u64,
    pub rpcs: u64,
    pub batched_ops: u64,
}

/// PMFS replication layer (DESIGN.md §15).
#[derive(Debug, Clone, Default)]
pub struct ReplSection {
    /// Configured replica count and how many are currently up.
    pub replicas: u64,
    pub alive: u64,
    /// Mutations fanned to backups (0 when `replicas = 1`).
    pub replicated_writes: u64,
    /// Reads served from one replica (the fast path).
    pub single_replica_reads: u64,
    /// Reads that sampled a quorum of replicas.
    pub majority_reads: u64,
    /// Majority reads that saw divergent replicas and resolved by tag.
    pub conflicts_resolved: u64,
    /// Replicas marked down after a crash.
    pub evictions: u64,
    /// Replicas re-seated from survivors.
    pub recoveries: u64,
    /// Re-seats initiated by the background suspicion monitor.
    pub auto_reseats: u64,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes: {}", self.nodes.len())?;
        for n in &self.nodes {
            let i = n.index;
            writeln!(
                f,
                "  node {i}: alive={} commits={} rollbacks={} deadlocks={} reads={} writes={} lock_waits={} open_txns={} open_txns_hwm={}",
                n.alive, n.commits, n.rollbacks, n.deadlocks, n.reads, n.writes,
                n.lock_waits, n.open_txns, n.open_txns_hwm,
            )?;
            let io = &n.io;
            writeln!(
                f,
                "  node {i} io: submitted={} completed={} cancelled={} coalesced={} inflight={} inflight_hwm={} worker_wakes={} prefetches={}",
                io.submitted, io.completed, io.cancelled, io.coalesced,
                io.inflight, io.inflight_hwm, io.worker_wakes, io.prefetches,
            )?;
            let c = &n.commit_stages;
            writeln!(
                f,
                "  node {i} commit stages (mean/p99 us): cts={}/{} wal_force={}/{} tit={}/{} backfill={}/{}",
                c.cts_mean_us, c.cts_p99_us, c.wal_force_mean_us, c.wal_force_p99_us,
                c.tit_mean_us, c.tit_p99_us, c.backfill_mean_us, c.backfill_p99_us,
            )?;
            let g = &n.wal_group;
            writeln!(
                f,
                "  node {i} wal group: batches={} riders={} windows_waited={} empty_windows={}",
                g.batches, g.riders, g.windows_waited, g.empty_windows,
            )?;
            let w = &n.wal_bytes;
            writeln!(
                f,
                "  node {i} wal bytes: logical={} physical={} ratio={:.2} synced={}",
                w.logical_bytes,
                w.physical_bytes,
                w.ratio(),
                w.synced_bytes,
            )?;
            writeln!(
                f,
                "  node {i} redo: start_lsn={} retained_bytes={} dead_bytes={} storage_checkpoint_lsn={} live_holds={}",
                n.redo_start_lsn, n.redo_retained_bytes, n.redo_dead_bytes,
                n.storage_checkpoint_lsn, n.redo_live_holds,
            )?;
            let v = &n.read_path;
            writeln!(
                f,
                "  node {i} read-path: version_hits={} version_misses={} publishes={} fills={} evictions={} gc_evictions={} invalidations={} resident_bytes={}",
                v.version_hits, v.version_misses, v.publishes, v.fills,
                v.evictions, v.gc_evictions, v.invalidations, v.resident_bytes,
            )?;
            let s = &n.scheduler;
            writeln!(
                f,
                "  node {i} sched: parks={} wakes={} inline_runs={} timer_fires={} blocking_jobs={} tasks={} tasks_hwm={}",
                s.parks, s.wakes, s.inline_runs, s.timer_fires, s.blocking_jobs,
                s.tasks, s.tasks_hwm,
            )?;
        }
        let b = &self.buffer_fusion;
        writeln!(
            f,
            "buffer fusion: hits={} misses={} fetches={} pushes={} invalidations={} evictions={} dirty_entries={} loss_epoch={}",
            b.hits, b.misses, b.fetches, b.pushes, b.invalidations, b.evictions,
            b.dbp_dirty_entries, b.dbp_loss_epoch,
        )?;
        let w = &b.writeback_io;
        writeln!(
            f,
            "buffer fusion write-back: clean_evictions={} submitted={} helped={} queued_hwm={} checkpoint={} failed={} | ring: submitted={} completed={} cancelled={} inflight={} inflight_hwm={} worker_wakes={}",
            b.clean_evictions, b.writebacks_submitted, b.writebacks_helped,
            b.writebacks_queued_hwm, b.checkpoint_writebacks, b.writebacks_failed,
            w.submitted, w.completed, w.cancelled, w.inflight, w.inflight_hwm,
            w.worker_wakes,
        )?;
        let p = &self.lock_fusion;
        writeln!(
            f,
            "lock fusion: acquires={} immediate={} queued={} negotiations={} releases={} timeouts={}",
            p.acquires, p.immediate, p.queued, p.negotiations, p.releases, p.timeouts,
        )?;
        let r = &self.row_waits;
        writeln!(
            f,
            "row waits: registered={} commit_notifications={} wakeups={} deadlocks={}",
            r.registered, r.commit_notifications, r.wakeups, r.deadlocks,
        )?;
        let st = &self.storage;
        let fb = &self.fabric;
        writeln!(
            f,
            "storage: page_reads={} page_writes={} | fabric: reads={} writes={} atomics={} rpcs={} batched_ops={}",
            st.page_reads, st.page_writes,
            fb.reads, fb.writes, fb.atomics, fb.rpcs, fb.batched_ops,
        )?;
        writeln!(
            f,
            "storage bytes: page_logical={} page_physical={} page_ratio={:.2} log_logical={} log_physical={} log_ratio={:.2} delta_writes={} recompressions={}",
            st.page_logical_bytes, st.page_physical_bytes, st.page_ratio(),
            st.log_logical_bytes, st.log_physical_bytes, st.log_ratio(),
            st.delta_writes, st.recompressions,
        )?;
        writeln!(
            f,
            "storage bandwidth: charged_io_ms={} effective_mb_per_s={:.1}",
            st.charged_io_ns / 1_000_000,
            st.effective_mb_per_s(),
        )?;
        let rp = &self.repl;
        writeln!(
            f,
            "repl: replicas={} alive={} replicated_writes={} single_replica_reads={} majority_reads={} conflicts_resolved={} evictions={} recoveries={} auto_reseats={}",
            rp.replicas, rp.alive, rp.replicated_writes, rp.single_replica_reads,
            rp.majority_reads, rp.conflicts_resolved, rp.evictions, rp.recoveries,
            rp.auto_reseats,
        )?;
        Ok(())
    }
}
