//! The multi-primary cluster.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pmp_common::sync::{LockClass, Shutdown, TrackedMutex};
use pmp_common::{ClusterConfig, NodeId, PmpError, Result, TableId};
use pmp_engine::recovery::{recover_node, RecoveryStats};
use pmp_engine::shared::Shared;
use pmp_engine::{AsyncSession, IoStats, NodeEngine};

use crate::session::Session;
use crate::stats::{
    BufferFusionSection, CommitStagesSection, FabricSection, IoSection, LockFusionSection,
    NodeSection, ReadPathSection, ReplSection, RowWaitsSection, SchedulerSection, StatsSnapshot,
    StorageSection, WalBytesSection, WalGroupSection,
};

/// Cluster node roster (admin paths: scale-out/in, stats, recovery).
const CLUSTER_NODES: LockClass = LockClass::new("core.cluster.nodes");
/// Background thread handles (deadlock detector, replica re-seat
/// monitor), taken once at shutdown.
const CLUSTER_DETECTOR: LockClass = LockClass::new("core.cluster.detector");

/// Interval of the Lock Fusion deadlock detector (§4.3.2).
const DEADLOCK_INTERVAL: Duration = Duration::from_millis(5);

/// Builder for [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    config: ClusterConfig,
}

impl ClusterBuilder {
    pub fn new() -> Self {
        ClusterBuilder {
            config: ClusterConfig::test(1),
        }
    }

    /// Number of primary nodes at startup.
    pub fn nodes(mut self, n: usize) -> Self {
        self.config.nodes = n;
        self
    }

    /// Use a full configuration (latency profile, engine knobs, …).
    pub fn config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    pub fn build(self) -> Arc<Cluster> {
        Cluster::start(self.config)
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A PolarDB-MP cluster: N primary nodes over one PMFS + shared storage.
pub struct Cluster {
    shared: Arc<Shared>,
    nodes: TrackedMutex<Vec<Arc<NodeEngine>>>,
    stop: Arc<Shutdown>,
    background: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.lock().len())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Start a cluster with `config.nodes` primaries and the Lock Fusion
    /// deadlock detector running (§4.3.2).
    pub fn start(config: ClusterConfig) -> Arc<Cluster> {
        let shared = Shared::new(config);
        let nodes = (0..config.nodes.max(1))
            .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i as u16)))
            .collect();

        let stop = Arc::new(Shutdown::new());
        let mut background = Vec::new();
        background.push({
            let rlock = Arc::clone(&shared.pmfs.rlock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.is_triggered() {
                    rlock.detect_once();
                    if stop.sleep_until_triggered(DEADLOCK_INTERVAL) {
                        break;
                    }
                }
            })
        });
        // PMFS replica re-seat monitor (DESIGN.md §15): a replica that
        // stays Down across one full suspicion window is re-provisioned
        // from the survivors via the same resync path operators use.
        // Disabled at `repl_suspicion_ms = 0` (the default) and trivially
        // at R=1, where there is nothing to re-seat from.
        if config.repl_suspicion_ms > 0 && config.replicas > 1 {
            let repl = Arc::clone(&shared.repl);
            let stop = Arc::clone(&stop);
            let window = Duration::from_millis(config.repl_suspicion_ms);
            background.push(std::thread::spawn(move || {
                // Two-strike suspicion: re-seat only a replica seen Down on
                // two consecutive polls, so a crash-then-prompt-operator-fix
                // blip never races the monitor into a redundant resync.
                let mut suspect = vec![false; repl.replicas()];
                while !stop.is_triggered() {
                    if stop.sleep_until_triggered(window) {
                        break;
                    }
                    let down = repl.down_replicas();
                    for (i, s) in suspect.iter_mut().enumerate() {
                        let is_down = down.contains(&i);
                        if is_down && *s {
                            repl.auto_reseat_replica(i);
                            *s = false;
                        } else {
                            *s = is_down;
                        }
                    }
                }
            }));
        }

        Arc::new(Cluster {
            shared,
            nodes: TrackedMutex::new(CLUSTER_NODES, nodes),
            stop,
            background: TrackedMutex::new(CLUSTER_DETECTOR, background),
        })
    }

    /// Cluster-shared services (PMFS, storage, fabric, catalog) — exposed
    /// for benchmarks, diagnostics and failure injection.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    pub fn node_count(&self) -> usize {
        self.nodes.lock().len()
    }

    /// The engine of node `i` (panics on out-of-range; see
    /// [`try_node`](Self::try_node)).
    pub fn node(&self, i: usize) -> Arc<NodeEngine> {
        Arc::clone(&self.nodes.lock()[i])
    }

    pub fn try_node(&self, i: usize) -> Option<Arc<NodeEngine>> {
        self.nodes.lock().get(i).map(Arc::clone)
    }

    /// Open a session bound to node `i` (sessions are cheap; a workload
    /// thread typically holds one).
    pub fn session(&self, i: usize) -> Session {
        Session::new(self.node(i))
    }

    /// Open an async session bound to node `i`: each call spawns one actor
    /// task on the node's transaction scheduler, and every operation returns
    /// a [`pmp_engine::DbFuture`]. Hundreds of async sessions share the
    /// node's small worker pool — parked transactions hold no thread.
    pub fn async_session(&self, i: usize) -> AsyncSession {
        AsyncSession::open(&self.node(i))
    }

    /// Online scale-out (Fig 10): start one more primary node against the
    /// same PMFS + storage. Returns its index.
    pub fn add_node(&self) -> usize {
        let mut nodes = self.nodes.lock();
        let id = NodeId(nodes.len() as u16);
        nodes.push(NodeEngine::start(Arc::clone(&self.shared), id));
        nodes.len() - 1
    }

    /// Create a primary table with `columns` u64 columns and one GSI per
    /// entry of `gsi_columns`.
    pub fn create_table(
        &self,
        name: &str,
        columns: usize,
        gsi_columns: &[usize],
    ) -> Result<TableId> {
        Ok(self.shared.create_table(name, columns, gsi_columns)?.id)
    }

    /// Gracefully remove node `i` from the cluster (scale-in): drains its
    /// transactions, flushes its state, releases all its fusion resources.
    /// The node slot stays in the roster (dead) so indices stay stable.
    pub fn remove_node(&self, i: usize, drain: std::time::Duration) -> Result<()> {
        self.node(i).decommission(drain)
    }

    /// Typed point-in-time snapshot of every cluster meter: per-node
    /// engine/io/commit-stage/scheduler/read-path sections plus the shared
    /// PMFS / storage / fabric services. Harnesses assert on the fields;
    /// `to_string()` renders the one-screen operational report.
    pub fn stats(&self) -> StatsSnapshot {
        let sh = &self.shared;
        let nodes = self
            .nodes
            .lock()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let s = &node.stats;
                let g = node.wal.group_stats();
                let v = &node.version_store.stats;
                let sc = node.sched.stats();
                let redo = node.wal.stream().retention();
                NodeSection {
                    index: i,
                    alive: node.is_alive(),
                    commits: s.commits.get(),
                    rollbacks: s.rollbacks.get(),
                    deadlocks: s.deadlock_aborts.get(),
                    reads: s.reads.get(),
                    writes: s.writes.get(),
                    lock_waits: s.lock_waits.get(),
                    open_txns: s.open_txns.get(),
                    open_txns_hwm: s.open_txns.hwm(),
                    io: io_section(node.io.stats(), s.prefetch_submitted.get()),
                    commit_stages: CommitStagesSection {
                        cts_mean_us: s.commit_cts_ns.mean_ns() / 1000,
                        cts_p99_us: s.commit_cts_ns.p99_ns() / 1000,
                        wal_force_mean_us: s.commit_wal_force_ns.mean_ns() / 1000,
                        wal_force_p99_us: s.commit_wal_force_ns.p99_ns() / 1000,
                        tit_mean_us: s.commit_tit_ns.mean_ns() / 1000,
                        tit_p99_us: s.commit_tit_ns.p99_ns() / 1000,
                        backfill_mean_us: s.commit_backfill_ns.mean_ns() / 1000,
                        backfill_p99_us: s.commit_backfill_ns.p99_ns() / 1000,
                    },
                    wal_group: WalGroupSection {
                        batches: g.batches.get(),
                        riders: g.riders.get(),
                        windows_waited: g.windows_waited.get(),
                        empty_windows: g.empty_windows.get(),
                    },
                    wal_bytes: {
                        let stream = node.wal.stream();
                        WalBytesSection {
                            logical_bytes: stream.logical_byte_count(),
                            physical_bytes: stream.physical_byte_count(),
                            synced_bytes: stream.synced_byte_count(),
                        }
                    },
                    redo_start_lsn: redo.start.0,
                    redo_retained_bytes: redo.retained_bytes,
                    redo_dead_bytes: redo.dead_bytes,
                    storage_checkpoint_lsn: redo.storage_checkpoint.0,
                    redo_live_holds: redo.live_holds as u64,
                    read_path: ReadPathSection {
                        version_hits: v.hits.get(),
                        version_misses: v.misses.get(),
                        publishes: v.publishes.get(),
                        fills: v.fills.get(),
                        evictions: v.evictions.get(),
                        gc_evictions: v.gc_evictions.get(),
                        invalidations: v.invalidations.get(),
                        resident_bytes: node.version_store.bytes() as u64,
                    },
                    scheduler: SchedulerSection {
                        parks: sc.parks.get(),
                        wakes: sc.wakes.get(),
                        inline_runs: sc.inline_runs.get(),
                        timer_fires: sc.timer_fires.get(),
                        blocking_jobs: 0,
                        tasks: sc.tasks.get(),
                        tasks_hwm: sc.tasks.hwm(),
                    },
                }
            })
            .collect();
        let b = sh.pmfs.buffer.stats();
        let p = sh.pmfs.plock.stats();
        let r = sh.pmfs.rlock.stats();
        let st = sh.storage.page_store().stats();
        let f = sh.fabric.stats();
        StatsSnapshot {
            nodes,
            buffer_fusion: BufferFusionSection {
                hits: b.hits.get(),
                misses: b.misses.get(),
                fetches: b.fetches.get(),
                pushes: b.pushes.get(),
                invalidations: b.invalidations.get(),
                evictions: b.evictions.get(),
                clean_evictions: b.clean_evictions.get(),
                writebacks_submitted: b.writebacks_submitted.get(),
                writebacks_helped: b.writebacks_helped.get(),
                writebacks_queued_hwm: b.writebacks_queued.hwm(),
                checkpoint_writebacks: b.checkpoint_writebacks.get(),
                writebacks_failed: b.writebacks_failed.get(),
                dbp_dirty_entries: sh.pmfs.buffer.dirty_count() as u64,
                dbp_loss_epoch: sh.pmfs.buffer.loss_epoch(),
                writeback_io: sh
                    .writeback
                    .io_stats()
                    .map(|io| io_section(io, 0))
                    .unwrap_or_default(),
            },
            lock_fusion: LockFusionSection {
                acquires: p.acquires.get(),
                immediate: p.immediate_grants.get(),
                queued: p.queued_grants.get(),
                negotiations: p.negotiations.get(),
                releases: p.releases.get(),
                timeouts: p.timeouts.get(),
            },
            row_waits: RowWaitsSection {
                registered: r.waits_registered.get(),
                commit_notifications: r.commit_notifications.get(),
                wakeups: r.wakeups.get(),
                deadlocks: r.deadlocks.get(),
            },
            storage: {
                let log = sh.storage.log_totals();
                StorageSection {
                    page_reads: st.page_reads.get(),
                    page_writes: st.page_writes.get(),
                    page_logical_bytes: st.page_logical_bytes.get(),
                    page_physical_bytes: st.page_physical_bytes.get(),
                    delta_writes: st.delta_writes.get(),
                    recompressions: st.recompressions.get(),
                    log_logical_bytes: log.logical_bytes,
                    log_physical_bytes: log.physical_bytes,
                    // Page-store charges (direct + ring batches) plus every
                    // stream's direct read/sync charges.
                    charged_io_ns: st.charged_io_ns.get() + log.charged_ns,
                }
            },
            fabric: FabricSection {
                reads: f.reads.get(),
                writes: f.writes.get(),
                atomics: f.atomics.get(),
                rpcs: f.rpcs.get(),
                batched_ops: f.batched_ops.get(),
            },
            repl: {
                let rp = sh.repl.snapshot();
                ReplSection {
                    replicas: rp.replicas as u64,
                    alive: rp.alive as u64,
                    replicated_writes: rp.replicated_writes,
                    single_replica_reads: rp.single_replica_reads,
                    majority_reads: rp.majority_reads,
                    conflicts_resolved: rp.conflicts_resolved,
                    evictions: rp.evictions,
                    recoveries: rp.recoveries,
                    auto_reseats: rp.auto_reseats,
                }
            },
        }
    }

    /// One-screen operational report (the rendered [`Cluster::stats`]).
    pub fn stats_report(&self) -> String {
        self.stats().to_string()
    }

    /// The cluster-wide *storage* checkpoint
    /// ([`Shared::storage_checkpoint`] over the roster): flush every node,
    /// write the DBP's dirty pages back to shared storage, and free the redo
    /// of every node that was quiesced — operators run this before planned
    /// maintenance so a restart replays only log tails, and it is what keeps
    /// the in-memory redo streams from growing without bound.
    ///
    /// ```
    /// use pmp_core::Cluster;
    /// use pmp_engine::row::RowValue;
    /// let cluster = Cluster::builder().nodes(2).build();
    /// let t = cluster.create_table("t", 1, &[]).unwrap();
    /// cluster.session(0).insert(t, 1, RowValue::new(vec![9])).unwrap();
    /// cluster.checkpoint_all();
    /// // The busy node's log now begins past everything it had written.
    /// assert!(cluster.node(0).wal.stream().start_lsn().0 > 0);
    /// ```
    pub fn checkpoint_all(&self) {
        // Snapshot the roster first: flushing charges storage/fabric
        // latency and must not run under the roster lock.
        let nodes: Vec<Arc<NodeEngine>> = self.nodes.lock().iter().map(Arc::clone).collect();
        self.shared.storage_checkpoint(&nodes);
    }

    /// Crash node `i` (volatile state lost, fusion-side locks frozen).
    pub fn crash_node(&self, i: usize) {
        self.node(i).crash();
    }

    /// Crash PMFS replica `i`: its health flips to down (counted as an
    /// eviction) and its copy of every replicated cell is scrambled, so
    /// any read that consulted it alone would see garbage. With
    /// `replicas = 3, repl_quorum = 2` the cluster keeps serving from the
    /// survivors. Returns false if `i` is out of range or already down.
    pub fn crash_pmfs_replica(&self, i: usize) -> bool {
        self.shared.repl.crash_replica(i)
    }

    /// Re-seat PMFS replica `i` from the survivors: every replicated cell
    /// (TIT slots, TSO high-water mark, PLock cells, DBP directory tags)
    /// is copied back from the freshest live copy, then the replica
    /// rejoins the write fan-out. Returns false if `i` was not down.
    pub fn recover_pmfs_replica(&self, i: usize) -> bool {
        self.shared.repl.recover_replica(i)
    }

    /// Recover a crashed node in place. Returns recovery statistics.
    pub fn recover_node(&self, i: usize) -> Result<RecoveryStats> {
        let node_id = {
            let nodes = self.nodes.lock();
            let engine = nodes
                .get(i)
                .ok_or_else(|| PmpError::internal("no such node"))?;
            if engine.is_alive() {
                return Err(PmpError::internal("node is not crashed"));
            }
            engine.node
        };
        let (engine, stats) = recover_node(&self.shared, node_id)?;
        self.nodes.lock()[i] = engine;
        Ok(stats)
    }

    /// Aggregate committed-transaction count across nodes (throughput
    /// sampling for the timeline figures).
    pub fn total_commits(&self) -> u64 {
        self.nodes
            .lock()
            .iter()
            .map(|n| n.stats.commits.get())
            .sum()
    }

    /// Per-node committed-transaction counts.
    pub fn commits_per_node(&self) -> Vec<u64> {
        self.nodes
            .lock()
            .iter()
            .map(|n| n.stats.commits.get())
            .collect()
    }

    /// Stop background machinery (detector + node threads). Nodes stay
    /// usable for reads but no new background work runs.
    pub fn shutdown(&self) {
        self.stop.trigger();
        for t in self.background.lock().drain(..) {
            let _ = t.join();
        }
        for node in self.nodes.lock().iter() {
            node.stop_background();
        }
        self.shared.pmfs.buffer.drain_evictions();
    }
}

fn io_section(io: &IoStats, prefetches: u64) -> IoSection {
    IoSection {
        submitted: io.submitted.get(),
        completed: io.completed.get(),
        cancelled: io.cancelled.get(),
        coalesced: io.coalesced.get(),
        inflight: io.inflight(),
        inflight_hwm: io.inflight_hwm(),
        worker_wakes: io.worker_wakes.get(),
        prefetches,
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_engine::row::RowValue;

    fn v(cols: &[u64]) -> RowValue {
        RowValue::new(cols.to_vec())
    }

    #[test]
    fn builder_starts_requested_nodes() {
        let c = Cluster::builder().nodes(3).build();
        assert_eq!(c.node_count(), 3);
        assert!(c.try_node(2).is_some());
        assert!(c.try_node(3).is_none());
    }

    #[test]
    fn add_node_scales_out_online() {
        let c = Cluster::builder().nodes(1).build();
        let t = c.create_table("t", 2, &[]).unwrap();
        c.session(0)
            .with_txn(|txn| txn.insert(t, 1, v(&[5, 0])))
            .unwrap();

        let idx = c.add_node();
        assert_eq!(idx, 1);
        // The new node reads data written before it joined.
        let row = c.session(1).with_txn(|txn| txn.get(t, 1)).unwrap();
        assert_eq!(row, Some(v(&[5, 0])));
    }

    #[test]
    fn crash_and_recover_roundtrip() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 2, &[]).unwrap();
        c.session(0)
            .with_txn(|txn| txn.insert(t, 1, v(&[7, 0])))
            .unwrap();

        c.crash_node(0);
        assert!(matches!(
            c.session(0).with_txn(|txn| txn.get(t, 1)),
            Err(PmpError::NodeUnavailable { .. })
        ));
        assert!(
            c.recover_node(1).is_err(),
            "healthy node is not recoverable"
        );

        c.recover_node(0).unwrap();
        let row = c.session(0).with_txn(|txn| txn.get(t, 1)).unwrap();
        assert_eq!(row, Some(v(&[7, 0])));
    }

    #[test]
    fn remove_node_scales_in_gracefully() {
        let c = Cluster::builder().nodes(3).build();
        let t = c.create_table("t", 2, &[]).unwrap();
        for k in 0..50 {
            c.session(2)
                .with_txn(|txn| txn.insert(t, k, v(&[k, 0])))
                .unwrap();
        }
        // Node 2 leaves; its data stays reachable from the survivors.
        c.remove_node(2, std::time::Duration::from_secs(1)).unwrap();
        assert!(matches!(
            c.session(2).get(t, 1),
            Err(PmpError::NodeUnavailable { .. })
        ));
        for node in 0..2 {
            assert_eq!(
                c.session(node).get(t, 7).unwrap(),
                Some(v(&[7, 0])),
                "survivor {node}"
            );
        }
        // And the survivors can write the departed node's former pages.
        c.session(0)
            .with_txn(|txn| txn.update(t, 7, v(&[70, 0])))
            .unwrap();
        assert_eq!(c.session(1).get(t, 7).unwrap(), Some(v(&[70, 0])));
    }

    #[test]
    fn remove_node_refuses_while_transactions_active() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        c.session(0).insert(t, 1, v(&[0])).unwrap();
        let mut open = c.session(0).begin().unwrap();
        open.update(t, 1, v(&[1])).unwrap();
        let err = c
            .remove_node(0, std::time::Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, PmpError::Aborted { .. }), "{err:?}");
        // The refusal must leave the node serviceable.
        open.commit().unwrap();
        assert_eq!(c.session(0).get(t, 1).unwrap(), Some(v(&[1])));
    }

    #[test]
    fn remove_node_lets_in_flight_transactions_finish() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        c.session(0).insert(t, 1, v(&[0])).unwrap();

        // An in-flight transaction commits *during* the drain window.
        let mut open = c.session(0).begin().unwrap();
        open.update(t, 1, v(&[7])).unwrap();
        let c2 = Arc::clone(&c);
        let decom =
            std::thread::spawn(move || c2.remove_node(0, std::time::Duration::from_secs(5)));
        std::thread::sleep(std::time::Duration::from_millis(100));
        // New begins are refused while draining …
        assert!(matches!(
            c.session(0).begin().map(|_| ()),
            Err(PmpError::NodeUnavailable { .. })
        ));
        // … but the in-flight commit succeeds and unblocks the drain.
        open.commit().unwrap();
        decom.join().unwrap().unwrap();
        assert_eq!(c.session(1).get(t, 1).unwrap(), Some(v(&[7])));
    }

    #[test]
    fn suspicion_monitor_reseats_crashed_pmfs_replica() {
        let mut config = ClusterConfig::test(1);
        config.replicas = 3;
        config.repl_quorum = 2;
        config.repl_suspicion_ms = 10;
        let c = Cluster::builder().config(config).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        c.session(0).insert(t, 1, v(&[1])).unwrap();

        assert!(c.crash_pmfs_replica(1), "replica must die");
        // Two-strike suspicion: the monitor re-seats after observing the
        // replica down on two consecutive 10ms polls. Poll generously —
        // CI boxes stall.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while c.stats().repl.auto_reseats == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "monitor never re-seated the replica"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let rp = c.stats().repl;
        assert_eq!(rp.alive, 3, "replica back in the write fan-out");
        assert!(rp.recoveries >= 1);
        // The re-seated replica serves correct data.
        assert_eq!(c.session(0).get(t, 1).unwrap(), Some(v(&[1])));
    }

    #[test]
    fn stats_report_mentions_every_section() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        c.session(0).insert(t, 1, v(&[1])).unwrap();
        c.session(1).get(t, 1).unwrap();
        let report = c.stats_report();
        for needle in [
            "nodes: 2",
            "node 0",
            "node 0 io:",
            "node 0 commit stages",
            "node 0 wal group:",
            "node 0 read-path:",
            "node 0 sched:",
            "open_txns_hwm=",
            "gc_evictions=",
            "buffer fusion",
            "buffer fusion write-back:",
            "clean_evictions=",
            "queued_hwm=",
            "lock fusion",
            "row waits",
            "storage:",
            "node 0 wal bytes:",
            "node 0 redo: start_lsn=",
            "storage_checkpoint_lsn=",
            "dirty_entries=",
            "loss_epoch=",
            "worker_wakes=",
            "storage bytes:",
            "page_ratio=",
            "storage bandwidth:",
            "effective_mb_per_s=",
            "batched_ops=",
            "repl:",
            "replicated_writes=",
            "auto_reseats=",
        ] {
            assert!(
                report.contains(needle),
                "missing {needle} in:
{report}"
            );
        }
    }

    #[test]
    fn typed_stats_match_rendered_report() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        c.session(0).insert(t, 1, v(&[7])).unwrap();
        c.session(1).get(t, 1).unwrap();
        let snap = c.stats();
        assert_eq!(snap.nodes.len(), 2);
        assert!(snap.nodes[0].alive);
        assert_eq!(snap.nodes[0].commits, 1);
        assert!(snap.nodes[0].open_txns_hwm >= 1);
        assert_eq!(snap.nodes[0].open_txns, 0);
        assert!(snap.fabric.rpcs > 0);
        // The Display impl is the report — no second formatting path.
        assert_eq!(snap.to_string(), c.stats_report());
    }

    #[test]
    fn async_session_commits_visible_to_blocking_session() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        let s = c.async_session(0);
        s.begin().wait().unwrap();
        s.insert(t, 9, v(&[42])).wait().unwrap();
        assert_eq!(s.get(t, 9).wait().unwrap(), Some(v(&[42])));
        s.commit().wait().unwrap();
        s.close().wait().unwrap();
        // Cross-node read through the classic blocking session.
        assert_eq!(c.session(1).get(t, 9).unwrap(), Some(v(&[42])));
        let snap = c.stats();
        assert!(snap.nodes[0].scheduler.tasks_hwm >= 1);
    }

    #[test]
    fn checkpoint_all_flushes_outside_roster_lock() {
        // Regression: checkpoint_all used to hold the node-roster mutex
        // across flush_tick, which charges storage/fabric latency. Under
        // `--features sanitize` the charge-point assertion panics if the
        // roster lock is still held here.
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 1, &[]).unwrap();
        for k in 0..10u64 {
            c.session(k as usize % 2).insert(t, k, v(&[k])).unwrap();
        }
        c.checkpoint_all();
        let node = c.node(0);
        let stream = node.wal.stream();
        assert!(stream.start_lsn().0 > 0);
        assert_eq!(stream.start_lsn(), stream.checkpoint());
    }

    #[test]
    fn commit_counters_aggregate() {
        let c = Cluster::builder().nodes(2).build();
        let t = c.create_table("t", 2, &[]).unwrap();
        for i in 0..3 {
            c.session(i % 2)
                .with_txn(|txn| txn.insert(t, i as u64, v(&[0, 0])))
                .unwrap();
        }
        assert_eq!(c.total_commits(), 3);
        assert_eq!(c.commits_per_node().len(), 2);
    }
}
