//! The per-layer budget of a traced run: counter deltas over the window
//! divided by commits, span percentiles, and direct timed calls into the
//! layers' public functions.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use pmp_common::{LatencyConfig, NodeId};
use pmp_core::stats::{CommitStagesSection, NodeSection};
use pmp_core::{Cluster, RecoveryStats};
use pmp_pmfs::PLockMode;
use pmp_rdma::Locality;
use pmp_storage::LogStream;

use crate::harness::{Meters, Recovery, SliceStat, Window};
use crate::stats::{median, percentile_sorted, ratio};
use crate::trace::{SpanKind, Trace};

/// Median wall time of `n` calls of `f`, in ns.
fn timed_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Direct timed calls into each layer, made after the window on the idle
/// cluster. The gap between a measured wait and its configured charge is
/// the simulator's own error bar (spin overshoot below 50 µs, sleep
/// overshoot above).
pub struct Probes {
    pub read_u64_ns: f64,
    pub rpc_ns: f64,
    pub charge_drift_pct: f64,
    pub tso_fetch_ns: f64,
    pub plock_rpc_ns: f64,
    pub page_read_ns: f64,
    pub sync_ns: f64,
}

impl Probes {
    pub fn take(cluster: &Cluster) -> Probes {
        let shared = cluster.shared();
        let lat: &LatencyConfig = shared.fabric.config();
        let cell = AtomicU64::new(0);
        let read_u64_ns = timed_ns(2_000, || {
            std::hint::black_box(shared.fabric.read_u64(&cell, Locality::Remote));
        });
        let rpc_ns = timed_ns(2_000, || shared.fabric.rpc(32, || ()));
        let tso_fetch_ns = timed_ns(2_000, || {
            std::hint::black_box(shared.pmfs.txn.current_cts());
        });
        // A page no table owns: every acquire is an immediate grant, and the
        // release between two acquires is outside the timed call.
        let scratch = shared.storage.page_store().allocate_page_id();
        let mut plock_samples = Vec::with_capacity(500);
        for _ in 0..500 {
            let start = Instant::now();
            let got =
                shared
                    .pmfs
                    .plock
                    .acquire(NodeId(0), scratch, PLockMode::S, Duration::from_secs(1));
            plock_samples.push(start.elapsed().as_nanos() as f64);
            if got.is_ok() {
                shared.pmfs.plock.release(NodeId(0), scratch);
            }
        }
        let root = shared
            .catalog
            .all()
            .first()
            .map(|m| m.root)
            .expect("at least one table");
        let page_read_ns = timed_ns(200, || {
            let _ = std::hint::black_box(shared.storage.page_store().read(root));
        });
        let stream = LogStream::new(shared.config.storage_latency);
        let record = [0u8; 256];
        let sync_ns = timed_ns(200, || {
            stream.append(&record);
            stream.sync();
        });
        let charged = lat.charge_ns(lat.one_sided_read_ns, 8) as f64;
        Probes {
            read_u64_ns,
            rpc_ns,
            charge_drift_pct: (ratio(read_u64_ns, charged) - 1.0) * 100.0,
            tso_fetch_ns,
            plock_rpc_ns: median(&plock_samples),
            page_read_ns,
            sync_ns,
        }
    }
}

/// What the per-layer values are computed from: the meters at the traced
/// window's two ends, the harness's spans, the probes and the recovery.
pub struct Ctx<'a> {
    before: &'a Meters,
    after: &'a Meters,
    commits: f64,
    executions: f64,
    trace: Trace<'a>,
    latencies_sorted: &'a [u32],
    probes: Probes,
    recovery: Option<&'a Recovery>,
    acked_missing: u64,
    fabric: LatencyConfig,
    overhead_pct: f64,
}

impl<'a> Ctx<'a> {
    pub fn new(
        cluster: &Cluster,
        window: &'a Window,
        slices: &[SliceStat],
        latencies_sorted: &'a [u32],
        recovery: Option<&'a Recovery>,
        acked_missing: u64,
    ) -> Ctx<'a> {
        let (before, after) = window
            .meters
            .as_ref()
            .expect("a traced window reads the meters");
        // Even slices ran untraced, odd ones traced: each pair of neighbours
        // saw nearly the same machine, so the median of the pairs' ratios is
        // free of the host's slow drift.
        let pair_loss: Vec<f64> = slices
            .chunks_exact(2)
            .filter(|p| p[0].commits > 0)
            .map(|p| 1.0 - p[1].tps / p[0].tps)
            .collect();
        Ctx {
            before,
            after,
            commits: window.sum(|c| c.committed) as f64,
            executions: window.sum(|c| c.executions) as f64,
            trace: window.trace(),
            latencies_sorted,
            probes: Probes::take(cluster),
            recovery,
            acked_missing,
            fabric: *cluster.shared().fabric.config(),
            overhead_pct: median(&pair_loss) * 100.0,
        }
    }

    /// Counter delta over the window.
    fn d(&self, f: impl Fn(&Meters) -> u64) -> f64 {
        f(self.after).saturating_sub(f(self.before)) as f64
    }

    /// Counter delta over the window, per commit.
    fn per(&self, f: impl Fn(&Meters) -> u64) -> f64 {
        ratio(self.d(f), self.commits)
    }

    /// Percentile `q` of the spans of one kind, in µs.
    fn span_us(&self, kind: SpanKind, q: f64) -> f64 {
        us_p(&self.trace.sorted_durs(kind), q)
    }

    /// Mean over nodes of a commit-stage figure (the histograms were reset
    /// at the window's start, so the end snapshot alone covers the window).
    fn stage(&self, f: impl Fn(&CommitStagesSection) -> u64) -> f64 {
        let nodes = &self.after.stats.nodes;
        nodes
            .iter()
            .map(|n| f(&n.commit_stages) as f64)
            .sum::<f64>()
            / nodes.len().max(1) as f64
    }

    fn recovered(&self, f: impl Fn(&RecoveryStats) -> u64) -> f64 {
        self.recovery.map_or(0.0, |r| f(&r.stats) as f64)
    }

    /// Counts × configured cost + byte term, in ns: an upper bound on what
    /// the fabric charged, since local verbs are free and a doorbell batch
    /// is charged once.
    fn fabric_charged_ns(&self) -> f64 {
        let lat = &self.fabric;
        (self.d(|m| m.stats.fabric.reads) * lat.one_sided_read_ns as f64
            + self.d(|m| m.stats.fabric.writes) * lat.one_sided_write_ns as f64
            + self.d(|m| m.stats.fabric.atomics) * lat.atomic_ns as f64
            + self.d(|m| m.stats.fabric.rpcs) * lat.rpc_ns as f64
            + self.d(|m| m.fabric_bytes) * lat.per_kib_ns as f64 / 1024.0)
            * lat.scale
    }
}

fn us_p(sorted_ns: &[u32], q: f64) -> f64 {
    percentile_sorted(sorted_ns, q) as f64 / 1e3
}

/// A per-node counter summed over the nodes.
fn nodes(m: &Meters, f: impl Fn(&NodeSection) -> u64) -> u64 {
    m.stats.nodes.iter().map(f).sum()
}

/// One per-layer metric: what `BENCHMARK.json` says of it and how a traced
/// run computes it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub value: fn(&Ctx) -> f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    value: fn(&Ctx) -> f64,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        value,
    }
}

const LO: &str = "lower";
const HI: &str = "higher";

/// Every per-layer metric the traced run prints, in report order. This is
/// the one place they are written down; a unit test holds `BENCHMARK.json`
/// to it.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 86] = [
    // Harness-side spans around the public transaction API.
    metric("core.begin_us_p50", "us", LO, |c| c.span_us(SpanKind::Begin, 0.50)),
    metric("core.point_get_us_p50", "us", LO, |c| c.span_us(SpanKind::Get, 0.50)),
    metric("core.scan_us_p50", "us", LO, |c| c.span_us(SpanKind::Scan, 0.50)),
    metric("core.update_us_p50", "us", LO, |c| c.span_us(SpanKind::Update, 0.50)),
    metric("core.insert_us_p50", "us", LO, |c| c.span_us(SpanKind::Insert, 0.50)),
    metric("core.delete_us_p50", "us", LO, |c| c.span_us(SpanKind::Delete, 0.50)),
    metric("core.commit_us_p50", "us", LO, |c| c.span_us(SpanKind::Commit, 0.50)),
    metric("core.commit_us_p95", "us", LO, |c| c.span_us(SpanKind::Commit, 0.95)),
    metric("core.txn_self_us_p50", "us", LO, |c| us_p(&c.trace.sorted_self(), 0.50)),
    metric("core.attempts_per_commit", "count", LO, |c| ratio(c.executions, c.commits)),
    metric("core.rollbacks_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.rollbacks))),
    metric("core.deadlocks_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.deadlocks))),
    metric("core.lock_waits_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.lock_waits))),
    metric("core.txn_p99_us", "us", LO, |c| us_p(c.latencies_sorted, 0.99)),
    metric("core.txn_p999_us", "us", LO, |c| us_p(c.latencies_sorted, 0.999)),
    metric("core.txn_samples", "count", HI, |c| c.latencies_sorted.len() as f64),
    // Fabric.
    metric("rdma.reads_per_commit", "count", LO, |c| c.per(|m| m.stats.fabric.reads)),
    metric("rdma.writes_per_commit", "count", LO, |c| c.per(|m| m.stats.fabric.writes)),
    metric("rdma.atomics_per_commit", "count", LO, |c| c.per(|m| m.stats.fabric.atomics)),
    metric("rdma.rpcs_per_commit", "count", LO, |c| c.per(|m| m.stats.fabric.rpcs)),
    metric("rdma.batched_share", "ratio", HI, |c| ratio(
        c.d(|m| m.stats.fabric.batched_ops),
        c.d(|m| { let f = &m.stats.fabric; f.reads + f.writes + f.atomics + f.rpcs }),
    )),
    metric("rdma.charged_us_per_commit", "us", LO, |c| ratio(c.fabric_charged_ns() / 1e3, c.commits)),
    metric("rdma.read_u64_ns", "ns", LO, |c| c.probes.read_u64_ns),
    metric("rdma.rpc_ns", "ns", LO, |c| c.probes.rpc_ns),
    metric("rdma.charge_drift_pct", "%", LO, |c| c.probes.charge_drift_pct),
    // PMFS replication.
    metric("repl.replicated_writes_per_commit", "count", LO, |c| c.per(|m| m.stats.repl.replicated_writes)),
    metric("repl.single_reads_per_commit", "count", LO, |c| c.per(|m| m.stats.repl.single_replica_reads)),
    metric("repl.majority_reads_per_commit", "count", LO, |c| c.per(|m| m.stats.repl.majority_reads)),
    metric("repl.conflicts_resolved", "count", LO, |c| c.d(|m| m.stats.repl.conflicts_resolved)),
    // PMFS: lock fusion, buffer fusion, TSO.
    metric("pmfs.plock_acquires_per_commit", "count", LO, |c| c.per(|m| m.stats.lock_fusion.acquires)),
    metric("pmfs.plock_negotiations_per_commit", "count", LO, |c| c.per(|m| m.stats.lock_fusion.negotiations)),
    metric("pmfs.plock_immediate_share", "ratio", HI, |c| ratio(
        c.d(|m| m.stats.lock_fusion.immediate),
        c.d(|m| m.stats.lock_fusion.acquires),
    )),
    metric("pmfs.plock_timeouts", "count", LO, |c| c.d(|m| m.stats.lock_fusion.timeouts)),
    metric("pmfs.dbp_fetches_per_commit", "count", LO, |c| c.per(|m| m.stats.buffer_fusion.fetches)),
    metric("pmfs.dbp_pushes_per_commit", "count", LO, |c| c.per(|m| m.stats.buffer_fusion.pushes)),
    metric("pmfs.dbp_invalidations_per_commit", "count", LO, |c| c.per(|m| m.stats.buffer_fusion.invalidations)),
    metric("pmfs.dbp_hit_rate", "ratio", HI, |c| ratio(
        c.d(|m| m.stats.buffer_fusion.hits),
        c.d(|m| m.stats.buffer_fusion.hits + m.stats.buffer_fusion.misses),
    )),
    metric("pmfs.dbp_evictions_per_commit", "count", LO, |c| c.per(|m| m.stats.buffer_fusion.evictions)),
    metric("pmfs.rlock_waits_per_commit", "count", LO, |c| c.per(|m| m.stats.row_waits.registered)),
    metric("pmfs.tso_fetch_ns", "ns", LO, |c| c.probes.tso_fetch_ns),
    metric("pmfs.plock_rpc_ns", "ns", LO, |c| c.probes.plock_rpc_ns),
    // io ring.
    metric("io.submitted_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.io.submitted))),
    metric("io.coalesced_share", "ratio", HI, |c| ratio(
        c.d(|m| nodes(m, |n| n.io.coalesced)),
        c.d(|m| nodes(m, |n| n.io.submitted)),
    )),
    metric("io.inflight_hwm", "count", HI, |c| {
        c.after.stats.nodes.iter().map(|n| n.io.inflight_hwm).max().unwrap_or(0) as f64
    }),
    metric("io.cancelled", "count", LO, |c| c.d(|m| nodes(m, |n| n.io.cancelled))),
    metric("io.prefetches_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.io.prefetches))),
    // Shared storage.
    metric("storage.page_reads_per_commit", "count", LO, |c| c.per(|m| m.stats.storage.page_reads)),
    metric("storage.page_writes_per_commit", "count", LO, |c| c.per(|m| m.stats.storage.page_writes)),
    metric("storage.page_phys_bytes_per_commit", "B", LO, |c| c.per(|m| m.stats.storage.page_physical_bytes)),
    metric("storage.log_phys_bytes_per_commit", "B", LO, |c| c.per(|m| m.stats.storage.log_physical_bytes)),
    metric("storage.page_ratio", "ratio", HI, |c| ratio(
        c.d(|m| m.stats.storage.page_logical_bytes),
        c.d(|m| m.stats.storage.page_physical_bytes),
    )),
    metric("storage.log_ratio", "ratio", HI, |c| ratio(
        c.d(|m| m.stats.storage.log_logical_bytes),
        c.d(|m| m.stats.storage.log_physical_bytes),
    )),
    metric("storage.recompressions_per_commit", "count", LO, |c| c.per(|m| m.stats.storage.recompressions)),
    metric("storage.charged_io_us_per_commit", "us", LO, |c| c.per(|m| m.stats.storage.charged_io_ns) / 1e3),
    metric("storage.page_read_ns", "ns", LO, |c| c.probes.page_read_ns),
    metric("storage.sync_ns", "ns", LO, |c| c.probes.sync_ns),
    // WAL group commit and the engine's commit stages.
    metric("wal.fsyncs_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.wal_group.batches))),
    metric("wal.riders_per_batch", "ratio", HI, |c| ratio(
        c.d(|m| nodes(m, |n| n.wal_group.riders)),
        c.d(|m| nodes(m, |n| n.wal_group.batches)),
    )),
    metric("wal.windows_waited_share", "ratio", LO, |c| ratio(
        c.d(|m| nodes(m, |n| n.wal_group.windows_waited)),
        c.d(|m| nodes(m, |n| n.wal_group.batches)),
    )),
    metric("wal.force_mean_us", "us", LO, |c| c.stage(|s| s.wal_force_mean_us)),
    metric("wal.force_p99_us", "us", LO, |c| c.stage(|s| s.wal_force_p99_us)),
    metric("engine.cts_mean_us", "us", LO, |c| c.stage(|s| s.cts_mean_us)),
    metric("engine.tit_mean_us", "us", LO, |c| c.stage(|s| s.tit_mean_us)),
    metric("engine.backfill_mean_us", "us", LO, |c| c.stage(|s| s.backfill_mean_us)),
    // Local buffer pool.
    metric("lbp.hit_rate", "ratio", HI, |c| ratio(
        c.d(|m| m.lbp_hits),
        c.d(|m| m.lbp_hits + m.lbp_invalid_hits + m.lbp_misses),
    )),
    metric("lbp.misses_per_commit", "count", LO, |c| c.per(|m| m.lbp_misses)),
    metric("lbp.evictions_per_commit", "count", LO, |c| c.per(|m| m.lbp_evictions)),
    metric("lbp.invalid_hits_per_commit", "count", LO, |c| c.per(|m| m.lbp_invalid_hits)),
    // Version store.
    metric("vstore.hit_rate", "ratio", HI, |c| ratio(
        c.d(|m| nodes(m, |n| n.read_path.version_hits)),
        c.d(|m| nodes(m, |n| n.read_path.version_hits + n.read_path.version_misses)),
    )),
    metric("vstore.publishes_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.read_path.publishes))),
    metric("vstore.evictions_per_commit", "count", LO, |c| {
        c.per(|m| nodes(m, |n| n.read_path.evictions + n.read_path.gc_evictions))
    }),
    metric("vstore.resident_mb", "MiB", LO, |c| {
        nodes(c.after, |n| n.read_path.resident_bytes) as f64 / (1024.0 * 1024.0)
    }),
    // Transaction scheduler.
    metric("sched.parks_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.scheduler.parks))),
    metric("sched.wakes_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.scheduler.wakes))),
    metric("sched.inline_runs_per_commit", "count", HI, |c| c.per(|m| nodes(m, |n| n.scheduler.inline_runs))),
    metric("sched.timer_fires", "count", LO, |c| c.d(|m| nodes(m, |n| n.scheduler.timer_fires))),
    metric("sched.blocking_jobs_per_commit", "count", LO, |c| c.per(|m| nodes(m, |n| n.scheduler.blocking_jobs))),
    // Crash recovery of node 1 (wo_cold only; 0 elsewhere).
    metric("recovery.ms", "ms", LO, |c| c.recovery.map_or(0.0, |r| r.wall_ms)),
    metric("recovery.records_scanned", "count", LO, |c| c.recovered(|s| s.records_scanned)),
    metric("recovery.pages_from_dbp", "count", HI, |c| c.recovered(|s| s.pages_from_dbp)),
    metric("recovery.pages_from_storage", "count", LO, |c| c.recovered(|s| s.pages_from_storage)),
    metric("recovery.acked_missing", "count", LO, |c| c.acked_missing as f64),
    // Process: what explains a move of the end-to-end `cpu_us_per_commit`.
    metric("proc.cpu_user_us_per_commit", "us", LO, |c| c.per(|m| m.proc.user_us)),
    metric("proc.cpu_sys_us_per_commit", "us", LO, |c| c.per(|m| m.proc.sys_us)),
    metric("proc.vol_ctx_switches_per_commit", "count", LO, |c| c.per(|m| m.proc.vol_ctx_switches)),
    // Cost of the harness's own spans.
    metric("trace.overhead_pct", "%", LO, |c| c.overhead_pct),
];
