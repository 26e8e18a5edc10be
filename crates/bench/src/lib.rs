//! Shared benchmark harness: environment knobs, cluster/target builders and
//! the report writer used by every figure bench.
//!
//! ## How the figures are regenerated
//!
//! Every bench target under `benches/` is a `harness = false` binary that
//! reproduces one figure of the paper's evaluation (§5): it builds the
//! system(s), loads the workload, sweeps the paper's parameter axes, and
//! prints the same rows/series the paper plots — absolute throughput plus
//! the normalized scalability numbers the paper annotates. Results are
//! also written to `results/<figure>.txt` at the workspace root.
//!
//! ## Time scale
//!
//! The host this reproduction targets may have a single core, so injected
//! latencies sleep rather than spin (see `pmp_rdma::clock`), and all
//! latencies are scaled up by [`bench_scale`] (default 100×) to stay in
//! the sleepable range. Absolute throughput is therefore "simulator
//! throughput" ≈ real ÷ scale; *shapes* — scalability curves, crossover
//! points, who wins by what factor — are preserved because every system
//! under test (PolarDB-MP and all baselines) pays latency from the same
//! scaled model.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use pmp_common::ClusterConfig;
use pmp_core::Cluster;
use pmp_workloads::driver::{load_workload, DriverConfig};
use pmp_workloads::spec::{OltpTarget, Workload};

/// Measured window per data point, seconds (`PMP_BENCH_SECS`, default 1.5).
pub fn bench_secs() -> f64 {
    std::env::var("PMP_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0)
}

/// Warm-up before each measured window, seconds.
pub fn warmup_secs() -> f64 {
    std::env::var("PMP_BENCH_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5)
}

/// Latency scale factor (`PMP_BENCH_SCALE`, default 100): all injected
/// latencies are multiplied by this, keeping ratios intact.
pub fn bench_scale() -> f64 {
    std::env::var("PMP_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0)
}

/// Workers per node (`PMP_BENCH_WORKERS`, default 2).
pub fn workers_per_node() -> usize {
    std::env::var("PMP_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Quick mode (`PMP_BENCH_QUICK=1`): trims sweep axes for smoke runs.
pub fn quick() -> bool {
    std::env::var("PMP_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Cluster configuration for benches: realistic latency hierarchy at the
/// bench scale.
pub fn bench_cluster_config(nodes: usize) -> ClusterConfig {
    ClusterConfig::bench(nodes, bench_scale())
}

/// Start a PolarDB-MP cluster at bench scale.
pub fn bench_cluster(nodes: usize) -> Arc<Cluster> {
    Cluster::builder()
        .config(bench_cluster_config(nodes))
        .build()
}

/// Driver config for one data point.
pub fn point_config(workers_per_node_override: Option<usize>) -> DriverConfig {
    DriverConfig {
        duration: Duration::from_secs_f64(bench_secs()),
        warmup: Duration::from_secs_f64(warmup_secs()),
        workers_per_node: workers_per_node_override.unwrap_or_else(workers_per_node),
        retry_aborts: true,
        timeline_sample_ms: None,
        active_nodes: None,
        seed: 0x5EED,
    }
}

/// Bulk-load `workload` into `target` with latency injection suspended —
/// loading is administrative (a restore), not part of any measured window.
pub fn load_suspended(target: &dyn OltpTarget, workload: &dyn Workload) {
    pmp_rdma::set_latency_enabled(false);
    load_workload(target, workload);
    pmp_rdma::set_latency_enabled(true);
}

/// Collects a figure's output, echoes it to stdout, and persists it under
/// `results/` for EXPERIMENTS.md.
pub struct Report {
    name: String,
    lines: Vec<String>,
}

impl Report {
    pub fn new(name: &str, title: &str) -> Self {
        let mut r = Report {
            name: name.to_string(),
            lines: Vec::new(),
        };
        r.line(format!("# {title}"));
        r.line(format!(
            "# scale={}x, window={}s, workers/node={}",
            bench_scale(),
            bench_secs(),
            workers_per_node()
        ));
        r
    }

    pub fn line(&mut self, s: impl Into<String>) {
        let s = s.into();
        println!("{s}");
        self.lines.push(s);
    }

    pub fn blank(&mut self) {
        self.line("");
    }

    /// Write the accumulated report to `results/<name>.txt` (workspace
    /// root, best effort).
    pub fn save(&self) {
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.txt", self.name));
        if let Ok(mut f) = std::fs::File::create(&path) {
            for l in &self.lines {
                let _ = writeln!(f, "{l}");
            }
            println!("[saved {}]", path.display());
        }
    }
}

fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Per-transaction PMFS counter dump (enabled with `PMP_BENCH_DEBUG=1`).
pub fn debug_counters(report: &mut Report, cluster: &Arc<Cluster>, committed: u64, nodes: usize) {
    if std::env::var("PMP_BENCH_DEBUG").is_err() {
        return;
    }
    let sh = cluster.shared();
    let c = committed.max(1) as f64;
    report.line(format!(
        "    dbg per-txn: plock_acq {:.2} neg {:.2} timeouts {:.2} | dbp fetch {:.2} push {:.2} inval {:.2} miss {:.2} evic {:.2} | storage rd {:.2} sync {:.2} | fab rd {:.2} wr {:.2} at {:.2} rpc {:.2} | lbp hit {:.2} inv {:.2} miss {:.2} evic {:.2}",
        sh.pmfs.plock.stats().acquires.get() as f64 / c,
        sh.pmfs.plock.stats().negotiations.get() as f64 / c,
        sh.pmfs.plock.stats().timeouts.get() as f64 / c,
        sh.pmfs.buffer.stats().fetches.get() as f64 / c,
        sh.pmfs.buffer.stats().pushes.get() as f64 / c,
        sh.pmfs.buffer.stats().invalidations.get() as f64 / c,
        sh.pmfs.buffer.stats().misses.get() as f64 / c,
        sh.pmfs.buffer.stats().evictions.get() as f64 / c,
        sh.storage.page_store().stats().page_reads.get() as f64 / c,
        (0..nodes).map(|i| cluster.node(i).wal.stream().sync_count()).sum::<u64>() as f64 / c,
        sh.fabric.stats().reads.get() as f64 / c,
        sh.fabric.stats().writes.get() as f64 / c,
        sh.fabric.stats().atomics.get() as f64 / c,
        sh.fabric.stats().rpcs.get() as f64 / c,
        (0..nodes).map(|i| cluster.node(i).lbp.stats().hits.get()).sum::<u64>() as f64 / c,
        (0..nodes).map(|i| cluster.node(i).lbp.stats().invalid_hits.get()).sum::<u64>() as f64 / c,
        (0..nodes).map(|i| cluster.node(i).lbp.stats().misses.get()).sum::<u64>() as f64 / c,
        (0..nodes).map(|i| cluster.node(i).lbp.stats().evictions.get()).sum::<u64>() as f64 / c,
    ));
}

/// Format a throughput cell: absolute + normalized-to-base scalability.
pub fn cell(tps: f64, base: f64) -> String {
    if base > 0.0 {
        format!("{:>9.0} ({:>4.2}x)", tps, tps / base)
    } else {
        format!("{tps:>9.0} (  -  )")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        assert!(bench_secs() > 0.0);
        assert!(bench_scale() >= 1.0);
        assert!(workers_per_node() >= 1);
    }

    #[test]
    fn cell_formatting() {
        assert!(cell(1000.0, 500.0).contains("2.00x"));
        assert!(cell(1000.0, 0.0).contains("-"));
    }

    #[test]
    fn report_accumulates_lines() {
        let mut r = Report::new("selftest", "Self test");
        r.line("hello");
        assert!(r.lines.iter().any(|l| l == "hello"));
    }

    // ---- commit-pipeline probes (EXPERIMENTS.md §commit pipeline) ------
    //
    // Run with `cargo test -p pmp-bench --release -- --ignored probe
    // --nocapture`. Each prints one table row; the numbers in
    // EXPERIMENTS.md come from these.

    use pmp_common::NodeId;
    use pmp_engine::row::RowValue;
    use pmp_engine::shared::Shared;
    use pmp_engine::NodeEngine;

    /// Insert-and-commit one key, retrying transient aborts the way the
    /// workload driver does (`retry_aborts`) — e.g. the pre-existing
    /// split-page push race that surfaces as a storage miss under
    /// concurrent committers at latency scale 1.
    fn commit_one_key(engine: &Arc<NodeEngine>, t: pmp_common::TableId, k: u64) {
        for _ in 0..1000 {
            let done = engine.begin().and_then(|mut txn| {
                txn.insert(t, k, RowValue::new(vec![k]))?;
                txn.commit()
            });
            if done.is_ok() {
                return;
            }
        }
        panic!("key {k} failed to commit after 1000 retries");
    }

    /// Wall-clock of `committers` threads each committing `per_committer`
    /// single-row inserts on one node at latency scale 1, plus the fsync
    /// and group counters afterwards.
    fn commit_burst(window_us: u64, committers: usize, per_committer: u64) -> String {
        let mut config = ClusterConfig::bench(1, 1.0);
        config.engine.wal_group_window_us = window_us;
        let shared = Shared::new(config);
        let engine = NodeEngine::start(Arc::clone(&shared), NodeId(0));
        let t = shared.create_table("t", 1, &[]).unwrap().id;

        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for w in 0..committers {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    for i in 0..per_committer {
                        commit_one_key(&engine, t, w as u64 * 1_000_000 + i);
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        engine.stop_background();

        let commits = (committers as u64 * per_committer) as f64;
        let g = engine.wal.group_stats();
        let s = &engine.stats;
        let row = format!(
            "window={window_us:>3}us committers={committers} | {commits:>4.0} commits in {:>8.2?} \
             ({:>6.0} commits/s) | fsyncs/commit={:.2} batches={} riders={} windows_waited={} empty={} \
             | stage mean us: cts={} wal={} tit={} backfill={}",
            elapsed,
            commits / elapsed.as_secs_f64(),
            engine.wal.stream().sync_count() as f64 / commits,
            g.batches.get(),
            g.riders.get(),
            g.windows_waited.get(),
            g.empty_windows.get(),
            s.commit_cts_ns.mean_ns() / 1000,
            s.commit_wal_force_ns.mean_ns() / 1000,
            s.commit_tit_ns.mean_ns() / 1000,
            s.commit_backfill_ns.mean_ns() / 1000,
        );
        println!("{row}");
        row
    }

    #[test]
    #[ignore] // probe: group-commit window on/off at 1 and 8 committers
    fn commit_group_window_probe() {
        for committers in [1usize, 8, 16] {
            for window_us in [0u64, 20] {
                commit_burst(window_us, committers, 100);
            }
        }
    }

    #[test]
    #[ignore] // probe: single-committer p50/p99 regression vs the window
    fn commit_single_p99_probe() {
        for window_us in [0u64, 20] {
            let mut config = ClusterConfig::bench(1, 1.0);
            config.engine.wal_group_window_us = window_us;
            let shared = Shared::new(config);
            let engine = NodeEngine::start(Arc::clone(&shared), NodeId(0));
            let t = shared.create_table("t", 1, &[]).unwrap().id;
            let mut lat_us: Vec<u64> = Vec::with_capacity(400);
            for k in 0..400u64 {
                let start = std::time::Instant::now();
                commit_one_key(&engine, t, k);
                lat_us.push(start.elapsed().as_micros() as u64);
            }
            engine.stop_background();
            lat_us.sort_unstable();
            println!(
                "window={window_us:>3}us single committer | p50={}us p99={}us max={}us",
                lat_us[lat_us.len() / 2],
                lat_us[lat_us.len() * 99 / 100],
                lat_us[lat_us.len() - 1],
            );
        }
    }

    /// Read-heavy point-select probe in the sysbench heavy-sharing shape
    /// (EXPERIMENTS.md §read path): 4 nodes at latency scale 1. Writers on
    /// nodes 0–1 churn a shared hot key group; SI readers on nodes 2–3 then
    /// pin snapshots, the writers stack a few dozen newer versions on every
    /// hot key and quiesce, and the measured window times the pinned
    /// readers' `multi_get` batches. Every measured read resolves *below*
    /// the (now too-new) row headers: through local warmed chains with the
    /// per-node version store on, vs a remote-read-per-hop undo-chain walk
    /// in the CTS-cache-only baseline (`version_store_bytes = 0`).
    #[test]
    #[ignore] // probe: version-store read path on/off
    fn version_store_read_heavy_probe() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Barrier;

        const HOT_KEYS: u64 = 64;
        const BATCH: usize = 10;

        for (label, bytes) in [("cts-cache-only", 0usize), ("version-store ", 4 << 20)] {
            let mut config = ClusterConfig::bench(4, 1.0);
            config.engine.read_committed = false; // SI: lagging snapshots walk
            config.engine.version_store_bytes = bytes;
            let shared = Shared::new(config);
            let engines: Vec<Arc<NodeEngine>> = (0..4)
                .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i)))
                .collect();
            let t = shared.create_table("t", 1, &[]).unwrap().id;
            pmp_rdma::set_latency_enabled(false);
            for k in 0..HOT_KEYS {
                commit_one_key(&engines[0], t, k);
            }
            pmp_rdma::set_latency_enabled(true);

            let stop_writers = AtomicBool::new(false);
            let stop = AtomicBool::new(false);
            // Readers + main; passed twice (churn done → pin, all pinned).
            let pin = Barrier::new(5);
            let reads = AtomicU64::new(0);
            let commits = AtomicU64::new(0);
            let measured_secs = 1.0_f64.max(bench_secs() / 2.0);
            let mut rates = (0.0, 0.0); // (reads_per_sec, hit_rate)
            std::thread::scope(|s| {
                for (w, engine) in engines.iter().take(2).enumerate() {
                    let engine = Arc::clone(engine);
                    let (stop_writers, commits) = (&stop_writers, &commits);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(w as u64);
                        while !stop_writers.load(Ordering::Relaxed) {
                            let mut keys = [0u64; 4];
                            for k in &mut keys {
                                *k = rng.random_range(0..HOT_KEYS);
                            }
                            // Sorted lock order: a writer-vs-writer deadlock
                            // would stall both until the 2s lock-wait timeout
                            // — longer than the whole stacking window.
                            keys.sort_unstable();
                            let r = engine.begin().and_then(|mut txn| {
                                for &k in &keys {
                                    txn.update(t, k, RowValue::new(vec![k + 1]))?;
                                }
                                txn.commit()
                            });
                            if r.is_ok() {
                                commits.fetch_add(1, Ordering::Relaxed);
                            } // write-write aborts are expected churn
                        }
                    });
                }
                for w in 0..4usize {
                    let engine = Arc::clone(&engines[2 + w % 2]);
                    let (stop, reads, pin) = (&stop, &reads, &pin);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(100 + w as u64);
                        pin.wait(); // churn done: pin a snapshot…
                        let mut txn = engine.begin().unwrap();
                        pin.wait(); // …and park while writers stack versions
                        pin.wait(); // writers quiesced: hammer reads
                        while !stop.load(Ordering::Relaxed) {
                            let mut keys = [0u64; BATCH];
                            for k in &mut keys {
                                *k = rng.random_range(0..HOT_KEYS);
                            }
                            // Every read is below the row header: warmed
                            // chains answer locally; the baseline re-walks
                            // the undo chain (remote reads) each time.
                            txn.multi_get(t, &keys).unwrap();
                            reads.fetch_add(BATCH as u64, Ordering::Relaxed);
                        }
                        txn.commit().unwrap();
                    });
                }

                // Churn, pin the reader snapshots, stack newer versions on
                // top of them (readers parked so the writers get the box),
                // quiesce the writers, let first-touch fills settle, then
                // snapshot meters and measure one window.
                std::thread::sleep(std::time::Duration::from_secs_f64(warmup_secs()));
                println!(
                    "{label} | warmup commits: {}",
                    commits.load(Ordering::Relaxed),
                );
                pin.wait();
                pin.wait();
                // The version-stacking window sets the undo-chain depth a
                // baseline lagging read must walk (remote read per hop);
                // store resolution cost is independent of it.
                let commits0 = commits.load(Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(250));
                println!(
                    "{label} | commits stacked on the pinned snapshots: {}",
                    commits.load(Ordering::Relaxed) - commits0,
                );
                stop_writers.store(true, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(100));
                pin.wait();
                std::thread::sleep(std::time::Duration::from_millis(200));
                let reads0 = reads.load(Ordering::Relaxed);
                let undo_remote0 = shared.undo.remote_reads.get();
                let (hits0, misses0) = (2..4)
                    .map(|i: usize| {
                        let s = &engines[i].version_store.stats;
                        (s.hits.get(), s.misses.get())
                    })
                    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
                let start = std::time::Instant::now();
                std::thread::sleep(std::time::Duration::from_secs_f64(measured_secs));
                let elapsed = start.elapsed().as_secs_f64();
                let window_reads = reads.load(Ordering::Relaxed) - reads0;
                let undo_remote = shared.undo.remote_reads.get() - undo_remote0;
                let totals = (2..4)
                    .map(|i: usize| {
                        let s = &engines[i].version_store.stats;
                        (s.hits.get(), s.misses.get())
                    })
                    .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
                let (hits, misses) = (totals.0 - hits0, totals.1 - misses0);
                println!(
                    "{label} | remote undo reads per point read: {:.2} | lagging fraction: {:.2}",
                    undo_remote as f64 / window_reads.max(1) as f64,
                    (hits + misses) as f64 / window_reads.max(1) as f64,
                );
                rates = (
                    window_reads as f64 / elapsed,
                    hits as f64 / (hits + misses).max(1) as f64,
                );
                stop.store(true, Ordering::Relaxed);
            });
            for e in &engines {
                e.stop_background();
            }
            println!(
                "{label} | point reads/s={:>8.0} | resolution hit rate={:>5.1}% (hits+misses are \
                 reads whose header was too new for the snapshot)",
                rates.0,
                rates.1 * 100.0,
            );
        }
    }

    #[test]
    #[ignore] // probe: 4-node write-heavy sysbench, whole pipeline on/off
    fn commit_sysbench_pipeline_probe() {
        use pmp_workloads::driver::run_workload;
        use pmp_workloads::sysbench::{Sysbench, SysbenchMode};
        use pmp_workloads::targets::PmpTarget;

        let nodes = 4;
        for (label, window_us, lease_max) in
            [("pipeline-off", 0u64, 1u64), ("pipeline-on ", 20, 16)]
        {
            let mut config = bench_cluster_config(nodes);
            config.engine.wal_group_window_us = window_us;
            config.engine.cts_lease_max = lease_max;
            let cluster = Cluster::builder().config(config).build();
            let layout = Sysbench::new(SysbenchMode::WriteOnly, nodes, 4, 2_000, 50);
            let target = PmpTarget::new(Arc::clone(&cluster), &layout.tables());
            load_suspended(&target, &layout);

            // Snapshot meters after load so per-commit rates cover the
            // run only (warmup included — rates, not absolutes).
            let sh = cluster.shared();
            let fsync0: u64 = (0..nodes)
                .map(|i| cluster.node(i).wal.stream().sync_count())
                .sum();
            let batched0 = sh.fabric.stats().batched_ops.get();
            let atomics0 = sh.fabric.stats().atomics.get();

            let result = run_workload(&target, &layout, point_config(Some(2)));
            let all = (result.committed + result.aborted).max(1) as f64;
            let fsyncs: u64 = (0..nodes)
                .map(|i| cluster.node(i).wal.stream().sync_count())
                .sum::<u64>()
                - fsync0;
            let batched = sh.fabric.stats().batched_ops.get() - batched0;
            let atomics = sh.fabric.stats().atomics.get() - atomics0;
            println!(
                "{label} | tps={:>6.0} committed={} | fsyncs/txn={:.2} batched_ops/txn={:.2} atomics/txn={:.2}",
                result.tps(),
                result.committed,
                fsyncs as f64 / all,
                batched as f64 / all,
                atomics as f64 / all,
            );
            cluster.shutdown();
        }
    }

    /// PMFS replication probe (EXPERIMENTS.md §PMFS replication): commit
    /// latency with fusion-server writes fanned to 1/2/3 replicas, the time
    /// to resync a crashed PMFS replica back to UP, and node-crash recovery
    /// time while a replica is down (recovery re-seats TIT/PLock/TSO/DBP
    /// state through the surviving replicas).
    #[test]
    #[ignore] // probe: replication write overhead + crash-recovery time
    fn pmfs_crash_recovery_probe() {
        const COMMITS: u64 = 300;
        const DEGRADED: u64 = 50;

        let mut report = Report::new(
            "pmfs_replication",
            "PMFS replication: write overhead and recovery (latency scale 1)",
        );
        let mut base_mean_us = 0.0;
        for (replicas, quorum) in [(1usize, 1usize), (2, 1), (3, 2)] {
            let mut config = ClusterConfig::bench(2, 1.0);
            config.replicas = replicas;
            config.repl_quorum = quorum;
            let cluster = Cluster::builder().config(config).build();
            let t = cluster.create_table("t", 1, &[]).unwrap();
            let e0 = cluster.node(0);

            // Write-latency overhead: every PMFS verb in the commit path
            // (CTS fetch, TIT publish, lock fan-out) now writes R replicas.
            let mut lat_us: Vec<u64> = Vec::with_capacity(COMMITS as usize);
            for k in 0..COMMITS {
                let start = std::time::Instant::now();
                commit_one_key(&e0, t, k);
                lat_us.push(start.elapsed().as_micros() as u64);
            }
            lat_us.sort_unstable();
            let mean_us = lat_us.iter().sum::<u64>() as f64 / lat_us.len() as f64;
            if replicas == 1 {
                base_mean_us = mean_us;
            }
            let overhead = if base_mean_us > 0.0 {
                format!("{:+5.1}%", (mean_us / base_mean_us - 1.0) * 100.0)
            } else {
                "    -".into()
            };

            // PMFS-replica crash: commit through the degraded group, then
            // time the JOINING→UP resync (copy-back by max version tag).
            let victim = replicas - 1;
            let mut committed = COMMITS;
            let replica_resync = if replicas > 1 {
                assert!(cluster.crash_pmfs_replica(victim), "replica must die");
                for k in COMMITS..COMMITS + DEGRADED {
                    commit_one_key(&e0, t, k);
                }
                committed += DEGRADED;
                let start = std::time::Instant::now();
                assert!(cluster.recover_pmfs_replica(victim));
                format!("{:>8.2?}", start.elapsed())
            } else {
                "     n/a".into()
            };

            // Node crash with one replica down (where the group allows it):
            // ARIES replay plus re-seating TIT/PLock/TSO through survivors.
            if replicas > 2 {
                assert!(cluster.crash_pmfs_replica(victim));
            }
            cluster.crash_node(0);
            let start = std::time::Instant::now();
            let rec = cluster.recover_node(0).expect("node recovery");
            let node_recovery = start.elapsed();
            if replicas > 2 {
                assert!(cluster.recover_pmfs_replica(victim));
            }

            let snap = cluster.stats();
            report.line(format!(
                "replicas={replicas} quorum={quorum} | commit mean={mean_us:>6.0}us \
                 p50={}us p99={}us ({overhead} vs R=1) | replica resync: {replica_resync} \
                 | node recovery{}: {:>8.2?} (scanned={} applied={}) \
                 | repl writes/commit={:.1}",
                lat_us[lat_us.len() / 2],
                lat_us[lat_us.len() * 99 / 100],
                if replicas > 2 {
                    " (1 replica down)"
                } else {
                    ""
                },
                node_recovery,
                rec.records_scanned,
                rec.page_records_applied,
                snap.repl.replicated_writes as f64 / committed as f64,
            ));
            cluster.shutdown();
        }
        report.save();
    }
}
