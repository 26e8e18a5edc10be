//! The four workloads: layout, mix, sizes and cluster configuration.

use pmp_common::{ClusterConfig, CompressionConfig, LatencyConfig, StorageLatencyConfig};

use crate::gen::{Layout, Mix};

/// Primary nodes, and closed-loop clients (client `i` is bound to node `i`).
pub const NODES: usize = 2;

#[derive(Clone, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub mix: Mix,
    /// Percentage of selects and updates aimed at the shared table group
    /// (delete + insert always stay in the client's own group).
    pub shared_pct: u64,
    pub layout: Layout,
    pub columns: usize,
    /// Drive `AsyncSession` futures instead of blocking `Session` calls.
    pub async_clients: bool,
    /// Crash and recover node 1 after the window.
    pub crash_recover: bool,
    pub config: ClusterConfig,
}

/// The latency profile of every workload: the realistic fabric and storage
/// hierarchy at scale 1, minus the fixed per-statement charge — the repo has
/// no SQL layer, so what a statement costs is the engine's real CPU time.
fn scale_one_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::bench(NODES, 1.0);
    cfg.latency = LatencyConfig {
        sql_stmt_ns: 0,
        ..LatencyConfig::realistic()
    };
    cfg.storage_latency = StorageLatencyConfig::realistic();
    cfg
}

fn rw_shared(name: &'static str, async_clients: bool) -> WorkloadDef {
    let mut config = scale_one_config();
    config.replicas = 3;
    config.repl_quorum = 2;
    // The background flusher is parked (first tick at start-up, the next an
    // hour later): its DBP push is not made under the page's PLock, and the
    // engine loses acked writes when a peer takes the page between that
    // push's directory update and its invalidation write (README.md, "What
    // the benchmark found"). Dirty pages are pushed when their PLock is
    // handed to the other node, which is under the lock. Everything fits the
    // LBP, so the flusher's eviction pass has nothing to do here.
    config.engine.flush_interval_ms = 3_600_000;
    WorkloadDef {
        name,
        mix: Mix::ReadWrite,
        shared_pct: 50,
        layout: Layout {
            nodes: NODES,
            shared_group: true,
            tables_per_group: 4,
            rows_per_table: 28_000,
        },
        columns: 4,
        async_clients,
        crash_recover: false,
        config,
    }
}

/// Look a workload up by its `BENCHMARK.json` name.
pub fn by_name(name: &str) -> Option<WorkloadDef> {
    match name {
        "rw_shared" => Some(rw_shared("rw_shared", false)),
        "rw_shared_async" => Some(rw_shared("rw_shared_async", true)),
        "ro_local" => Some(WorkloadDef {
            name: "ro_local",
            mix: Mix::ReadOnly,
            shared_pct: 0,
            layout: Layout {
                nodes: NODES,
                shared_group: false,
                tables_per_group: 4,
                rows_per_table: 42_000,
            },
            columns: 4,
            async_clients: false,
            crash_recover: false,
            config: scale_one_config(),
        }),
        "wo_cold" => {
            let mut config = scale_one_config();
            config.compression = CompressionConfig::lz4();
            // The DBP is shrunk to a seventh of the data; the LBP is left able
            // to hold a node's tables, because with both pools small the
            // engine loses acked writes (README.md, "What the benchmark
            // found"). DBP eviction invalidates the LBP's frames, so the
            // statements still reload their leaves from storage.
            config.dbp_capacity = 1_024;
            Some(WorkloadDef {
                name: "wo_cold",
                mix: Mix::WriteOnly,
                shared_pct: 0,
                layout: Layout {
                    nodes: NODES,
                    shared_group: false,
                    tables_per_group: 4,
                    rows_per_table: 28_000,
                },
                columns: 8,
                async_clients: false,
                crash_recover: true,
                config,
            })
        }
        _ => None,
    }
}
