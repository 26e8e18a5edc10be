//! The redo log ends: what a two-node cluster keeps in memory across
//! storage checkpoints.
//!
//! Bulk-load two private tables and one shared one, take the cluster-wide
//! storage checkpoint, commit `--commits` more transactions per node, take
//! it again — and print, at each point, every node's redo stream: where it
//! starts, what it retains (end − start), how much of that is dead
//! reservation padding, and what the DBP still holds dirty. Then node 1
//! crashes with a tail of commits past the last checkpoint and recovers
//! from the cut log.
//!
//! ```text
//! cargo run --release -p pmp-engine --example log_retention -- --commits 2000
//! ```
//!
//! Exits 1 unless every node retains less than one log segment after each
//! checkpoint, the recovery scans only the tail, and every row reads back.

use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;

use pmp_common::{ClusterConfig, NodeId, Result, TableId};
use pmp_engine::recovery::recover_node;
use pmp_engine::{NodeEngine, RowValue, Shared};
use pmp_storage::SEGMENT_BYTES;

const NODES: usize = 2;
const ROWS_PER_TABLE: u64 = 20_000;
const LOAD_BATCH: u64 = 200;
/// Commits node 1 makes past the last checkpoint before it crashes.
const CRASH_TAIL: u64 = 200;

fn row(k: u64, round: u64) -> RowValue {
    RowValue::new(vec![k, round, k ^ round, 0])
}

/// One single-row update, retried over the transient aborts a loaded
/// engine can return.
fn update(engine: &Arc<NodeEngine>, t: TableId, k: u64, round: u64) -> Result<()> {
    let mut last = Ok(());
    for _ in 0..100 {
        last = engine.begin().and_then(|mut txn| {
            txn.update(t, k, row(k, round))?;
            txn.commit().map(|_| ())
        });
        if last.is_ok() {
            break;
        }
    }
    last
}

/// Print every stream; returns whether all retain less than one segment.
fn report(label: &str, shared: &Shared, engines: &[Arc<NodeEngine>]) -> bool {
    let mut bounded = true;
    for engine in engines {
        let stream = engine.wal.stream();
        let r = stream.retention();
        println!(
            "{label:<22} node {}: start_lsn={:>10} end_lsn={:>10} retained_bytes={:>10} dead_bytes={:>10}",
            engine.node.0,
            r.start.0,
            stream.end_lsn().0,
            r.retained_bytes,
            r.dead_bytes,
        );
        bounded &= r.retained_bytes < SEGMENT_BYTES as u64;
    }
    let b = &shared.pmfs.buffer;
    println!(
        "{label:<22} dbp: entries={} dirty={} checkpoint_writebacks={}",
        b.page_count(),
        b.dirty_count(),
        b.stats().checkpoint_writebacks.get(),
    );
    bounded
}

fn run(commits: u64) -> Result<bool> {
    let shared = Shared::new(ClusterConfig::bench(NODES, 1.0));
    let engines: Vec<_> = (0..NODES)
        .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i as u16)))
        .collect();
    let tables: Vec<TableId> = (0..=NODES)
        .map(|i| Ok(shared.create_table(&format!("t{i}"), 4, &[])?.id))
        .collect::<Result<_>>()?;
    let shared_table = tables[NODES];

    // Load with latency injection off, as the benchmark's set-up does:
    // table i by node i, the shared table half by each.
    pmp_rdma::set_latency_enabled(false);
    for (i, engine) in engines.iter().enumerate() {
        let half = ROWS_PER_TABLE / NODES as u64;
        let parts = [
            (tables[i], 0, ROWS_PER_TABLE),
            (shared_table, i as u64 * half, (i as u64 + 1) * half),
        ];
        for (t, from, to) in parts {
            for batch in (from..to).step_by(LOAD_BATCH as usize) {
                let mut txn = engine.begin()?;
                for k in batch..(batch + LOAD_BATCH).min(to) {
                    txn.insert(t, k, row(k, 0))?;
                }
                txn.commit()?;
            }
        }
    }
    let mut ok = true;
    report("loaded", &shared, &engines);
    shared.storage_checkpoint(&engines);
    ok &= report("after checkpoint 1", &shared, &engines);

    for (i, engine) in engines.iter().enumerate() {
        for n in 0..commits {
            let k = (n * 7919) % ROWS_PER_TABLE;
            let t = if n % 4 == 0 { shared_table } else { tables[i] };
            update(engine, t, k, 1)?;
        }
    }
    report(&format!("+{commits} commits/node"), &shared, &engines);
    shared.storage_checkpoint(&engines);
    ok &= report("after checkpoint 2", &shared, &engines);

    // Node 1 commits a tail past the checkpoint and crashes; it recovers
    // from a log that begins at the checkpoint.
    for k in 0..CRASH_TAIL {
        update(&engines[1], tables[1], k, 2)?;
    }
    pmp_rdma::set_latency_enabled(true);
    engines[1].crash();
    let (recovered, stats) = recover_node(&shared, NodeId(1))?;
    println!(
        "recovery of node 1: records_scanned={} pages_from_dbp={} pages_from_storage={} rolled_back={}",
        stats.records_scanned, stats.pages_from_dbp, stats.pages_from_storage, stats.rolled_back
    );
    // An update logs its undo write, its row change and its commit.
    if stats.records_scanned > 4 * CRASH_TAIL {
        println!("FAIL: recovery scanned more than the tail");
        ok = false;
    }
    let updated: HashSet<u64> = (0..commits)
        .filter(|n| n % 4 != 0)
        .map(|n| (n * 7919) % ROWS_PER_TABLE)
        .collect();
    let mut check = recovered.begin()?;
    for k in 0..ROWS_PER_TABLE {
        let round = match k {
            k if k < CRASH_TAIL => 2,
            k if updated.contains(&k) => 1,
            _ => 0,
        };
        if check.get(tables[1], k)? != Some(row(k, round)) {
            println!("FAIL: key {k} of node 1's table is wrong after recovery");
            ok = false;
            break;
        }
    }
    check.commit()?;
    Ok(ok)
}

fn main() -> ExitCode {
    let mut commits = 2_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--commits", Some(n)) => commits = n,
            _ => {
                eprintln!("usage: log_retention [--commits N]");
                return ExitCode::from(2);
            }
        }
    }
    match run(commits) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("FAIL: a stream retains a segment or more after a checkpoint, or recovery failed its checks");
            ExitCode::FAILURE
        }
        Err(e) => {
            println!("FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
