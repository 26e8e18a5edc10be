//! Cross-region disaster recovery with a standby cluster (§3).
//!
//! A two-primary cluster ships its write-ahead logs to a standby region.
//! The standby serves committed-only reads while replicating; when the
//! primary region is lost entirely, the standby is promoted: in-doubt
//! transactions are rolled back from the shipped undo, and a brand-new
//! primary boots on the standby's page set.
//!
//! Run with: `cargo run --example standby_dr`

use std::sync::Arc;

use polardb_mp::common::{ClusterConfig, NodeId};
use polardb_mp::core_api::RowValue;
use polardb_mp::engine::standby::Standby;
use polardb_mp::engine::NodeEngine;
use polardb_mp::Cluster;

fn v(x: u64) -> RowValue {
    RowValue::new(vec![x])
}

fn main() -> polardb_mp::common::Result<()> {
    // Primary region: two primaries.
    let primary = Cluster::builder().config(ClusterConfig::test(2)).build();
    let trades = primary.create_table("trades", 1, &[])?;

    // Attach the standby region (log shipping starts from here).
    let standby = Standby::attach(primary.shared(), &[NodeId(0), NodeId(1)]);

    // Both primaries take writes.
    for round in 0..5u64 {
        for node in 0..2 {
            primary.session(node).with_txn(|txn| {
                for k in 0..20 {
                    let key = round * 100 + node as u64 * 50 + k;
                    txn.insert(trades, key, v(key))?;
                }
                Ok(())
            })?;
        }
        // Ship the durable log and let the standby replay it.
        for node in 0..2 {
            let engine = primary.node(node);
            engine.wal.force(engine.wal.stream().end_lsn(), &mut None)?;
        }
        let applied = standby.catch_up()?;
        println!("round {round}: standby applied {applied} log records");
    }

    // The standby answers committed reads without touching the primaries.
    let meta = primary.shared().catalog.get(trades)?;
    assert_eq!(standby.read(&meta, 101)?, Some(v(101)));
    println!("standby read trades[101] = 101 ✓");

    // Disaster: the primary region is lost with a transaction in flight.
    let mut doomed = primary.session(0).begin()?;
    doomed.update(trades, 101, v(999_999))?;
    primary
        .node(0)
        .wal
        .force(primary.node(0).wal.stream().end_lsn(), &mut None)?;
    std::mem::forget(doomed);
    standby.catch_up()?;
    primary.crash_node(0);
    primary.crash_node(1);
    println!("primary region lost; promoting the standby ...");

    // Promotion: fresh region (new PMFS + storage), in-doubt rolled back.
    let region2 = standby.promote(ClusterConfig::test(1))?;
    let node = NodeEngine::start(Arc::clone(&region2), NodeId(0));

    let mut txn = node.begin()?;
    assert_eq!(
        txn.get(trades, 101)?,
        Some(v(101)),
        "in-doubt update must not survive promotion"
    );
    let all = txn.scan(trades, 0, 10_000)?;
    println!("promoted region serves {} committed trades", all.len());
    assert_eq!(all.len(), 200);

    // And it takes new writes immediately.
    txn.insert(trades, 10_000, v(42))?;
    txn.commit()?;
    println!("promoted region accepted new writes — failover complete ✓");
    Ok(())
}
