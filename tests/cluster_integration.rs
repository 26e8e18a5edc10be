//! Workspace-level integration tests: the full public API exercised the way
//! a downstream application would, across crates (core + engine + pmfs +
//! storage + workloads).

use std::sync::Arc;
use std::time::Duration;

use polardb_mp::common::{ClusterConfig, PmpError};
use polardb_mp::core_api::RowValue;
use polardb_mp::Cluster;

fn v(cols: &[u64]) -> RowValue {
    RowValue::new(cols.to_vec())
}

#[test]
fn four_nodes_interleave_reads_and_writes() {
    let cluster = Cluster::builder().config(ClusterConfig::test(4)).build();
    let t = cluster.create_table("t", 2, &[]).unwrap();

    // Each node inserts its own stripe …
    for node in 0..4u64 {
        cluster
            .session(node as usize)
            .with_txn(|txn| {
                for k in 0..50 {
                    txn.insert(t, node * 100 + k, v(&[node, k]))?;
                }
                Ok(())
            })
            .unwrap();
    }
    // … and every node sees every stripe.
    for reader in 0..4 {
        let rows = cluster
            .session(reader)
            .with_txn(|txn| txn.scan(t, 0, 1000))
            .unwrap();
        assert_eq!(rows.len(), 200, "reader {reader}");
    }
    // Cross-node updates land regardless of writer.
    for node in 0..4u64 {
        let other = ((node + 1) % 4) as usize;
        cluster
            .session(other)
            .with_txn(|txn| txn.update(t, node * 100, v(&[99, node])))
            .unwrap();
    }
    let rows = cluster
        .session(0)
        .with_txn(|txn| txn.scan(t, 0, 1000))
        .unwrap();
    assert_eq!(rows.iter().filter(|(_, val)| val.col(0) == 99).count(), 4);
}

#[test]
fn read_committed_sees_fresh_commits_between_statements() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    cluster.session(0).insert(t, 1, v(&[0])).unwrap();

    let s1 = cluster.session(1);
    let mut reader = s1.begin().unwrap();
    assert_eq!(reader.get(t, 1).unwrap(), Some(v(&[0])));

    // A commit lands on the other node between the reader's statements.
    cluster.session(0).update(t, 1, v(&[7])).unwrap();

    // Read committed: the next statement takes a fresh snapshot.
    assert_eq!(reader.get(t, 1).unwrap(), Some(v(&[7])));
    reader.commit().unwrap();
}

#[test]
fn snapshot_isolation_pins_the_begin_snapshot() {
    let mut config = ClusterConfig::test(2);
    config.engine.read_committed = false; // snapshot isolation
    let cluster = Cluster::builder().config(config).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    cluster.session(0).insert(t, 1, v(&[0])).unwrap();

    let s1 = cluster.session(1);
    let mut reader = s1.begin().unwrap();
    assert_eq!(reader.get(t, 1).unwrap(), Some(v(&[0])));

    cluster.session(0).update(t, 1, v(&[7])).unwrap();

    // Snapshot isolation: still the begin-time version.
    assert_eq!(reader.get(t, 1).unwrap(), Some(v(&[0])));
    reader.commit().unwrap();

    let mut fresh = s1.begin().unwrap();
    assert_eq!(fresh.get(t, 1).unwrap(), Some(v(&[7])));
    fresh.commit().unwrap();
}

#[test]
fn select_for_update_serializes_read_modify_write() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("counter", 1, &[]).unwrap();
    cluster.session(0).insert(t, 1, v(&[0])).unwrap();

    let mut handles = Vec::new();
    for node in 0..2 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let session = cluster.session(node);
            for _ in 0..100 {
                session
                    .with_txn_retry(32, |txn| {
                        let cur = txn.get_for_update(t, 1)?.expect("row exists").col(0);
                        txn.update(t, 1, RowValue::new(vec![cur + 1]))
                    })
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let final_value = cluster.session(0).get(t, 1).unwrap().unwrap().col(0);
    assert_eq!(final_value, 200, "no increment may be lost");
}

#[test]
fn gsi_stays_consistent_under_concurrent_mutation() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    // Columns [bucket, payload]; GSI on bucket.
    let t = cluster.create_table("items", 2, &[0]).unwrap();

    let mut handles = Vec::new();
    for node in 0..2u64 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let session = cluster.session(node as usize);
            for i in 0..200 {
                let key = node * 1000 + i;
                session
                    .with_txn(|txn| txn.insert(t, key, RowValue::new(vec![key % 10, i])))
                    .unwrap();
                if i % 3 == 0 {
                    // Move between buckets.
                    session
                        .with_txn(|txn| txn.update(t, key, RowValue::new(vec![(key + 1) % 10, i])))
                        .unwrap();
                }
                if i % 7 == 0 {
                    session.with_txn(|txn| txn.delete(t, key)).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every bucket's GSI result must equal a scan-side filter.
    let mut txn = cluster.session(0).begin().unwrap();
    let all = txn.scan(t, 0, 10_000).unwrap();
    for bucket in 0..10u64 {
        let mut via_index = txn.index_lookup(t, 0, bucket, 10_000).unwrap();
        via_index.sort_unstable();
        let mut via_scan: Vec<u64> = all
            .iter()
            .filter(|(_, val)| val.col(0) == bucket)
            .map(|(k, _)| *k)
            .collect();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan, "bucket {bucket}");
    }
    txn.commit().unwrap();
}

#[test]
fn crash_during_contended_writes_recovers_consistently() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    cluster
        .session(0)
        .with_txn(|txn| {
            for k in 0..100 {
                txn.insert(t, k, v(&[1]))?;
            }
            Ok(())
        })
        .unwrap();

    // Both nodes hammer the same rows; node 0 dies mid-flight.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for node in 0..2 {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let session = cluster.session(node);
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let _ = session.with_txn(|txn| txn.update(t, i % 100, v(&[i])));
                i += 1;
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(200));
    cluster.crash_node(0);
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }

    let stats = cluster.recover_node(0).unwrap();
    let _ = stats;

    // All 100 rows present with *some* committed value, on both nodes.
    for node in 0..2 {
        let rows = cluster
            .session(node)
            .with_txn(|txn| txn.scan(t, 0, 1000))
            .unwrap();
        assert_eq!(rows.len(), 100, "node {node} sees all rows post-recovery");
    }
}

#[test]
fn dbp_loss_is_transparent_to_applications() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    cluster
        .session(0)
        .with_txn(|txn| {
            for k in 0..50 {
                txn.insert(t, k, v(&[k]))?;
            }
            Ok(())
        })
        .unwrap();
    // Flush so the DBP (and storage via log durability) hold the state.
    cluster.node(0).flush_tick();

    // The disaggregated memory fails: all cached pages vanish, every LBP
    // copy is invalidated. Pages that lived only in the DBP must be
    // rebuilt from redo (§4.2) before storage fallback is trustworthy.
    cluster.shared().pmfs.buffer.clear();
    use polardb_mp::common::NodeId;
    use polardb_mp::engine::recovery::recover_dbp;
    let stats = recover_dbp(cluster.shared(), &[NodeId(0), NodeId(1)]).unwrap();
    assert!(
        stats.page_records_applied > 0,
        "DBP-only pages must be rebuilt"
    );

    // Reads now fall back to (rebuilt) shared storage on both nodes.
    for node in 0..2 {
        for k in 0..50 {
            let row = cluster.session(node).get(t, k).unwrap();
            assert_eq!(row, Some(v(&[k])), "node {node} key {k}");
        }
    }
    // Writes keep working too.
    cluster.session(1).update(t, 7, v(&[700])).unwrap();
    assert_eq!(cluster.session(0).get(t, 7).unwrap(), Some(v(&[700])));
}

#[test]
fn lock_wait_timeout_surfaces_and_rolls_back() {
    let mut config = ClusterConfig::test(2);
    config.engine.lock_wait_timeout_ms = 100;
    let cluster = Cluster::builder().config(config).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    cluster.session(0).insert(t, 1, v(&[0])).unwrap();

    // Holder keeps the row locked past the victim's timeout.
    let mut holder = cluster.session(0).begin().unwrap();
    holder.update(t, 1, v(&[1])).unwrap();

    let err = cluster
        .session(1)
        .with_txn(|txn| {
            txn.insert(t, 2, v(&[2]))?; // some prior work to roll back
            txn.update(t, 1, v(&[2]))
        })
        .unwrap_err();
    assert_eq!(err, PmpError::LockWaitTimeout);

    holder.commit().unwrap();
    // The victim's prior work was rolled back with it.
    assert_eq!(cluster.session(0).get(t, 2).unwrap(), None);
    assert_eq!(cluster.session(0).get(t, 1).unwrap(), Some(v(&[1])));
}

#[test]
fn workload_driver_runs_against_real_cluster() {
    use polardb_mp::workloads::driver::{load_workload, run_workload, DriverConfig};
    use polardb_mp::workloads::spec::Workload;
    use polardb_mp::workloads::sysbench::{Sysbench, SysbenchMode};
    use polardb_mp::workloads::targets::PmpTarget;

    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let workload = Sysbench::new(SysbenchMode::ReadWrite, 2, 1, 200, 30);
    let target = PmpTarget::new(Arc::clone(&cluster), &workload.tables());
    load_workload(&target, &workload);
    let result = run_workload(
        &target,
        &workload,
        DriverConfig {
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(50),
            workers_per_node: 2,
            ..DriverConfig::default()
        },
    );
    assert!(result.committed > 0);
    assert!(result.tps() > 0.0);
}

#[test]
fn gsi_range_lookup_matches_scan_filter() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("t", 2, &[0]).unwrap();
    for k in 0..300u64 {
        cluster
            .session((k % 2) as usize)
            .with_txn(|txn| txn.insert(t, k, v(&[k % 50, k])))
            .unwrap();
    }
    let mut txn = cluster.session(0).begin().unwrap();
    let mut via_index = txn.index_range_lookup(t, 0, 10, 19, 10_000).unwrap();
    via_index.sort_unstable();
    let all = txn.scan(t, 0, 10_000).unwrap();
    let mut via_scan: Vec<(u64, u64)> = all
        .iter()
        .filter(|(_, val)| (10..=19).contains(&val.col(0)))
        .map(|(k, val)| (val.col(0), *k))
        .collect();
    via_scan.sort_unstable();
    assert_eq!(via_index, via_scan);
    // Limit respected.
    assert_eq!(txn.index_range_lookup(t, 0, 0, 49, 7).unwrap().len(), 7);
    // Empty range.
    assert!(txn.index_range_lookup(t, 0, 60, 99, 10).unwrap().is_empty());
    txn.commit().unwrap();
}

#[test]
fn zipf_skewed_sysbench_runs_hot_but_correct() {
    use polardb_mp::workloads::driver::{load_workload, run_workload, DriverConfig};
    use polardb_mp::workloads::spec::Workload;
    use polardb_mp::workloads::sysbench::{Sysbench, SysbenchMode};
    use polardb_mp::workloads::targets::PmpTarget;

    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    // 100% shared + Zipf(1.1): the worst-case hot-key regime.
    let workload = Sysbench::new(SysbenchMode::WriteOnly, 2, 1, 500, 100).with_zipf(1.1);
    let target = PmpTarget::new(Arc::clone(&cluster), &workload.tables());
    load_workload(&target, &workload);
    let result = run_workload(
        &target,
        &workload,
        DriverConfig {
            duration: Duration::from_millis(300),
            warmup: Duration::from_millis(50),
            workers_per_node: 2,
            ..DriverConfig::default()
        },
    );
    assert!(result.committed > 0, "hot-key contention must still commit");
    // Deadlocks/timeouts under skew are legal; internal failures are not.
    // (A Failed outcome would have stopped the workers early and shown as
    // near-zero commits.)
    assert!(result.tps() > 0.0);
    // Row-lock waits should actually have happened under Zipf(1.1) + 100%
    // sharing — otherwise the knob isn't biting.
    let waits: u64 = (0..2).map(|i| cluster.node(i).stats.lock_waits.get()).sum();
    let _ = waits; // informational: skew level is probabilistic per run
}

#[test]
fn multi_get_matches_individual_gets_and_shares_a_snapshot() {
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    for k in 0..100 {
        cluster.session(0).insert(t, k, v(&[k * 3])).unwrap();
    }
    let mut txn = cluster.session(1).begin().unwrap();
    let keys = [5u64, 99, 7, 400, 0, 7]; // unordered, duplicate, missing
    let batch = txn.multi_get(t, &keys).unwrap();
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(batch[i], txn.get(t, k).unwrap(), "key {k}");
    }
    assert_eq!(batch[3], None, "missing key");
    assert_eq!(batch[2], batch[5], "duplicate keys agree");

    // Snapshot consistency: a concurrent commit between multi_get calls is
    // invisible within one statement (all keys read at one snapshot).
    let mut config = ClusterConfig::test(2);
    config.engine.read_committed = false;
    let cluster = Cluster::builder().config(config).build();
    let t = cluster.create_table("t", 1, &[]).unwrap();
    cluster.session(0).insert(t, 1, v(&[1])).unwrap();
    cluster.session(0).insert(t, 2, v(&[1])).unwrap();
    let mut pinned = cluster.session(1).begin().unwrap();
    let _ = pinned.get(t, 1).unwrap(); // pin SI snapshot
    cluster.session(0).update(t, 2, v(&[999])).unwrap();
    let batch = pinned.multi_get(t, &[1, 2]).unwrap();
    assert_eq!(
        batch[1],
        Some(v(&[1])),
        "pinned snapshot must not see the rewrite"
    );
    pinned.commit().unwrap();
}

/// Regression for the split-page push race: freshly split children live
/// only in the DBP until first eviction, and eviction used to remove the
/// directory entry *before* its write-back landed — so a concurrent loader
/// found the page in neither the DBP nor storage and its transaction died
/// with `Internal: page-N missing from shared storage`. With a tiny DBP
/// (per-shard capacity 1, constant eviction churn) and four concurrent
/// committers at full latency scale, no such abort may occur: write-back
/// now completes before the entry is removed.
#[test]
fn split_children_survive_dbp_eviction_churn() {
    let mut config = ClusterConfig::bench(4, 1.0);
    config.dbp_capacity = 64; // per-shard capacity 1: every push evicts
    config.engine.lbp_capacity = 64; // constant refresh traffic too
    let cluster = Arc::new(Cluster::builder().config(config).build());
    let t = cluster.create_table("t", 1, &[]).unwrap();

    let workers: Vec<_> = (0..4usize)
        .map(|n| {
            let c = Arc::clone(&cluster);
            std::thread::spawn(move || {
                // Disjoint key stripes: plenty of leaf splits, no row
                // conflicts — any Internal error is the eviction race.
                for k in 0..300u64 {
                    let key = (n as u64) * 10_000 + k;
                    let mut attempts = 0;
                    loop {
                        match c.session(n).insert(t, key, v(&[key])) {
                            Ok(()) => break,
                            Err(PmpError::Internal { detail }) => {
                                panic!("internal abort during split churn: {detail}");
                            }
                            Err(_) if attempts < 100 => attempts += 1,
                            Err(e) => panic!("persistent non-internal error: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Every stripe is fully readable from every node.
    for reader in 0..4 {
        let rows = cluster
            .session(reader)
            .with_txn(|txn| txn.scan(t, 0, 100_000))
            .unwrap();
        assert_eq!(rows.len(), 1200, "reader {reader}");
    }
}

/// DBP write-backs are asynchronous and belong to PMFS: a node that crashes
/// while its evictions are queued or in flight on the write-back ring loses
/// none of them, and recovery plus the surviving node see every acked write.
/// Two writers keep a one-entry-per-shard DBP evicting (compressed pages, so
/// the ring worker also runs the codec) while node 1 crashes and recovers.
#[test]
fn acked_writes_survive_a_crash_with_write_backs_in_flight() {
    use polardb_mp::common::CompressionConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    const KEYS: u64 = 1_500;
    let mut config = ClusterConfig::bench(2, 1.0);
    config.dbp_capacity = 64; // one entry per shard: every reload evicts
    config.compression = CompressionConfig::lz4();
    let cluster = Arc::new(Cluster::builder().config(config).build());
    let t = cluster.create_table("t", 4, &[]).unwrap();
    let stripe = |node: usize| node as u64 * 100_000;
    for node in 0..2 {
        let session = cluster.session(node);
        for base in (0..KEYS).step_by(250) {
            session
                .with_txn(|txn| {
                    for k in base..base + 250 {
                        txn.insert(t, stripe(node) + k, v(&[k, 0, k % 16, k % 16]))?;
                    }
                    Ok(())
                })
                .unwrap();
        }
    }

    // Each writer updates its own stripe and keeps, per key, the stamp of
    // its last acked update (`None` once an update ended in an error whose
    // outcome it cannot know: the crash may have cut it either way).
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2usize)
        .map(|node| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut acked: Vec<Option<u64>> = vec![Some(0); KEYS as usize];
                let mut session = cluster.session(node);
                let mut stamp = 0u64;
                while !stop.load(Ordering::Acquire) {
                    stamp += 1;
                    // A stride through the stripe touches a different leaf
                    // every time, so nearly every update reloads a page.
                    let k = (stamp * 67) % KEYS;
                    match session.update(t, stripe(node) + k, v(&[k, stamp, k % 16, k % 16])) {
                        Ok(()) => acked[k as usize] = Some(stamp),
                        Err(PmpError::NodeUnavailable { .. }) => {
                            acked[k as usize] = None;
                            if !cluster.node(node).is_alive() {
                                // Wait out the crash; sessions bind to an
                                // engine, so take a fresh one afterwards.
                                std::thread::sleep(Duration::from_millis(1));
                                session = cluster.session(node);
                            }
                        }
                        Err(e) if e.is_retryable() => acked[k as usize] = None,
                        Err(e) => panic!("writer {node}: {e}"),
                    }
                }
                acked
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(400));
    let before = cluster.stats().buffer_fusion;
    assert!(
        before.writebacks_submitted > 0 && before.evictions > 0,
        "the writers must keep the DBP evicting: {before:?}"
    );
    cluster.crash_node(1);
    cluster.recover_node(1).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);
    let acked: Vec<Vec<Option<u64>>> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    let after = cluster.stats().buffer_fusion;
    assert_eq!(
        after.writeback_io.cancelled, 0,
        "a node crash must not cancel PMFS-side write-backs"
    );
    // Every acked write is readable from the *other* node.
    for (writer, acked) in acked.iter().enumerate() {
        let reader = cluster.session(1 - writer);
        let rows = reader.scan(t, stripe(writer), KEYS as usize).unwrap();
        assert_eq!(rows.len(), KEYS as usize, "writer {writer}'s stripe");
        for (key, row) in rows {
            let k = key - stripe(writer);
            if let Some(stamp) = acked[k as usize] {
                assert_eq!(
                    row.col(1),
                    stamp,
                    "writer {writer} key {k}: acked stamp lost (read from node {})",
                    1 - writer
                );
            }
        }
    }
}
