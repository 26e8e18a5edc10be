//! Failure-injection tests: crashes with mixed transaction outcomes,
//! repeated recovery, storage outages, frozen locks, and resource
//! exhaustion.

use std::sync::Arc;
use std::time::Duration;

use pmp_common::{ClusterConfig, GlobalTrxId, NodeId, PmpError};
use pmp_engine::recovery::{recover_cluster, recover_node};
use pmp_engine::redo::{LogDecoder, RedoOp};
use pmp_engine::row::RowValue;
use pmp_engine::shared::Shared;
use pmp_engine::NodeEngine;

fn cluster_with(config: ClusterConfig) -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    let shared = Shared::new(config);
    let engines = (0..config.nodes)
        .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i as u16)))
        .collect();
    (shared, engines)
}

fn cluster(nodes: usize) -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    cluster_with(ClusterConfig::test(nodes))
}

fn v(x: u64) -> RowValue {
    RowValue::new(vec![x])
}

/// A cluster whose background flusher never fires, so the test decides
/// when (and whether) a node checkpoints.
fn cluster_with_parked_flusher(nodes: usize) -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    let mut config = ClusterConfig::test(nodes);
    config.engine.flush_interval_ms = 3_600_000;
    cluster_with(config)
}

/// Every transaction a durable `Rollback` record of `node`'s retained log
/// names.
fn rollback_markers(shared: &Shared, node: NodeId) -> Vec<GlobalTrxId> {
    let stream = shared.storage.redo_stream(node);
    let mut bytes = stream
        .read_gather(stream.start_lsn(), usize::MAX)
        .unwrap()
        .data;
    let mut named = Vec::new();
    LogDecoder::new(shared.config.compression)
        .drain(&mut bytes, &mut |rec| {
            if let RedoOp::Rollback { trx } = rec.op {
                named.push(trx);
            }
            Ok(())
        })
        .unwrap();
    named
}

/// The history of the "committed writer rolled back again" bug: `a` commits
/// a row, the node checkpoints, `b` updates the same row and rolls back —
/// its compensating `UpdateRow` restores `a`'s header — and the node
/// crashes. Returns `a`'s id and the table.
fn commit_checkpoint_rollback_crash(
    shared: &Arc<Shared>,
    engine: &Arc<NodeEngine>,
) -> (GlobalTrxId, pmp_common::TableId) {
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut a = engine.begin().unwrap();
    let a_id = a.gid;
    a.insert(t, 1, v(10)).unwrap();
    a.commit().unwrap();
    engine.flush_frame_all_for_test();
    assert!(
        engine.maybe_checkpoint().is_some(),
        "the node is quiesced: a's Commit is now below the scan start"
    );

    let mut b = engine.begin().unwrap();
    b.update(t, 1, v(99)).unwrap();
    b.rollback().unwrap();
    engine
        .wal
        .force(engine.wal.stream().end_lsn(), &mut None)
        .unwrap();
    engine.crash();
    (a_id, t)
}

/// Regression: recovery marked the trx in a row record's *header* as seen,
/// so `b`'s compensation made the committed `a` "seen, no outcome" — it was
/// counted in `rolled_back` and got a durable `Rollback` marker.
#[test]
fn committed_writer_below_the_scan_start_is_not_rolled_back_again() {
    let (shared, engines) = cluster_with_parked_flusher(1);
    let (a, t) = commit_checkpoint_rollback_crash(&shared, &engines[0]);

    let (recovered, stats) = recover_node(&shared, NodeId(0)).unwrap();
    assert_eq!(stats.rolled_back, 0, "nothing was in doubt");
    assert!(
        !rollback_markers(&shared, NodeId(0)).contains(&a),
        "no Rollback marker may name the committed transaction"
    );
    let mut check = recovered.begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(10)), "a's row is visible");
    check.commit().unwrap();
}

/// The same history through full-cluster recovery, with the log actually
/// cut at the checkpoint: `a`'s Commit record no longer exists anywhere.
#[test]
fn committed_writer_below_the_log_start_survives_cluster_recovery() {
    let (shared, engines) = cluster_with_parked_flusher(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut a = engines[0].begin().unwrap();
    a.insert(t, 1, v(10)).unwrap();
    a.commit().unwrap();
    shared.storage_checkpoint(&engines);
    assert!(engines[0].wal.stream().start_lsn().0 > 0, "the log is cut");

    let mut b = engines[0].begin().unwrap();
    b.update(t, 1, v(99)).unwrap();
    b.rollback().unwrap();
    engines[0]
        .wal
        .force(engines[0].wal.stream().end_lsn(), &mut None)
        .unwrap();
    engines[0].crash();
    shared.pmfs.buffer.clear();
    shared.undo.clear();
    shared.pmfs.plock.release_all(NodeId(0));
    shared.pmfs.txn.unregister_region(NodeId(0));

    let stats = recover_cluster(&shared, &[NodeId(0)]).unwrap();
    assert_eq!(stats.rolled_back, 0, "nothing was in doubt");
    let fresh = NodeEngine::start(Arc::clone(&shared), NodeId(0));
    let mut check = fresh.begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(10)));
    check.commit().unwrap();
}

/// Regression: a node's quiesced checkpoint is relative to the DBP it
/// pushed its pages to. When that DBP is lost, recovery must not start at
/// the checkpoint — the pages below it exist nowhere but in the log — but
/// at the last *storage* checkpoint (the start of the stream).
#[test]
fn dbp_relative_checkpoint_does_not_outlive_the_dbp() {
    let (shared, engines) = cluster_with_parked_flusher(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    // Before the storage checkpoint: recovery never needs to see these.
    let mut txn = engines[0].begin().unwrap();
    for k in 0..300 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    shared.storage_checkpoint(&engines);
    let stream = shared.storage.redo_stream(NodeId(0));
    let storage_checkpoint = stream.start_lsn();
    assert!(storage_checkpoint.0 > 0);

    // After it: pushed to the DBP, covered by a node-local checkpoint only.
    let mut txn = engines[0].begin().unwrap();
    for k in 300..1_000 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    engines[0].flush_frame_all_for_test();
    let hint = engines[0].maybe_checkpoint().expect("quiesced");
    assert!(hint > storage_checkpoint);
    assert_eq!(
        stream.start_lsn(),
        storage_checkpoint,
        "a hint frees nothing"
    );

    shared.pmfs.buffer.clear();
    engines[0].crash();
    let (recovered, stats) = recover_node(&shared, NodeId(0)).unwrap();
    assert!(
        stats.records_scanned >= 700,
        "the scan must cover the log since the storage checkpoint, scanned {}",
        stats.records_scanned
    );
    assert!(
        stats.records_scanned < 2 * 300 + 2 * 700,
        "and nothing below it, scanned {}",
        stats.records_scanned
    );
    let mut check = recovered.begin().unwrap();
    assert_eq!(check.scan(t, 0, 10_000).unwrap().len(), 1_000);
    for k in [0, 299, 300, 999] {
        assert_eq!(check.get(t, k).unwrap(), Some(v(k)), "key {k}");
    }
    check.commit().unwrap();
}

#[test]
fn crash_with_mixed_outcomes_recovers_exact_state() {
    let (shared, engines) = cluster(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;

    // Committed.
    let mut a = engines[0].begin().unwrap();
    a.insert(t, 1, v(10)).unwrap();
    a.insert(t, 2, v(20)).unwrap();
    a.commit().unwrap();

    // Explicitly rolled back before the crash.
    let mut b = engines[0].begin().unwrap();
    b.update(t, 1, v(99)).unwrap();
    b.insert(t, 3, v(30)).unwrap();
    b.rollback().unwrap();

    // Committed after the rollback.
    let mut c = engines[0].begin().unwrap();
    c.update(t, 2, v(21)).unwrap();
    c.commit().unwrap();

    // In flight at crash time, with durable footprint.
    let mut d = engines[0].begin().unwrap();
    d.update(t, 1, v(1000)).unwrap();
    d.insert(t, 4, v(40)).unwrap();
    engines[0].flush_tick();
    std::mem::forget(d);

    engines[0].crash();
    let (recovered, stats) = recover_node(&shared, NodeId(0)).unwrap();
    assert_eq!(
        stats.rolled_back, 1,
        "only d is in doubt (b self-rolled-back)"
    );

    let mut check = recovered.begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(10)));
    assert_eq!(check.get(t, 2).unwrap(), Some(v(21)));
    assert_eq!(check.get(t, 3).unwrap(), None);
    assert_eq!(check.get(t, 4).unwrap(), None);
    check.commit().unwrap();
}

#[test]
fn recovery_is_repeatable_after_back_to_back_crashes() {
    let (shared, engines) = cluster(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut txn = engines[0].begin().unwrap();
    for k in 0..300 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();

    let mut doomed = engines[0].begin().unwrap();
    doomed.update(t, 7, v(777)).unwrap();
    engines[0].flush_tick();
    std::mem::forget(doomed);
    engines[0].crash();

    // First recovery rolls the in-doubt transaction back …
    let (r1, s1) = recover_node(&shared, NodeId(0)).unwrap();
    assert_eq!(s1.rolled_back, 1);
    // … crash again immediately (no new work) …
    r1.crash();
    // … second recovery must be a no-op on state (idempotent replay; the
    // rollback is already durable thanks to the recovery-end force).
    let (r2, s2) = recover_node(&shared, NodeId(0)).unwrap();
    assert_eq!(s2.rolled_back, 0, "already rolled back durably");

    let mut check = r2.begin().unwrap();
    for k in 0..300 {
        assert_eq!(check.get(t, k).unwrap(), Some(v(k)), "key {k}");
    }
    check.commit().unwrap();
}

#[test]
fn storage_outage_surfaces_then_clears() {
    let (shared, engines) = cluster(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut txn = engines[0].begin().unwrap();
    txn.insert(t, 1, v(1)).unwrap();
    txn.commit().unwrap();

    shared.storage.page_store().set_fail_io(true);
    // Cached pages still serve; force a cold page miss by evicting.
    engines[0].lbp.clear();
    let mut txn = engines[0].begin().unwrap();
    // The page may still be in the DBP; clear that too for a true cold read.
    shared.pmfs.buffer.clear();
    let result = txn.get(t, 1);
    assert!(
        matches!(result, Err(PmpError::StorageIo { .. })),
        "cold read during a storage outage must fail loudly: {result:?}"
    );
    drop(txn);

    shared.storage.page_store().set_fail_io(false);
    // The DBP was cleared while storage was down; rebuild from logs.
    pmp_engine::recovery::recover_dbp(&shared, &[NodeId(0)]).unwrap();
    let mut txn = engines[0].begin().unwrap();
    assert_eq!(txn.get(t, 1).unwrap(), Some(v(1)));
    txn.commit().unwrap();
}

#[test]
fn frozen_locks_block_until_recovery_releases_them() {
    let mut config = ClusterConfig::test(2);
    config.engine.lock_wait_timeout_ms = 150;
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut txn = engines[0].begin().unwrap();
    txn.insert(t, 1, v(0)).unwrap();
    txn.commit().unwrap();

    // Node 0 dirties the page (holding its X PLock lazily) and crashes.
    let mut holder = engines[0].begin().unwrap();
    holder.update(t, 1, v(5)).unwrap();
    std::mem::forget(holder);
    engines[0].crash();

    // Node 1 cannot touch the page while the lock is frozen.
    let mut blocked = engines[1].begin().unwrap();
    let err = blocked.update(t, 1, v(9)).unwrap_err();
    assert!(
        matches!(err, PmpError::LockWaitTimeout),
        "frozen PLock must time the peer out, got {err:?}"
    );
    drop(blocked);

    // Recovery thaws the locks; node 1 proceeds.
    recover_node(&shared, NodeId(0)).unwrap();
    let mut txn = engines[1].begin().unwrap();
    txn.update(t, 1, v(9)).unwrap();
    txn.commit().unwrap();
    let mut check = engines[1].begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(9)));
    check.commit().unwrap();
}

#[test]
fn tit_slot_exhaustion_fails_cleanly_and_heals() {
    let mut config = ClusterConfig::test(1);
    config.engine.tit_slots = 4;
    config.engine.lock_wait_timeout_ms = 100;
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;

    // Park transactions on every slot.
    let mut parked = Vec::new();
    for k in 0..4 {
        let mut txn = engines[0].begin().unwrap();
        txn.insert(t, k, v(k)).unwrap();
        parked.push(txn);
    }
    // The fifth begin cannot get a slot.
    let err = engines[0].begin().map(|_| ()).unwrap_err();
    assert!(matches!(err, PmpError::Internal { .. }), "{err:?}");

    // Finishing one transaction frees a slot immediately on rollback...
    parked.pop().unwrap().rollback().unwrap();
    let mut txn = engines[0].begin().unwrap();
    txn.insert(t, 100, v(100)).unwrap();
    txn.commit().unwrap();
    // ...and committed slots recycle via the background min-view pass.
    for txn in parked {
        txn.commit().unwrap();
    }
    std::thread::sleep(Duration::from_millis(150));
    let mut txn = engines[0].begin().unwrap();
    assert_eq!(txn.get(t, 100).unwrap(), Some(v(100)));
    txn.commit().unwrap();
}

#[test]
fn rollback_restores_gsi_entries() {
    let (shared, engines) = cluster(1);
    let meta = shared.create_table("t", 2, &[1]).unwrap();
    let t = meta.id;
    let mut setup = engines[0].begin().unwrap();
    setup.insert(t, 1, RowValue::new(vec![1, 100])).unwrap();
    setup.commit().unwrap();

    let mut txn = engines[0].begin().unwrap();
    txn.update(t, 1, RowValue::new(vec![1, 200])).unwrap(); // moves GSI bucket
    txn.insert(t, 2, RowValue::new(vec![2, 100])).unwrap();
    txn.rollback().unwrap();

    let mut check = engines[0].begin().unwrap();
    assert_eq!(check.index_lookup(t, 0, 100, 10).unwrap(), vec![1]);
    assert_eq!(
        check.index_lookup(t, 0, 200, 10).unwrap(),
        Vec::<u64>::new()
    );
    check.commit().unwrap();
}

#[test]
fn crash_recovery_preserves_gsi_consistency() {
    let (shared, engines) = cluster(2);
    let meta = shared.create_table("t", 2, &[1]).unwrap();
    let t = meta.id;
    let mut setup = engines[0].begin().unwrap();
    for k in 0..100 {
        setup.insert(t, k, RowValue::new(vec![k, k % 5])).unwrap();
    }
    setup.commit().unwrap();

    // In-flight GSI-moving update at crash time.
    let mut doomed = engines[0].begin().unwrap();
    doomed.update(t, 3, RowValue::new(vec![3, 77])).unwrap();
    engines[0].flush_tick();
    std::mem::forget(doomed);
    engines[0].crash();
    let (recovered, _) = recover_node(&shared, NodeId(0)).unwrap();

    let mut check = recovered.begin().unwrap();
    for bucket in 0..5u64 {
        let mut via_index = check.index_lookup(t, 0, bucket, 1000).unwrap();
        via_index.sort_unstable();
        let rows = check.scan(t, 0, 1000).unwrap();
        let mut via_scan: Vec<u64> = rows
            .iter()
            .filter(|(_, val)| val.col(1) == bucket)
            .map(|(k, _)| *k)
            .collect();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan, "bucket {bucket}");
    }
    assert!(check.index_lookup(t, 0, 77, 10).unwrap().is_empty());
    check.commit().unwrap();
}

#[test]
fn tombstone_purge_reclaims_space_instead_of_splitting() {
    let (shared, engines) = cluster(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;

    // Fill one leaf to capacity, then delete everything.
    let mut txn = engines[0].begin().unwrap();
    for k in 0..64 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    let mut txn = engines[0].begin().unwrap();
    for k in 0..64 {
        txn.delete(t, k).unwrap();
    }
    txn.commit().unwrap();

    // Let the min-view broadcast advance past the deleting transaction.
    std::thread::sleep(Duration::from_millis(100));

    // Inserting into the "full" leaf must purge the tombstones rather than
    // splitting: afterwards the tree holds exactly the new keys.
    let pages_before = shared.storage.page_store().page_count();
    let mut txn = engines[0].begin().unwrap();
    for k in 100..160 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    let pages_after = shared.storage.page_store().page_count();
    assert_eq!(
        pages_before, pages_after,
        "purge must avoid allocating split pages"
    );

    let mut check = engines[0].begin().unwrap();
    let rows = check.scan(t, 0, 1000).unwrap();
    assert_eq!(rows.len(), 60);
    assert!(rows.iter().all(|(k, _)| *k >= 100));
    check.commit().unwrap();
}

#[test]
fn quiesced_checkpoint_bounds_recovery_scan() {
    let (shared, engines) = cluster(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;

    // A large prefix of committed work, then a quiesced checkpoint.
    let mut txn = engines[0].begin().unwrap();
    for k in 0..2_000 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    engines[0].flush_tick(); // flush + opportunistic checkpoint
    let checkpoint = engines[0].wal.stream().checkpoint();
    assert!(checkpoint.0 > 0, "quiesced checkpoint must have been taken");

    // A small tail of post-checkpoint work, one transaction in doubt.
    let mut txn = engines[0].begin().unwrap();
    for k in 2_000..2_050 {
        txn.insert(t, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    let mut doomed = engines[0].begin().unwrap();
    doomed.update(t, 1, v(666)).unwrap();
    engines[0].flush_frame_all_for_test();
    std::mem::forget(doomed);
    engines[0].crash();

    let (recovered, stats) = recover_node(&shared, NodeId(0)).unwrap();
    assert_eq!(stats.rolled_back, 1);
    assert!(
        stats.records_scanned < 500,
        "recovery must scan only the post-checkpoint tail, scanned {}",
        stats.records_scanned
    );
    let mut check = recovered.begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(1)));
    assert_eq!(check.get(t, 2_049).unwrap(), Some(v(2_049)));
    assert_eq!(check.scan(t, 0, 10_000).unwrap().len(), 2_050);
    check.commit().unwrap();
}

#[test]
fn acknowledged_commits_survive_crash_racing_committers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};

    // Regression: `Txn::commit` used to ignore `Wal::force`'s outcome, so
    // a commit whose record was truncated by a concurrent crash was still
    // acknowledged — and silently rolled back by recovery. Commits racing
    // the crash may fail, but an Ok must always survive.
    for round in 0..8u64 {
        let (shared, engines) = cluster(1);
        let t = shared.create_table("t", 1, &[]).unwrap().id;
        let acked = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(4));

        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let engine = Arc::clone(&engines[0]);
                let acked = Arc::clone(&acked);
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut k = round * 100_000 + w * 10_000;
                    while !stop.load(Ordering::Relaxed) {
                        k += 1;
                        let committed = engine
                            .begin()
                            .and_then(|mut txn| {
                                txn.insert(t, k, v(k))?;
                                txn.commit()
                            })
                            .is_ok();
                        if committed {
                            acked.lock().unwrap().push(k);
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        // Let the committers build momentum, then crash mid-stream.
        std::thread::sleep(Duration::from_millis(2));
        engines[0].crash();
        stop.store(true, Ordering::Relaxed);
        for wtr in writers {
            wtr.join().unwrap();
        }

        let (recovered, _) = recover_node(&shared, NodeId(0)).unwrap();
        let keys = acked.lock().unwrap().clone();
        let mut check = recovered.begin().unwrap();
        for &k in &keys {
            assert_eq!(
                check.get(t, k).unwrap(),
                Some(v(k)),
                "round {round}: acknowledged commit of key {k} lost in crash"
            );
        }
        check.commit().unwrap();
    }
}

#[test]
fn crash_inside_collect_window_never_acks_truncated_commits() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};

    // A long group-commit window means the crash usually lands while the
    // sync leader is still collecting followers. Whatever LSN the leader
    // achieves, each committer judges its OWN record against it: an Ok
    // must survive recovery, and a committer whose record was truncated
    // must have returned Err (refused the ack) — a follower must never
    // piggyback an ack on a group fsync that did not cover it.
    let mut windows_seen = 0u64;
    for round in 0..8u64 {
        let mut config = ClusterConfig::test(1);
        config.engine.wal_group_window_us = 500;
        let (shared, engines) = cluster_with(config);
        let t = shared.create_table("t", 1, &[]).unwrap().id;
        let acked = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(4));

        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let engine = Arc::clone(&engines[0]);
                let acked = Arc::clone(&acked);
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut k = round * 100_000 + w * 10_000;
                    while !stop.load(Ordering::Relaxed) {
                        k += 1;
                        let committed = engine
                            .begin()
                            .and_then(|mut txn| {
                                txn.insert(t, k, v(k))?;
                                txn.commit()
                            })
                            .is_ok();
                        if committed {
                            acked.lock().unwrap().push(k);
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        // Let leaders open collect windows, then crash mid-window.
        std::thread::sleep(Duration::from_millis(2));
        engines[0].crash();
        stop.store(true, Ordering::Relaxed);
        for wtr in writers {
            wtr.join().unwrap();
        }
        windows_seen += engines[0].wal.group_stats().windows_waited.get();

        let (recovered, _) = recover_node(&shared, NodeId(0)).unwrap();
        let keys = acked.lock().unwrap().clone();
        let mut check = recovered.begin().unwrap();
        for &k in &keys {
            assert_eq!(
                check.get(t, k).unwrap(),
                Some(v(k)),
                "round {round}: commit of key {k} acked inside the collect window, lost in crash"
            );
        }
        check.commit().unwrap();
    }
    assert!(
        windows_seen > 0,
        "no collect window ever opened — the crash never raced the group leader"
    );
}

#[test]
fn async_commit_parked_in_group_window_is_never_acked_if_truncated() {
    use pmp_engine::AsyncSession;

    // The async variant of the collect-window race: commits park on the
    // scheduler while the group leader gathers followers. A crash inside
    // the window truncates the log tail; `drain_pending_on_crash` wakes the
    // parked commits with the truncated watermark, and each must judge its
    // OWN record against it. Every future must RESOLVE (no ack may hang on
    // a wake that will never come), and every Ok must survive recovery.
    for round in 0..6u64 {
        let mut config = ClusterConfig::test(1);
        config.engine.wal_group_window_us = 500;
        let (shared, engines) = cluster_with(config);
        let t = shared.create_table("t", 1, &[]).unwrap().id;

        let sessions: Vec<AsyncSession> = (0..8).map(|_| AsyncSession::open(&engines[0])).collect();
        let commits: Vec<(u64, _)> = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let k = round * 1_000 + i as u64;
                let _ = s.begin();
                let _ = s.insert(t, k, v(k));
                (k, s.commit())
            })
            .collect();
        // Land the crash while commits are (likely) parked in the window.
        std::thread::sleep(Duration::from_micros(300));
        engines[0].crash();

        let mut acked = Vec::new();
        for (k, fut) in commits {
            // `wait` must return: truncated records get an Err via the
            // crash drain (or the park backstop), never a silent hang.
            if fut.wait().is_ok() {
                acked.push(k);
            }
        }
        for s in &sessions {
            let _ = s.close().wait();
        }

        let (recovered, _) = recover_node(&shared, NodeId(0)).unwrap();
        let mut check = recovered.begin().unwrap();
        for &k in &acked {
            assert_eq!(
                check.get(t, k).unwrap(),
                Some(v(k)),
                "round {round}: async commit of key {k} acked but lost in crash"
            );
        }
        check.commit().unwrap();
    }
}

#[test]
fn acked_commits_survive_pmfs_replica_crash_mid_commit() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};

    // SWARM-style PMFS replication (DESIGN.md §15): with replicas = 3 and
    // quorum = 2, killing any single PMFS replica mid-workload loses no
    // acknowledged commit — TIT slots, the TSO high-water mark and lock
    // state live on in the two survivors. Each round crashes a different
    // replica while committers are in flight, then ALSO crashes the engine
    // node and recovers it with the replica still down: recovery re-seats
    // transaction state through the surviving replicas.
    for round in 0..6u64 {
        let victim = (round % 3) as usize;
        let mut config = ClusterConfig::test(1);
        config.replicas = 3;
        config.repl_quorum = 2;
        let (shared, engines) = cluster_with(config);
        let t = shared.create_table("t", 1, &[]).unwrap().id;
        let acked = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(4));

        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let engine = Arc::clone(&engines[0]);
                let acked = Arc::clone(&acked);
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut k = round * 100_000 + w * 10_000;
                    while !stop.load(Ordering::Relaxed) {
                        k += 1;
                        let committed = engine
                            .begin()
                            .and_then(|mut txn| {
                                txn.insert(t, k, v(k))?;
                                txn.commit()
                            })
                            .is_ok();
                        if committed {
                            acked.lock().unwrap().push(k);
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        // Let the committers build momentum, then kill a PMFS replica
        // mid-stream and let them keep committing against the survivors.
        std::thread::sleep(Duration::from_millis(2));
        assert!(shared.repl.crash_replica(victim), "round {round}");
        std::thread::sleep(Duration::from_millis(2));
        stop.store(true, Ordering::Relaxed);
        for wtr in writers {
            wtr.join().unwrap();
        }
        let keys = acked.lock().unwrap().clone();
        assert!(!keys.is_empty(), "round {round}: no commit ever landed");

        // Crash the node too: recovery must rebuild from WAL + the two
        // surviving PMFS replicas (the third is still scrambled).
        engines[0].crash();
        let (recovered, _) = recover_node(&shared, NodeId(0)).unwrap();
        let mut check = recovered.begin().unwrap();
        for &k in &keys {
            assert_eq!(
                check.get(t, k).unwrap(),
                Some(v(k)),
                "round {round}: acked commit of key {k} lost to replica {victim} crash"
            );
        }
        check.commit().unwrap();

        // Re-seat the dead replica from the survivors and keep working.
        assert!(shared.repl.recover_replica(victim), "round {round}");
        let probe = round * 100_000 + 99_999;
        let mut txn = recovered.begin().unwrap();
        txn.insert(t, probe, v(probe)).unwrap();
        txn.commit().unwrap();
        let snap = shared.repl.snapshot();
        assert_eq!(snap.evictions, 1, "round {round}");
        assert_eq!(snap.recoveries, 1, "round {round}");
    }
}

#[test]
fn losing_pmfs_quorum_refuses_new_transactions_until_reseat() {
    let mut config = ClusterConfig::test(1);
    config.replicas = 3;
    config.repl_quorum = 2;
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut txn = engines[0].begin().unwrap();
    txn.insert(t, 1, v(1)).unwrap();
    txn.commit().unwrap();

    // One replica down: still at quorum, service continues.
    assert!(shared.repl.crash_replica(0));
    let mut txn = engines[0].begin().unwrap();
    txn.insert(t, 2, v(2)).unwrap();
    txn.commit().unwrap();

    // Two down: below quorum — new transactions are refused loudly
    // rather than run against a single possibly-stale copy.
    assert!(shared.repl.crash_replica(1));
    let err = engines[0].begin().map(|_| ()).unwrap_err();
    assert!(
        matches!(err, PmpError::FusionUnavailable { .. }),
        "quorum loss must surface as FusionUnavailable, got {err:?}"
    );

    // Re-seating one replica restores quorum; nothing acked was lost.
    assert!(shared.repl.recover_replica(0));
    let mut check = engines[0].begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(1)));
    assert_eq!(check.get(t, 2).unwrap(), Some(v(2)));
    check.commit().unwrap();
}

#[test]
fn replicas_one_keeps_the_unreplicated_fast_path() {
    // The default configuration (replicas = 1) must behave exactly like
    // the pre-replication code: no fan-out writes, no majority reads, and
    // crash_replica refuses to kill the only copy.
    let (shared, engines) = cluster(1);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut txn = engines[0].begin().unwrap();
    txn.insert(t, 1, v(1)).unwrap();
    txn.commit().unwrap();

    assert!(
        !shared.repl.crash_replica(0),
        "the sole replica must not be crashable"
    );
    let snap = shared.repl.snapshot();
    assert_eq!(snap.replicas, 1);
    assert_eq!(snap.replicated_writes, 0, "R=1 never fans out");
    assert_eq!(snap.majority_reads, 0, "R=1 never majority-reads");
    assert_eq!(snap.evictions, 0);
}

#[test]
fn lone_committer_escapes_the_group_window_after_adaptation() {
    use std::time::Instant;

    // A solo committer must not pay the full collect window forever: after
    // EMPTY_WINDOW_LIMIT consecutive empty windows the leader stops
    // waiting, so steady-state lone-commit latency is window-free.
    let mut config = ClusterConfig::test(1);
    config.engine.wal_group_window_us = 3000; // 3ms — huge next to a no-latency commit
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;

    // Warm-up: the first few lone commits each open the window and find
    // it empty, tripping the adaptive skip.
    for k in 0..5u64 {
        let mut txn = engines[0].begin().unwrap();
        txn.insert(t, k, v(k)).unwrap();
        txn.commit().unwrap();
    }
    let g = engines[0].wal.group_stats();
    assert!(
        g.empty_windows.get() >= 3,
        "warm-up never tripped the empty-window streak: {g:?}"
    );

    let waited_before = g.windows_waited.get();
    let start = Instant::now();
    for k in 100..120u64 {
        let mut txn = engines[0].begin().unwrap();
        txn.insert(t, k, v(k)).unwrap();
        txn.commit().unwrap();
    }
    let elapsed = start.elapsed();
    // 20 un-adapted commits would busy-wait >= 60ms of window; adapted
    // ones skip the wait entirely (background ticks may re-arm it once).
    assert!(
        elapsed < Duration::from_millis(30),
        "20 lone commits took {elapsed:?} — adaptive window skip not engaged"
    );
    let waited = engines[0].wal.group_stats().windows_waited.get() - waited_before;
    assert!(
        waited <= 4,
        "adapted lone committer still waited {waited} windows"
    );
}
