//! A log that ends: the cluster-wide storage checkpoint frees redo below it,
//! and every reader — single-node recovery, full-cluster recovery, the
//! standby — starts where the log does. Each scenario asserts the log was
//! actually cut before it crashes or attaches.

use std::collections::BTreeMap;
use std::sync::Arc;

use pmp_common::{ClusterConfig, Lsn, NodeId, PmpError, TableId};
use pmp_engine::recovery::{recover_cluster, recover_node};
use pmp_engine::row::RowValue;
use pmp_engine::shared::Shared;
use pmp_engine::standby::Standby;
use pmp_engine::NodeEngine;

const NODES: [NodeId; 2] = [NodeId(0), NodeId(1)];

/// Two nodes whose background flushers never fire: only the test's
/// `storage_checkpoint` calls move a log's start.
fn cluster() -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    let mut config = ClusterConfig::test(2);
    config.engine.flush_interval_ms = 3_600_000;
    let shared = Shared::new(config);
    let engines = NODES
        .iter()
        .map(|&n| NodeEngine::start(Arc::clone(&shared), n))
        .collect();
    (shared, engines)
}

fn v(x: u64) -> RowValue {
    RowValue::new(vec![x])
}

/// The committed contents of the tables, as the test believes them.
type Expected = BTreeMap<(TableId, u64), u64>;

fn put(engine: &Arc<NodeEngine>, expected: &mut Expected, t: TableId, keys: std::ops::Range<u64>) {
    let mut txn = engine.begin().unwrap();
    for k in keys {
        let value = k * 10 + engine.node.0 as u64;
        if expected.insert((t, k), value).is_some() {
            txn.update(t, k, v(value)).unwrap();
        } else {
            txn.insert(t, k, v(value)).unwrap();
        }
    }
    txn.commit().unwrap();
}

fn start(shared: &Shared, node: NodeId) -> Lsn {
    shared.storage.redo_stream(node).start_lsn()
}

fn force(engines: &[Arc<NodeEngine>]) {
    for e in engines {
        e.wal.force(e.wal.stream().end_lsn(), &mut None).unwrap();
    }
}

fn lose_everything_volatile(shared: &Shared, engines: &[Arc<NodeEngine>]) {
    for e in engines {
        e.crash();
    }
    shared.pmfs.buffer.clear();
    shared.undo.clear();
    for n in NODES {
        shared.pmfs.plock.release_all(n);
        shared.pmfs.txn.unregister_region(n);
    }
}

fn assert_state(engine: &Arc<NodeEngine>, tables: &[TableId], expected: &Expected) {
    let mut check = engine.begin().unwrap();
    for (&(t, k), &value) in expected {
        assert_eq!(check.get(t, k).unwrap(), Some(v(value)), "{t} key {k}");
    }
    let rows: usize = tables
        .iter()
        .map(|&t| check.scan(t, 0, 100_000).unwrap().len())
        .sum();
    assert_eq!(rows, expected.len(), "no row beyond the committed state");
    check.commit().unwrap();
}

/// Shared and private tables, written by both nodes before and after a
/// storage checkpoint; then every volatile thing is lost. Recovery from the
/// *cut* logs plus storage reproduces the committed state and reads only
/// the tail.
#[test]
fn cluster_recovery_starts_at_the_storage_checkpoint() {
    let (shared, engines) = cluster();
    let shared_t = shared.create_table("shared", 1, &[]).unwrap().id;
    let private = [
        shared.create_table("p0", 1, &[]).unwrap().id,
        shared.create_table("p1", 1, &[]).unwrap().id,
    ];
    let tables = [shared_t, private[0], private[1]];
    let mut expected = Expected::new();
    for round in 0..4u64 {
        for (n, engine) in engines.iter().enumerate() {
            put(
                engine,
                &mut expected,
                private[n],
                round * 150..(round + 1) * 150,
            );
            // Both nodes rewrite the same shared keys, taking turns.
            put(engine, &mut expected, shared_t, 0..200);
        }
    }
    let history: u64 = engines.iter().map(|e| e.wal.stream().end_lsn().0).sum();

    shared.storage_checkpoint(&engines);
    for n in NODES {
        let stream = shared.storage.redo_stream(n);
        assert_eq!(stream.start_lsn(), stream.end_lsn(), "{n}: all of it freed");
        assert!(stream.start_lsn().0 > 0);
    }
    assert_eq!(shared.pmfs.buffer.dirty_count(), 0);

    // A tail after the checkpoint, one transaction of it in doubt.
    put(&engines[0], &mut expected, shared_t, 50..60);
    put(&engines[1], &mut expected, private[1], 0..10);
    put(&engines[1], &mut expected, shared_t, 55..65);
    let mut doomed = engines[0].begin().unwrap();
    doomed.update(shared_t, 7, v(666)).unwrap();
    doomed.insert(private[0], 9_999, v(666)).unwrap();
    std::mem::forget(doomed);
    force(&engines);

    lose_everything_volatile(&shared, &engines);
    let stats = recover_cluster(&shared, &NODES).unwrap();
    assert_eq!(stats.rolled_back, 1);
    // Two records per written row, a few per transaction: the tail is 32
    // rows, the history 2 × 4 × 350.
    assert!(
        (64..200).contains(&stats.records_scanned),
        "scanned {} records of a {history}-byte history",
        stats.records_scanned
    );

    let fresh = NodeEngine::start(Arc::clone(&shared), NodeId(0));
    assert_state(&fresh, &tables, &expected);
}

/// A node with a transaction open during the checkpoint is not quiesced:
/// it keeps its whole log — nothing in it is lost — while its idle peer is
/// cut; both then recover.
#[test]
fn a_busy_node_keeps_its_log_and_still_recovers() {
    let (shared, engines) = cluster();
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut expected = Expected::new();
    put(&engines[0], &mut expected, t, 0..300);
    put(&engines[1], &mut expected, t, 100..400);

    let mut open = engines[0].begin().unwrap();
    open.update(t, 5, v(555)).unwrap();
    shared.storage_checkpoint(&engines);
    assert_eq!(start(&shared, NodeId(0)), Lsn::ZERO, "busy: nothing freed");
    assert!(start(&shared, NodeId(1)).0 > 0, "idle: cut");
    open.commit().unwrap();
    expected.insert((t, 5), 555);
    put(&engines[1], &mut expected, t, 390..410);

    // The busy node's old records replay over the newer stored images.
    engines[0].crash();
    let (recovered, stats) = recover_node(&shared, NodeId(0)).unwrap();
    assert_eq!(stats.rolled_back, 0);
    assert_state(&recovered, &[t], &expected);

    // And through full-cluster recovery: one whole log, one cut one.
    force(&[Arc::clone(&recovered), Arc::clone(&engines[1])]);
    lose_everything_volatile(&shared, &[recovered, Arc::clone(&engines[1])]);
    recover_cluster(&shared, &NODES).unwrap();
    let fresh = NodeEngine::start(Arc::clone(&shared), NodeId(1));
    assert_state(&fresh, &[t], &expected);
}

/// A standby attached *after* the log was cut: the base backup gives it
/// every loaded row (their writers have no record in the retained log and a
/// backfilled CTS — committed, by the standby's existing rule), the shipped
/// tail gives it later commits and never an uncommitted version, and it
/// promotes.
#[test]
fn standby_attaches_to_a_running_cluster_after_truncation() {
    let (shared, engines) = cluster();
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let t = meta.id;
    let mut expected = Expected::new();
    put(&engines[0], &mut expected, t, 0..400);
    put(&engines[1], &mut expected, t, 200..500);
    shared.storage_checkpoint(&engines);
    for n in NODES {
        assert!(start(&shared, n).0 > 0, "{n}: the log begins past the load");
    }

    let standby = Standby::attach(&shared, &NODES);
    assert_eq!(standby.catch_up().unwrap(), 0, "nothing retained to ship");
    for (&(_, k), &value) in &expected {
        assert_eq!(standby.read(&meta, k).unwrap(), Some(v(value)), "key {k}");
    }

    // Later traffic: committed on both nodes, plus one open transaction.
    put(&engines[0], &mut expected, t, 0..50);
    put(&engines[1], &mut expected, t, 480..520);
    let mut open = engines[1].begin().unwrap();
    open.update(t, 3, v(31_337)).unwrap();
    open.insert(t, 7_000, v(31_337)).unwrap();
    force(&engines);
    assert!(standby.catch_up().unwrap() > 0);
    for (&(_, k), &value) in &expected {
        assert_eq!(standby.read(&meta, k).unwrap(), Some(v(value)), "key {k}");
    }
    assert_eq!(
        standby.read(&meta, 7_000).unwrap(),
        None,
        "uncommitted insert"
    );

    let promoted = standby.promote(ClusterConfig::test(1)).unwrap();
    let fresh = NodeEngine::start(promoted, NodeId(0));
    assert_state(&fresh, &[t], &expected);
    open.rollback().unwrap();
}

/// A standby attached *before* a checkpoint pins each log at what it has
/// consumed; catching up lets the next checkpoint free it, and dropping the
/// standby releases the log altogether.
#[test]
fn an_attached_standby_pins_the_log_until_it_catches_up_or_drops() {
    let (shared, engines) = cluster();
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let mut expected = Expected::new();
    let standby = Standby::attach(&shared, &NODES);
    put(&engines[0], &mut expected, meta.id, 0..200);
    put(&engines[1], &mut expected, meta.id, 100..300);

    shared.storage_checkpoint(&engines);
    for n in NODES {
        let r = shared.storage.redo_stream(n).retention();
        assert_eq!(r.start, Lsn::ZERO, "{n}: pinned by the standby's hold");
        assert!(r.storage_checkpoint.0 > 0, "{n}: the checkpoint did happen");
        assert_eq!(r.live_holds, 1);
    }
    // Nothing the standby still needs was freed: it ships all of it.
    assert!(standby.catch_up().unwrap() > 0);
    for (&(_, k), &value) in &expected {
        assert_eq!(standby.read(&meta, k).unwrap(), Some(v(value)), "key {k}");
    }

    // Caught up: the next checkpoint may cut below the standby's position.
    shared.storage_checkpoint(&engines);
    for n in NODES {
        let stream = shared.storage.redo_stream(n);
        assert_eq!(stream.start_lsn(), stream.end_lsn(), "{n}");
    }

    // New log the standby never reads: pinned again, until it goes away.
    put(&engines[0], &mut expected, meta.id, 0..50);
    shared.storage_checkpoint(&engines);
    let stream = shared.storage.redo_stream(NodeId(0));
    assert!(stream.start_lsn() < stream.end_lsn(), "pinned at the hold");
    drop(standby);
    assert_eq!(stream.retention().live_holds, 0);
    shared.storage_checkpoint(&engines);
    assert_eq!(stream.start_lsn(), stream.end_lsn());
}

/// What reading below the start looks like from the engine: an error that
/// names the position, not a scan that quietly begins somewhere else.
#[test]
fn a_reader_below_the_start_gets_the_typed_error() {
    let (shared, engines) = cluster();
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    put(&engines[0], &mut Expected::new(), t, 0..100);
    shared.storage_checkpoint(&engines);
    let stream = shared.storage.redo_stream(NodeId(0));
    let read = engines[0].io.log_read(&stream, Lsn::ZERO, 4096).unwrap();
    assert_eq!(
        read.wait().unwrap_err(),
        PmpError::LogTruncated {
            requested: Lsn::ZERO,
            start: stream.start_lsn()
        }
    );
}
