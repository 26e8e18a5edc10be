//! Cross-region standby (§3): log shipping, committed-only reads, and
//! promotion to a fresh primary region.

use std::sync::Arc;

use pmp_common::{ClusterConfig, NodeId};
use pmp_engine::row::RowValue;
use pmp_engine::shared::Shared;
use pmp_engine::standby::Standby;
use pmp_engine::NodeEngine;

fn cluster(nodes: u16) -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    let shared = Shared::new(ClusterConfig::test(nodes as usize));
    let engines = (0..nodes)
        .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i)))
        .collect();
    (shared, engines)
}

fn v(x: u64) -> RowValue {
    RowValue::new(vec![x])
}

/// Force both nodes' logs durable so the standby can consume everything.
fn ship(engines: &[Arc<NodeEngine>]) {
    for e in engines {
        e.wal.force(e.wal.stream().end_lsn(), &mut None).unwrap();
    }
}

#[test]
fn standby_replays_committed_changes_from_both_primaries() {
    let (shared, engines) = cluster(2);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let standby = Standby::attach(&shared, &[NodeId(0), NodeId(1)]);

    let mut a = engines[0].begin().unwrap();
    for k in 0..100 {
        a.insert(meta.id, k, v(k)).unwrap();
    }
    a.commit().unwrap();
    let mut b = engines[1].begin().unwrap();
    for k in 0..100 {
        b.update(meta.id, k, v(k + 1000)).unwrap();
    }
    b.commit().unwrap();

    ship(&engines);
    let applied = standby.catch_up().unwrap();
    assert!(applied > 0);
    for k in 0..100 {
        assert_eq!(
            standby.read(&meta, k).unwrap(),
            Some(v(k + 1000)),
            "key {k}"
        );
    }
    // Incremental: more traffic, another catch-up.
    let mut c = engines[0].begin().unwrap();
    c.update(meta.id, 5, v(5555)).unwrap();
    c.commit().unwrap();
    ship(&engines);
    standby.catch_up().unwrap();
    assert_eq!(standby.read(&meta, 5).unwrap(), Some(v(5555)));
}

#[test]
fn standby_reads_skip_uncommitted_versions() {
    let (shared, engines) = cluster(1);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let standby = Standby::attach(&shared, &[NodeId(0)]);

    let mut setup = engines[0].begin().unwrap();
    setup.insert(meta.id, 1, v(10)).unwrap();
    setup.commit().unwrap();

    // In-flight update whose records reach the log before the commit does.
    let mut open = engines[0].begin().unwrap();
    open.update(meta.id, 1, v(999)).unwrap();
    ship(&engines);
    standby.catch_up().unwrap();
    assert_eq!(
        standby.read(&meta, 1).unwrap(),
        Some(v(10)),
        "uncommitted version must be skipped via shipped undo"
    );

    open.commit().unwrap();
    ship(&engines);
    standby.catch_up().unwrap();
    assert_eq!(standby.read(&meta, 1).unwrap(), Some(v(999)));
}

#[test]
fn promotion_creates_a_working_region_without_in_doubt_data() {
    let (shared, engines) = cluster(2);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let standby = Standby::attach(&shared, &[NodeId(0), NodeId(1)]);

    let mut committed = engines[0].begin().unwrap();
    for k in 0..50 {
        committed.insert(meta.id, k, v(k)).unwrap();
    }
    committed.commit().unwrap();

    // The primary region "fails" with one transaction in flight.
    let mut doomed = engines[1].begin().unwrap();
    doomed.update(meta.id, 3, v(666)).unwrap();
    std::mem::forget(doomed);
    ship(&engines);
    standby.catch_up().unwrap();

    // Promote: a new region with fresh PMFS + storage, same catalog.
    let fresh = standby.promote(ClusterConfig::test(1)).unwrap();
    let node = NodeEngine::start(Arc::clone(&fresh), NodeId(0));
    let mut txn = node.begin().unwrap();
    for k in 0..50 {
        assert_eq!(txn.get(meta.id, k).unwrap(), Some(v(k)), "key {k}");
    }
    assert_eq!(
        txn.get(meta.id, 3).unwrap(),
        Some(v(3)),
        "in-doubt update must have been rolled back at promotion"
    );
    // The promoted region accepts new writes, including page allocation.
    for k in 1000..1200 {
        txn.insert(meta.id, k, v(k)).unwrap();
    }
    txn.commit().unwrap();
    let mut check = node.begin().unwrap();
    assert_eq!(check.scan(meta.id, 0, 10_000).unwrap().len(), 250);
    check.commit().unwrap();
}

#[test]
fn standby_catches_up_while_primaries_write_concurrently() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (shared, engines) = cluster(2);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let standby = Standby::attach(&shared, &[NodeId(0), NodeId(1)]);

    // Writers hammer both primaries while the standby replays in a loop —
    // the incremental LLSN_bound apply must stay consistent against live,
    // growing logs.
    let stop = Arc::new(AtomicBool::new(false));
    let standby = Arc::new(standby);
    let mut handles = Vec::new();
    for (i, engine) in engines.iter().enumerate() {
        let engine = Arc::clone(engine);
        let stop = Arc::clone(&stop);
        let table = meta.id;
        handles.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Acquire) {
                let mut txn = engine.begin().unwrap();
                for k in 0..20u64 {
                    let key = i as u64 * 1000 + k;
                    match txn.update(table, key, v(round)) {
                        Ok(()) => {}
                        Err(pmp_common::PmpError::KeyNotFound) => {
                            txn.insert(table, key, v(round)).unwrap();
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
                txn.commit().unwrap();
                round += 1;
            }
            round
        }));
    }
    let stop2 = Arc::clone(&stop);
    let standby2 = Arc::clone(&standby);
    let shipping = std::thread::spawn(move || {
        while !stop2.load(Ordering::Acquire) {
            standby2.catch_up().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Release);
    let rounds: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    shipping.join().unwrap();
    assert!(
        rounds.iter().all(|r| *r > 2),
        "writers must have progressed"
    );

    // Final ship + catch-up, then the standby must agree with the primary
    // on every committed row.
    ship(&engines);
    standby.catch_up().unwrap();
    let mut txn = engines[0].begin().unwrap();
    for i in 0..2u64 {
        for k in 0..20u64 {
            let key = i * 1000 + k;
            let primary_view = txn.get(meta.id, key).unwrap();
            let standby_view = standby.read(&meta, key).unwrap();
            assert_eq!(primary_view, standby_view, "key {key}");
        }
    }
    txn.commit().unwrap();
}
