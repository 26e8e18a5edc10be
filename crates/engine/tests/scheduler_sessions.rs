//! Async-session / scheduler integration tests: the open-transaction
//! ceiling on a tiny worker pool, overlap under a single polling client,
//! cross-node PLock conflicts (granted inline vs parked until the grant),
//! and the min-active-snapshot version-store GC.

use std::sync::Arc;
use std::time::Duration;

use pmp_common::{ClusterConfig, NodeId, PmpError, Result};
use pmp_engine::row::RowValue;
use pmp_engine::shared::Shared;
use pmp_engine::{AsyncSession, DbFuture, NodeEngine};
use pmp_pmfs::PLockMode;

fn cluster_with(config: ClusterConfig) -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    let shared = Shared::new(config);
    let engines = (0..config.nodes)
        .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i as u16)))
        .collect();
    (shared, engines)
}

fn v(x: u64) -> RowValue {
    RowValue::new(vec![x])
}

/// The tentpole acceptance check: 256 sessions on a 2-worker scheduler all
/// hold transactions open at the same time. With blocking sessions the
/// ceiling would be the thread count; parked transactions hold no thread,
/// so the ceiling is the TIT, not the pool.
#[test]
fn hammer_256_sessions_on_two_workers_holds_all_open() {
    const SESSIONS: u64 = 256;
    let mut config = ClusterConfig::test(1);
    config.engine.sched_workers = 2;
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;

    let sessions: Vec<AsyncSession> = (0..SESSIONS)
        .map(|_| AsyncSession::open(&engines[0]))
        .collect();

    // Phase 1: every session begins and writes one distinct row. Only after
    // ALL inserts resolve do we commit anything, so at the barrier below
    // exactly 256 transactions are open concurrently.
    let pending: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let _ = s.begin();
            s.insert(t, i as u64, v(i as u64))
        })
        .collect();
    for (i, fut) in pending.into_iter().enumerate() {
        fut.wait().unwrap_or_else(|e| panic!("insert {i}: {e:?}"));
    }

    let open = engines[0].stats.open_txns.get();
    assert_eq!(open, SESSIONS, "all sessions must be open at the barrier");
    let hwm = engines[0].stats.open_txns.hwm();
    assert!(
        hwm >= SESSIONS,
        "open-txn high-water mark {hwm} below the session count"
    );
    let sched = engines[0].sched.stats();
    assert!(
        sched.tasks.hwm() >= SESSIONS,
        "each session is one actor task, hwm {}",
        sched.tasks.hwm()
    );

    // Phase 2: commit everything and verify.
    let commits: Vec<_> = sessions.iter().map(|s| s.commit()).collect();
    for (i, fut) in commits.into_iter().enumerate() {
        fut.wait().unwrap_or_else(|e| panic!("commit {i}: {e:?}"));
    }
    assert_eq!(engines[0].stats.open_txns.get(), 0);
    for s in &sessions {
        s.close().wait().unwrap();
    }
    let mut check = engines[0].begin().unwrap();
    for k in 0..SESSIONS {
        assert_eq!(check.get(t, k).unwrap(), Some(v(k)), "key {k}");
    }
    check.commit().unwrap();
}

/// A PLock another node retains lazily (idle, no page pin) is handed back
/// inside the Lock Fusion negotiation, on the requesting thread: the
/// statement gets its guard without the grant ever being outstanding.
#[test]
fn idle_remote_plock_is_negotiated_away_inside_the_request() {
    let mut config = ClusterConfig::test(2);
    config.engine.lazy_plock_release = true;
    let (shared, engines) = cluster_with(config);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let t = meta.id;

    // Node 0 writes the row and commits; lazy mode keeps its X PLock.
    let mut holder = engines[0].begin().unwrap();
    holder.insert(t, 1, v(10)).unwrap();
    holder.commit().unwrap();

    // Node 1 updates the same row through an async session: the PLock
    // conflict negotiates a release from node 0.
    let s = AsyncSession::open(&engines[1]);
    s.begin().wait().unwrap();
    s.update(t, 1, v(20)).wait().unwrap();
    s.commit().wait().unwrap();
    s.close().wait().unwrap();

    let mut check = engines[0].begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(20)));
    check.commit().unwrap();
    let negotiations = shared.pmfs.plock.stats().negotiations.get();
    assert!(
        negotiations > 0,
        "the conflicting update must have negotiated the lazy lock away"
    );
    // No grant was outstanding when the request returned: node 0 runs no
    // thread that could have granted it later, so an outstanding one would
    // have waited out its deadline instead.
    assert_eq!(shared.pmfs.plock.stats().timeouts.get(), 0);
    assert_eq!(shared.pmfs.plock.queue_len(meta.root), 0);
    assert_eq!(engines[1].sched.stats().timer_fires.get(), 0);
}

/// A transaction whose PLock is pinned on another node parks — holding no
/// thread, its request queued at Lock Fusion — and wakes when the holder's
/// last reference drains.
#[test]
fn txn_parked_on_pinned_remote_plock_wakes_on_release() {
    let mut config = ClusterConfig::test(2);
    config.engine.lazy_plock_release = true;
    let (shared, engines) = cluster_with(config);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let t = meta.id;
    let mut holder = engines[0].begin().unwrap();
    holder.insert(t, 1, v(10)).unwrap();
    holder.commit().unwrap();

    // Pin the (single-leaf) table's page on node 0, as a running statement
    // would.
    let pin = engines[0].plocks.acquire(meta.root, PLockMode::X).unwrap();

    let s = AsyncSession::open(&engines[1]);
    s.begin().wait().unwrap();
    let update = s.update(t, 1, v(20));
    let sched = engines[1].sched.stats();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !(update.is_ready() || shared.pmfs.plock.queue_len(meta.root) == 1) {
        assert!(std::time::Instant::now() < deadline, "update never parked");
        std::thread::yield_now();
    }
    assert!(
        !update.is_ready(),
        "the update resolved while node 0 still pinned the page"
    );
    assert_eq!(shared.pmfs.plock.queue_len(meta.root), 1);
    let runs = || sched.parks.get() + sched.inline_runs.get();
    let parked = runs();

    drop(pin);
    update.wait().unwrap();
    s.commit().wait().unwrap();
    s.close().wait().unwrap();
    assert_eq!(shared.pmfs.plock.queue_len(meta.root), 0);
    assert_eq!(shared.pmfs.plock.stats().timeouts.get(), 0);
    assert_eq!(sched.timer_fires.get(), 0, "woken by the grant");
    assert!(runs() > parked, "the grant re-ran the parked update");

    let mut check = engines[0].begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(20)));
    check.commit().unwrap();
}

/// A crash with a transaction parked behind a page another node keeps pinned
/// stops the scheduler at once: no thread is waiting out the grant, so
/// nothing has to be joined. The parked statement resolves with the crash,
/// and its request leaves Lock Fusion's queue with the table that carried it.
#[test]
fn crash_with_a_txn_parked_on_a_pinned_remote_plock_stops_at_once() {
    let mut config = ClusterConfig::test(2);
    config.engine.lazy_plock_release = true;
    let timeout = Duration::from_millis(config.engine.lock_wait_timeout_ms);
    let (shared, engines) = cluster_with(config);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let t = meta.id;
    let mut holder = engines[0].begin().unwrap();
    holder.insert(t, 1, v(10)).unwrap();
    holder.commit().unwrap();
    let _pin = engines[0].plocks.acquire(meta.root, PLockMode::X).unwrap();

    let s = AsyncSession::open(&engines[1]);
    s.begin().wait().unwrap();
    let update = s.update(t, 1, v(20));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !(update.is_ready() || shared.pmfs.plock.queue_len(meta.root) == 1) {
        assert!(std::time::Instant::now() < deadline, "update never parked");
        std::thread::yield_now();
    }
    assert!(!update.is_ready());

    let crashed = std::time::Instant::now();
    engines[1].crash();
    let took = crashed.elapsed();
    assert!(
        took < timeout / 4,
        "the crash waited on the outstanding grant: {took:?} of a {timeout:?} lock wait"
    );
    assert_eq!(
        update.wait(),
        Err(PmpError::NodeUnavailable { node: NodeId(1) })
    );
    assert_eq!(shared.pmfs.plock.queue_len(meta.root), 0);
}

/// The pipelined guard: one client thread drives 64 connections with
/// queued `begin`/`update`/`commit` triples and only ever polls. The
/// workers must overlap those transactions (many open at once, parked in
/// the group-commit window), and the polling thread must never run engine
/// code. A design that starts the actor inside `submit` fails both: the
/// poller becomes the only executor and nothing overlaps.
#[test]
fn one_polling_thread_keeps_many_transactions_open() {
    const CONNS: usize = 64;
    const COMMITS: u64 = 400;
    let mut config = ClusterConfig::bench(1, 1.0);
    config.engine.sched_workers = 2;
    config.engine.wal_group_window_us = 20;
    let (shared, engines) = cluster_with(config);
    let engine = &engines[0];
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut setup = engine.begin().unwrap();
    for k in 0..CONNS as u64 {
        setup.insert(t, k, v(k)).unwrap();
    }
    setup.commit().unwrap();

    let sessions: Vec<AsyncSession> = (0..CONNS).map(|_| AsyncSession::open(engine)).collect();
    let submit = |i: usize, round: u64| {
        let s = &sessions[i];
        let _ = s.begin();
        let _ = s.update(t, i as u64, v(round));
        s.commit()
    };
    let mut futs: Vec<_> = (0..CONNS).map(|i| Some(submit(i, 0))).collect();
    let (mut commits, mut submitted) = (0u64, CONNS as u64);
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while futs.iter().any(Option::is_some) {
        assert!(std::time::Instant::now() < deadline, "commits stalled");
        for (i, slot) in futs.iter_mut().enumerate() {
            let Some(res) = slot.as_ref().and_then(|f| f.try_take()) else {
                continue;
            };
            res.unwrap_or_else(|e| panic!("commit on connection {i}: {e:?}"));
            commits += 1;
            *slot = (submitted < COMMITS).then(|| {
                submitted += 1;
                submit(i, submitted)
            });
        }
        std::thread::yield_now();
    }
    assert_eq!(commits, COMMITS);

    let hwm = engine.stats.open_txns.hwm();
    assert!(
        hwm >= 8,
        "open-transaction high-water mark {hwm}: the connections did not overlap"
    );
    assert_eq!(
        engine.sched.stats().inline_runs.get(),
        0,
        "a polling client must never run engine code"
    );
}

/// Two async sessions on different nodes contending on one row: the loser
/// parks (scheduler-level wait), the winner's commit wakes it, and both
/// updates land in some serial order.
#[test]
fn contending_async_sessions_serialize_on_one_row() {
    let (shared, engines) = cluster_with(ClusterConfig::test(2));
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut setup = engines[0].begin().unwrap();
    setup.insert(t, 1, v(0)).unwrap();
    setup.commit().unwrap();

    let a = AsyncSession::open(&engines[0]);
    let b = AsyncSession::open(&engines[1]);
    a.begin().wait().unwrap();
    b.begin().wait().unwrap();
    // A takes the row lock; B's update must wait for A's commit.
    a.get_for_update(t, 1).wait().unwrap();
    let blocked = b.update(t, 1, v(200));
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !blocked.is_ready(),
        "B's conflicting update resolved while A still held the row"
    );
    a.update(t, 1, v(100)).wait().unwrap();
    a.commit().wait().unwrap();
    blocked.wait().unwrap();
    b.commit().wait().unwrap();
    a.close().wait().unwrap();
    b.close().wait().unwrap();

    let mut check = engines[0].begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(200)), "last writer wins");
    check.commit().unwrap();
}

/// Resolve a future by polling only, the way a client multiplexing many
/// connections does: the session's actor runs on the scheduler workers,
/// never on this thread. The bound only turns a hang into a failure.
fn poll<T>(fut: &DbFuture<T>) -> Result<T> {
    let hang = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(res) = fut.try_take() {
            return res;
        }
        assert!(std::time::Instant::now() < hang, "future never resolved");
        std::thread::yield_now();
    }
}

/// Row-lock waiters park: on a 2-worker pool, three transactions queued on
/// a row must not keep its holder's commit off the workers. (When a
/// row-lock wait blocked its worker, two waiters occupied both, the
/// holder's commit could not be scheduled, and the waiters ran into
/// `LockWaitTimeout`.)
#[test]
fn row_lock_waiters_do_not_starve_the_holder_off_the_workers() {
    let mut config = ClusterConfig::test(1);
    config.engine.sched_workers = 2;
    config.engine.lock_wait_timeout_ms = 2_000;
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut setup = engines[0].begin().unwrap();
    setup.insert(t, 1, v(0)).unwrap();
    setup.commit().unwrap();

    let holder = AsyncSession::open(&engines[0]);
    poll(&holder.begin()).unwrap();
    poll(&holder.update(t, 1, v(100))).unwrap();

    let waiters: Vec<AsyncSession> = (0..3).map(|_| AsyncSession::open(&engines[0])).collect();
    for w in &waiters {
        poll(&w.begin()).unwrap();
    }
    let mut updates: Vec<(usize, DbFuture<()>)> = waiters
        .iter()
        .enumerate()
        .map(|(i, w)| (i, w.update(t, 1, v(i as u64 + 1))))
        .collect();
    // Start all three, and see at least a pool's worth of them reach the
    // row lock, before the holder's commit is even submitted.
    let hang = std::time::Instant::now() + Duration::from_secs(120);
    while shared.pmfs.rlock.waiting_count() < 2 {
        for (i, u) in &updates {
            assert!(!u.is_ready(), "waiter {i} got past a held row lock");
        }
        assert!(
            std::time::Instant::now() < hang,
            "waiters never reached the row"
        );
        std::thread::yield_now();
    }
    poll(&holder.commit()).expect("the holder's commit must get a worker");

    // The waiters now take the row one after another; each commits as soon
    // as its update lands, which lets the next one through.
    while !updates.is_empty() {
        updates.retain(|(i, update)| match update.try_take() {
            None => true,
            Some(res) => {
                res.unwrap_or_else(|e| panic!("waiter {i}'s update: {e:?}"));
                poll(&waiters[*i].commit())
                    .unwrap_or_else(|e| panic!("waiter {i}'s commit: {e:?}"));
                false
            }
        });
        assert!(std::time::Instant::now() < hang, "a waiter never resolved");
        std::thread::yield_now();
    }
    assert_eq!(shared.pmfs.rlock.waiting_count(), 0);
    assert_eq!(engines[0].stats.rollbacks.get(), 0, "nobody timed out");
    let mut check = engines[0].begin().unwrap();
    let last = check.get(t, 1).unwrap().expect("row exists");
    assert!(
        (1..=3).contains(&last.col(0)),
        "a waiter's value wins: {last:?}"
    );
    check.commit().unwrap();
}

/// A row-lock deadlock between two parked transactions: the detector's
/// verdict reaches the victim through its wait cell, its future resolves
/// `Deadlock`, and the survivor gets the row and commits.
#[test]
fn deadlock_between_parked_transactions_aborts_one_and_commits_the_other() {
    let (shared, engines) = cluster_with(ClusterConfig::test(1));
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut setup = engines[0].begin().unwrap();
    setup.insert(t, 1, v(0)).unwrap();
    setup.insert(t, 2, v(0)).unwrap();
    setup.commit().unwrap();

    let sessions = [
        AsyncSession::open(&engines[0]),
        AsyncSession::open(&engines[0]),
    ];
    for (i, s) in sessions.iter().enumerate() {
        poll(&s.begin()).unwrap();
        poll(&s.update(t, i as u64 + 1, v(10))).unwrap();
    }
    // Each now wants the other's row: a 2-cycle.
    let crossed = [
        sessions[0].update(t, 2, v(20)),
        sessions[1].update(t, 1, v(20)),
    ];
    let mut outcome: [Option<Result<()>>; 2] = [None, None];
    let hang = std::time::Instant::now() + Duration::from_secs(120);
    while outcome.iter().any(Option::is_none) {
        for i in 0..2 {
            if outcome[i].is_none() {
                outcome[i] = crossed[i].try_take();
                // The survivor's wait ends only when the victim is gone.
                if let Some(Ok(())) = outcome[i] {
                    poll(&sessions[i].commit()).expect("the survivor commits");
                }
            }
        }
        shared.pmfs.rlock.detect_once();
        assert!(std::time::Instant::now() < hang, "deadlock never resolved");
        std::thread::yield_now();
    }
    let victims: Vec<usize> = (0..2)
        .filter(|&i| matches!(outcome[i], Some(Err(PmpError::Deadlock { .. }))))
        .collect();
    assert_eq!(victims.len(), 1, "exactly one victim: {outcome:?}");
    assert_eq!(
        outcome[1 - victims[0]],
        Some(Ok(())),
        "the other gets the row"
    );
    assert_eq!(engines[0].stats.deadlock_aborts.get(), 1);
    assert_eq!(shared.pmfs.rlock.waiting_count(), 0);
    // The victim's transaction is gone; its session can start another.
    poll(&sessions[victims[0]].begin()).unwrap();
}

/// The min-view broadcast feeds the version-store GC: once every snapshot
/// that could see an old version is gone, the background pass drops it and
/// counts the eviction.
#[test]
fn version_store_gc_drops_versions_below_min_active_snapshot() {
    let mut config = ClusterConfig::test(1);
    // Snapshot isolation pins the reader's begin-time snapshot; under the
    // default read committed the re-read below would just see the newest
    // version and never touch the old chain.
    config.engine.read_committed = false;
    let (shared, engines) = cluster_with(config);
    let t = shared.create_table("t", 1, &[]).unwrap().id;
    let mut setup = engines[0].begin().unwrap();
    setup.insert(t, 1, v(1)).unwrap();
    setup.commit().unwrap();

    // An old reader pins its snapshot, then the row advances twice.
    let mut reader = engines[0].begin().unwrap();
    assert_eq!(reader.get(t, 1).unwrap(), Some(v(1)));
    for x in [2u64, 3] {
        let mut w = engines[0].begin().unwrap();
        w.update(t, 1, v(x)).unwrap();
        w.commit().unwrap();
    }
    // The reader's re-read reconstructs the old version, filling the store
    // with versions only its (old) snapshot still needs.
    assert_eq!(reader.get(t, 1).unwrap(), Some(v(1)));
    reader.commit().unwrap();

    // With the old snapshot retired, the min-view tick GCs the stale
    // versions. Poll rather than sleep a fixed amount: the broadcast runs
    // every 20 ms (`MIN_VIEW_INTERVAL`).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = &engines[0].version_store.stats;
    while stats.gc_evictions.get() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        stats.gc_evictions.get() > 0,
        "min-view GC never dropped the superseded versions"
    );

    // Current data is untouched.
    let mut check = engines[0].begin().unwrap();
    assert_eq!(check.get(t, 1).unwrap(), Some(v(3)));
    check.commit().unwrap();
}
