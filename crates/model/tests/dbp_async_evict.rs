//! Scenario: asynchronous DBP eviction vs a concurrent push and a loader.
//!
//! Drives the real `pmp_pmfs::BufferFusion` (not a re-model of it): page X
//! exists only in the DBP — a freshly split child, never written to storage
//! — held by node A. Three threads interleave at every tracked lock and at
//! the `dbp.evict.submit` / `dbp.evict.complete` yield points:
//!
//! * **evictor-completion** overflows X's shard, which queues X's image at
//!   the sink, then plays the write-back ring's worker: lands the image in
//!   storage and runs the completion;
//! * **pusher** (node A) pushes a newer X;
//! * **loader** (node C) looks X up and falls back to storage on a miss.
//!
//! Invariants: the loader always finds X, at least as new as the newest
//! push acknowledged before it started ("the newest image is always in the
//! DBP or in storage"); and once everything is quiet a node whose `valid`
//! flag is still set is a registered holder of a live entry ("no holder's
//! flag stays true after its entry is removed unless it re-registered").
//!
//! Buggy variant: the pre-PR-3 order, remove-then-write-back, which the
//! submit/complete split can no longer express; it is rebuilt here from
//! `peek` + `clear` + a late storage write, with
//! `sched_point("dbp.evict.remove-window")` marking the window in which X
//! is in neither place and the loader aborts with "missing from shared
//! storage". (Taking the snapshot before the removal also lets a push that
//! lands in between vanish altogether, which the end-state check catches.)

#![cfg(feature = "model")]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{LatencyConfig, Llsn, NodeId, PageId};
use pmp_model::{
    render_trace, replay, sched_point, spawn, Explorer, Failure, Mode, DEFAULT_MAX_STEPS,
};
use pmp_pmfs::buffer::{EvictionSink, QueuedWriteBack, WriteBackDone, WriteBackOutcome};
use pmp_pmfs::{BufferFusion, PageSource};
use pmp_repl::ReplicatedFabric;

const STORAGE: LockClass = LockClass::new("model.dbp.storage");
const SINK_QUEUE: LockClass = LockClass::new("model.dbp.sink_queue");
const FINISHED: LockClass = LockClass::new("model.dbp.finished");

const A: NodeId = NodeId(1);
const B: NodeId = NodeId(2);
const C: NodeId = NodeId(3);
/// X and Y share a DBP shard (ids differ by the shard count) of capacity 1.
const X: PageId = PageId(2);
const Y: PageId = PageId(2 + 64);

type Storage = TrackedMutex<HashMap<PageId, Llsn>>;

/// Minimized failing schedule of the remove-then-write-back variant (found
/// by a random sweep, shrunk with the minimizer's steps while the loader's
/// "missing from shared storage" abort reproduced): the loader runs inside
/// the remove window. The same seed passes on the real order.
const REPLAY_SEED: &[u8] = &[1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1];

/// The sink half of a write-back ring: `submit` queues, the scenario's
/// evictor thread drains.
struct QueueSink {
    storage: Arc<Storage>,
    queue: TrackedMutex<Vec<(PageId, Llsn, WriteBackDone)>>,
}

impl EvictionSink<u64> for QueueSink {
    fn write_now(&self, page_id: PageId, _page: Arc<u64>, llsn: Llsn) -> WriteBackOutcome {
        self.storage.lock().insert(page_id, llsn);
        WriteBackOutcome::Written
    }

    fn submit(&self, batch: Vec<QueuedWriteBack<u64>>) {
        let mut queue = self.queue.lock();
        queue.extend(batch.into_iter().map(|w| (w.page_id, w.llsn, w.done)));
    }
}

fn flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(true))
}

fn scenario(fixed: bool) {
    let bf: Arc<BufferFusion<u64>> = BufferFusion::new(
        Arc::new(ReplicatedFabric::single(Arc::new(pmp_rdma::Fabric::new(
            LatencyConfig::disabled(),
        )))),
        1,
        16 * 1024,
    );
    let storage: Arc<Storage> = Arc::new(TrackedMutex::new(STORAGE, HashMap::new()));
    let sink = Arc::new(QueueSink {
        storage: Arc::clone(&storage),
        queue: TrackedMutex::new(SINK_QUEUE, Vec::new()),
    });
    bf.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<u64>>);

    let flag_a = flag();
    let flag_c = flag();
    bf.register_push(
        A,
        X,
        Arc::new(1),
        Llsn(1),
        Arc::clone(&flag_a),
        PageSource::Memory,
    );
    // Newest LLSN of X whose push has returned.
    let newest = Arc::new(AtomicU64::new(1));
    let finished = Arc::new((TrackedMutex::new(FINISHED, 0u32), TrackedCondvar::new()));
    let finish = |finished: &(TrackedMutex<u32>, TrackedCondvar)| {
        *finished.0.lock() += 1;
        finished.1.notify_all();
    };

    {
        let (bf, sink, storage) = (Arc::clone(&bf), Arc::clone(&sink), Arc::clone(&storage));
        let finished = Arc::clone(&finished);
        spawn("evictor-completion", move || {
            if fixed {
                // Y overflows the shard: X is picked and queued at the sink.
                bf.register_push(B, Y, Arc::new(0), Llsn(1), flag(), PageSource::Memory);
                // The ring worker: land each queued image, then complete.
                loop {
                    let Some((id, llsn, done)) = sink.queue.lock().pop() else {
                        break;
                    };
                    storage.lock().insert(id, llsn);
                    done(WriteBackOutcome::Written);
                }
            } else {
                // Remove the entry (and invalidate its holders) first, write
                // its image back afterwards.
                let (_, llsn) = bf.peek(X).expect("X is in the DBP");
                bf.clear();
                sched_point("dbp.evict.remove-window");
                storage.lock().insert(X, llsn);
            }
            finish(&finished);
        });
    }

    {
        let (bf, newest, finished) = (Arc::clone(&bf), Arc::clone(&newest), Arc::clone(&finished));
        spawn("pusher", move || {
            bf.push(A, X, Arc::new(2), Llsn(2));
            newest.store(2, Ordering::SeqCst);
            finish(&finished);
        });
    }

    {
        let (bf, storage, newest) = (Arc::clone(&bf), Arc::clone(&storage), Arc::clone(&newest));
        let (flag_c, finished) = (Arc::clone(&flag_c), Arc::clone(&finished));
        spawn("loader", move || {
            let acked = newest.load(Ordering::SeqCst);
            let got = match bf.lookup_or_register(C, X, Arc::clone(&flag_c)) {
                Some((_, llsn)) => llsn,
                None => {
                    let stored = storage.lock().get(&X).copied();
                    let llsn = stored.expect("X missing from shared storage");
                    bf.register_push(C, X, Arc::new(llsn.0), llsn, flag_c, PageSource::Storage)
                        .1
                }
            };
            assert!(
                got.0 >= acked,
                "loader got X at {got:?}, older than the acked push {acked}"
            );
            finish(&finished);
        });
    }

    spawn("checker", move || {
        let (count, cv) = &*finished;
        let mut done = count.lock();
        while *done < 3 {
            cv.wait(&mut done);
        }
        drop(done);
        let in_dbp = bf.peek(X).map(|(_, llsn)| llsn);
        let in_storage = storage.lock().get(&X).copied();
        assert_eq!(
            in_dbp.max(in_storage),
            Some(Llsn(2)),
            "the newest image of X is in neither the DBP nor storage"
        );
        for (node, flag) in [(A, &flag_a), (C, &flag_c)] {
            assert!(
                !flag.load(Ordering::SeqCst) || bf.fetch(node, X).is_some(),
                "{node:?} trusts a copy of X that no directory entry can invalidate"
            );
        }
    });
}

#[test]
fn async_eviction_survives_random_and_pct_sweeps() {
    for mode in [
        Mode::Random {
            seed: 0xdb9,
            schedules: 400,
        },
        Mode::Pct {
            seed: 0xdb9,
            depth: 3,
            schedules: 400,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(|| scenario(true));
        assert!(
            out.failure.is_none(),
            "{mode:?}: submit/complete eviction broke an invariant:\n{}",
            render_trace(&out.failure.unwrap().result)
        );
    }
}

#[test]
fn remove_then_write_back_loses_the_page() {
    for mode in [
        Mode::Random {
            seed: 7,
            schedules: 400,
        },
        Mode::Pct {
            seed: 7,
            depth: 2,
            schedules: 400,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(|| scenario(false));
        let found = out
            .failure
            .unwrap_or_else(|| panic!("{mode:?} must find the remove window"));
        match &found.result.failure {
            Some(Failure::Panic { message, .. }) => assert!(
                message.contains("missing from shared storage")
                    || message.contains("older than the acked push")
                    || message.contains("in neither the DBP nor storage"),
                "got: {message}"
            ),
            other => panic!("expected a lost page image, got {other:?}"),
        }
        // And the failing schedule replays.
        let res = replay(&found.schedule, DEFAULT_MAX_STEPS, || scenario(false));
        assert!(matches!(res.failure, Some(Failure::Panic { .. })));
    }
}

#[test]
fn checked_in_seed_reproduces_the_remove_window() {
    let res = replay(REPLAY_SEED, DEFAULT_MAX_STEPS, || scenario(false));
    match &res.failure {
        Some(Failure::Panic { message, .. }) => assert!(
            message.contains("missing from shared storage"),
            "got: {message}"
        ),
        other => panic!(
            "replay seed lost the race (failure={other:?}):\n{}",
            render_trace(&res)
        ),
    }
    let res = replay(REPLAY_SEED, DEFAULT_MAX_STEPS, || scenario(true));
    assert!(
        res.failure.is_none(),
        "the seed must pass on the real order:\n{}",
        render_trace(&res)
    );
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn long_randomized_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0xdb99,
        schedules: 20_000,
    });
    assert!(expl.explore(|| scenario(true)).failure.is_none());
}
