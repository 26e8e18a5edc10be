//! Model-checked WAL group commit vs crash truncation, twice over.
//!
//! **The real code.** `Wal::force` is written once — whoever finds the sync
//! mutex free leads one fsync, everyone else registers a waker and suspends
//! — and a blocked thread runs the same body a parked task does, so plain
//! model threads drive the real [`Wal`] over a real [`LogStream`]: two
//! committers append and force, a third thread crashes the stream and
//! drains the followers (`NodeEngine::crash`'s order). They interleave at
//! the announce window, the follower registration, the sync-mutex probe,
//! the leader's sync window and hand-off scan, and inside the stream's own
//! locks. Properties: every `force` call returns (no deadlock, no
//! livelock within the step budget); a return short of the target happens
//! only under a crash (the stream's epoch moved); and a covered return on
//! an unmoved epoch means the bytes are durable.
//!
//! **The negative control.** The hand-modelled pre-fix protocol stays: a
//! leader/rider loop in which a crashed stream's leader keeps being
//! re-elected although its sync can never advance `durable`, which the
//! model flags as a [`Failure::StepLimit`] livelock.

#![cfg(feature = "model")]

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex, TrackedMutexGuard};
use pmp_common::{Cts, GlobalTrxId, Llsn, PageId, StorageLatencyConfig, TableId};
use pmp_engine::redo::{RedoOp, RedoRecord};
use pmp_engine::wal::Wal as RealWal;
use pmp_model::{render_trace, sched_point, spawn, Explorer, Failure, Mode};
use pmp_storage::LogStream;
use std::sync::Arc;

fn real_scenario() {
    let stream = Arc::new(LogStream::new(StorageLatencyConfig::disabled()));
    let wal = Arc::new(RealWal::new(stream, 0));
    for t in 0..2 {
        let wal = Arc::clone(&wal);
        spawn(&format!("committer-{t}"), move || {
            let epoch = wal.stream().epoch();
            let end = wal.log_atomic(|_| {
                vec![RedoRecord {
                    llsn: Llsn::ZERO,
                    page: PageId::NULL,
                    table: TableId(0),
                    op: RedoOp::Commit {
                        trx: GlobalTrxId::NONE,
                        cts: Cts(1),
                    },
                }]
            });
            let forced = wal.force(end, &mut None).expect("a thread waits in place");
            let crashed = wal.stream().epoch() != epoch;
            assert!(forced >= end || crashed, "short return without a crash");
            if !crashed {
                assert!(wal.stream().durable_lsn() >= end, "acked, not durable");
            }
        });
    }
    spawn("crasher", move || {
        sched_point("wal.crash-point");
        wal.stream().crash();
        wal.drain_pending_on_crash();
    });
}

#[test]
fn real_force_survives_random_and_pct_sweeps() {
    for mode in [
        Mode::Random {
            seed: 0x3a1,
            schedules: 300,
        },
        Mode::Pct {
            seed: 0x3a2,
            depth: 3,
            schedules: 300,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(real_scenario);
        assert!(
            out.failure.is_none(),
            "{mode:?}: real group commit must neither hang nor over-ack:\n{}",
            render_trace(&out.failure.unwrap().result)
        );
    }
}

// ---- the negative control ----------------------------------------------------

const WAL: LockClass = LockClass::new("model.wal.state");

#[derive(Default)]
struct Wal {
    tail: u64,
    durable: u64,
    syncing: bool,
    crashed: bool,
}

struct Shared {
    wal: TrackedMutex<Wal>,
    cv: TrackedCondvar,
}

fn append(sh: &Shared) -> u64 {
    let mut g = sh.wal.lock();
    g.tail += 1;
    g.tail
}

/// Force `lsn` durable, the pre-fix way: after a crash the caller keeps
/// retrying the window instead of giving up.
fn force(sh: &Shared, lsn: u64) {
    let mut g: TrackedMutexGuard<'_, Wal> = sh.wal.lock();
    loop {
        if g.durable >= lsn {
            return;
        }
        if !g.syncing {
            // Become the sync leader: snapshot the tail, write it out with
            // the lock dropped (the historical crash window), re-take the
            // lock and publish.
            g.syncing = true;
            let to = g.tail;
            drop(g);
            sched_point("wal.sync-window");
            g = sh.wal.lock();
            g.syncing = false;
            if !g.crashed {
                g.durable = g.durable.max(to);
            }
            sh.cv.notify_all();
        } else {
            // Ride: wait for the leader's publish (or the crash broadcast).
            sh.cv.wait(&mut g);
        }
    }
}

fn buggy_scenario() {
    let sh = Arc::new(Shared {
        wal: TrackedMutex::new(WAL, Wal::default()),
        cv: TrackedCondvar::new(),
    });

    for t in 0..2 {
        let sh = Arc::clone(&sh);
        spawn(&format!("committer-{t}"), move || {
            let lsn = append(&sh);
            force(&sh, lsn);
        });
    }

    {
        let sh = Arc::clone(&sh);
        spawn("crasher", move || {
            sched_point("wal.crash-point");
            let mut g = sh.wal.lock();
            g.crashed = true;
            // Truncate the unsynced tail back to the durable prefix.
            g.tail = g.durable;
            sh.cv.notify_all();
        });
    }
}

/// The retry loop is tight, so a modest budget separates livelock from the
/// legitimate schedules (tens of steps).
const STEP_BUDGET: usize = 800;

#[test]
fn buggy_force_livelocks_after_crash() {
    let mut expl = Explorer::new(Mode::Random {
        seed: 0x3a3,
        schedules: 500,
    });
    expl.max_steps = STEP_BUDGET;
    let found = expl
        .explore(buggy_scenario)
        .failure
        .expect("pre-fix force must be caught retrying forever after the crash");
    assert!(
        matches!(found.result.failure, Some(Failure::StepLimit { .. })),
        "expected a step-limit livelock, got:\n{}",
        render_trace(&found.result)
    );
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn real_force_long_randomized_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0x3aff,
        schedules: 10_000,
    });
    assert!(expl.explore(real_scenario).failure.is_none());
}
