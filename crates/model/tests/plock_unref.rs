//! Model-checked node-side PLock wait protocol (DESIGN.md §13), twice over.
//!
//! **The real code.** Every engine wait is written once — check, register a
//! waker under the lock, suspend — and a blocked *thread* runs the same body
//! a parked task does, so plain model threads drive the only implementation
//! there is: the real [`LocalPLocks`] of two nodes over a real
//! [`PLockFusion`]. Three acquirers meet on one page: `holder` takes S on
//! node 1 and drops it (lazy retention, the refcount-to-zero edge),
//! `upgrader` wants X on node 1 (it waits for exactly that edge, hands the
//! S hold back and re-requests through Lock Fusion), and `remote` takes X
//! on node 2 (negotiating with whoever holds the page at the time, or being
//! negotiated away). They interleave at every shard-lock acquisition, at
//! the waker registration (`plock.wait.registered`), at the unref edge
//! (`plock.unref.zero-edge`), inside Lock Fusion's shard and grant cell and
//! at each thread's own suspend. Invariants: no deadlock — a lost wake shows
//! up as one, the lock waits here have no deadline; every acquirer comes
//! back with a guard or a typed error; and a granted X is the page's only
//! hold in Lock Fusion.
//!
//! The scenario was run with the `notify_shard` on the lazy-retention edge
//! of `LocalPLocks::unref` removed: every mode below then finds
//! [`Failure::Deadlock`] with `upgrader` blocked, and [`REAL_SEED`] is that
//! failure's minimized schedule (`remote` runs to completion first, so no
//! negotiation is left to rescue the sleeper). With the notify in place the
//! same schedule completes — which is what the test pins.
//!
//! **The negative control.** The real code has no buggy twin to point at,
//! so the hand-modelled PR 7 bug stays: a waiter for a stronger mode
//! sampled the holder's refcount on an unlocked fast path, decided it had
//! to wait, and only then registered itself under the shard lock — without
//! re-checking. The refcount-to-zero edge (and its notify) could land
//! inside that window, so the notify found no registered waiter and the
//! waiter slept forever: a [`Failure::Deadlock`].

#![cfg(feature = "model")]

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{LatencyConfig, NodeId, PageId};
use pmp_engine::plock_local::LocalPLocks;
use pmp_model::{
    render_trace, replay, sched_point, spawn, Explorer, Failure, Mode, DEFAULT_MAX_STEPS,
};
use pmp_pmfs::{PLockFusion, PLockMode};
use pmp_rdma::Fabric;
use pmp_repl::ReplicatedFabric;
use std::sync::Arc;
use std::time::Duration;

const PAGE: PageId = PageId(7);

/// The schedule that deadlocks the real code once the unref notify on the
/// lazy-retention edge is removed (module docs).
const REAL_SEED: &[u8] = &[2, 2, 2, 2, 0, 2, 1, 2, 0, 1, 1, 1, 1, 1, 1, 1];

/// A granted X must be the only hold Lock Fusion records for the page.
fn assert_sole_x_holder(fusion: &PLockFusion, node: NodeId) {
    assert_eq!(
        fusion.holders(PAGE),
        vec![(node, PLockMode::X)],
        "X granted to {node:?} beside another hold"
    );
}

fn real_scenario() {
    let fusion = Arc::new(PLockFusion::new(Arc::new(ReplicatedFabric::single(
        Arc::new(Fabric::new(LatencyConfig::disabled())),
    ))));
    // No lock-wait deadline: a wake that never comes must read as a
    // deadlock, not as a timeout that happens to paper over it.
    let node = |id: u16| {
        let locks = LocalPLocks::new(NodeId(id), Arc::clone(&fusion), true, Duration::MAX);
        fusion.register_node(NodeId(id), Arc::clone(&locks));
        locks
    };
    let (a, b) = (node(1), node(2));

    {
        let a = Arc::clone(&a);
        spawn("holder", move || {
            let guard = a.acquire(PAGE, PLockMode::S).expect("S on node 1");
            sched_point("plock.holder.pinned");
            drop(guard);
        });
    }
    {
        let (a, fusion) = (Arc::clone(&a), Arc::clone(&fusion));
        spawn("upgrader", move || {
            let guard = a.acquire(PAGE, PLockMode::X).expect("X on node 1");
            assert_sole_x_holder(&fusion, NodeId(1));
            drop(guard);
        });
    }
    spawn("remote", move || {
        let guard = b.acquire(PAGE, PLockMode::X).expect("X on node 2");
        assert_sole_x_holder(&fusion, NodeId(2));
        drop(guard);
    });
}

#[test]
fn real_plock_waits_survive_random_and_pct_sweeps() {
    for mode in [
        Mode::Random {
            seed: 0x910c,
            schedules: 400,
        },
        Mode::Pct {
            seed: 0x910c,
            depth: 3,
            schedules: 400,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(real_scenario);
        assert!(
            out.failure.is_none(),
            "{mode:?}: the PLock wait protocol broke an invariant:\n{}",
            render_trace(&out.failure.unwrap().result)
        );
    }
}

#[test]
fn checked_in_seed_passes_with_the_unref_notify_in_place() {
    let res = replay(REAL_SEED, DEFAULT_MAX_STEPS, real_scenario);
    assert!(
        res.failure.is_none(),
        "the lazy-retention edge of unref no longer wakes the upgrader:\n{}",
        render_trace(&res)
    );
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn real_plock_waits_long_randomized_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0x91ee,
        schedules: 20_000,
    });
    assert!(expl.explore(real_scenario).failure.is_none());
}

// ---- the negative control ----------------------------------------------------

const SHARD: LockClass = LockClass::new("model.plock.shard");

struct Shard {
    /// Holders of the current (weaker) mode.
    refcount: u32,
    /// Waiters registered for a stronger mode.
    waiting: u32,
}

/// Minimized failing schedule for the hand-modelled bug, produced via
/// `minimize()`: replaying it deadlocks on the lost refcount-to-zero wake.
const BUGGY_SEED: &[u8] = &[1, 1];

fn buggy_scenario() {
    let shard = Arc::new(TrackedMutex::new(
        SHARD,
        Shard {
            refcount: 1,
            waiting: 0,
        },
    ));
    let cv = Arc::new(TrackedCondvar::new());

    // The current holder releases its reference; the refcount-to-zero edge
    // notifies stronger-mode waiters.
    {
        let shard = Arc::clone(&shard);
        let cv = Arc::clone(&cv);
        spawn("holder", move || {
            let mut g = shard.lock();
            g.refcount -= 1;
            if g.refcount == 0 {
                cv.notify_all();
            }
        });
    }

    spawn("waiter", move || {
        // Unlocked fast-path sample, then register and wait without
        // re-checking. The refcount-to-zero notify can land in the window
        // between the sample and the wait.
        let busy = shard.lock().refcount > 0;
        if busy {
            sched_point("plock.wait-window");
            let mut g = shard.lock();
            g.waiting += 1;
            cv.wait(&mut g);
            g.waiting -= 1;
        }
        shard.lock().refcount = 1;
    });
}

#[test]
fn buggy_variant_loses_the_wake_in_every_mode() {
    for mode in [
        Mode::Random {
            seed: 2,
            schedules: 300,
        },
        Mode::Pct {
            seed: 2,
            depth: 2,
            schedules: 300,
        },
        Mode::Exhaustive {
            max_schedules: 20_000,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(buggy_scenario);
        let found = out
            .failure
            .unwrap_or_else(|| panic!("{mode:?} must find the lost wake"));
        assert!(
            matches!(found.result.failure, Some(Failure::Deadlock { .. })),
            "expected a deadlock, got:\n{}",
            render_trace(&found.result)
        );
    }
}

#[test]
fn checked_in_seed_reproduces_pr7_race() {
    let res = replay(BUGGY_SEED, DEFAULT_MAX_STEPS, buggy_scenario);
    match &res.failure {
        Some(Failure::Deadlock { blocked }) => {
            assert!(
                blocked.iter().any(|b| b.contains("waiter")),
                "deadlock does not involve the waiter: {blocked:?}"
            );
        }
        other => panic!(
            "replay seed lost the race (failure={other:?}):\n{}",
            render_trace(&res)
        ),
    }
}
