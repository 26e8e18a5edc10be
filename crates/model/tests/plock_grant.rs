//! Model-checked PLock grant: the one engine wait that lasts as long as a
//! peer likes (DESIGN.md §4.3, §13), over the real [`PLockFusion`] and the
//! real [`LocalPLocks`] of two nodes.
//!
//! Node 2 (`B`) holds X on the page with a live reference — the pin. Three
//! things then race on node 1 (`A`) and on the pin:
//!
//! * `holder` drops B's last reference: the negotiation A's request left
//!   pending hands the lock over, and Lock Fusion grants the queue head;
//! * `acquirer` asks for X on A, finds the page pinned and waits for the
//!   grant — until its deadline. Under the checker a wait times out only
//!   when nothing else can run, so the deadline is modelled by its two
//!   extremes: a lock-wait timeout of zero (the deadline is always the next
//!   thing to happen, and races the grant at every yield point between the
//!   request and its withdrawal) and none at all (a lost wake is a deadlock);
//! * `crasher` crashes A's lock table (`crash_clear`), recovery forgets the
//!   node in Lock Fusion (`release_all`), and a fresh acquirer asks for the
//!   same page. (A request `release_all` forgets is ended by its
//!   requester's deadline, so the variant without one leaves the crashed
//!   table's holds frozen instead, as they are until a recovery completes.)
//!
//! Every acquirer must come back with a guard, a lock-wait timeout or
//! `NodeUnavailable`, and drops its guard exactly once (`LocalPLocks::unref`
//! asserts the reference it drops exists). At quiescence Lock Fusion's queue
//! for the page is empty and every node it records as a holder still has the
//! entry that tracks the hold.
//!
//! [`STALE_GRANT_SEED`] is a schedule of the no-deadline variant, minimized,
//! that fails on the commit before the grant cell took a waker (found by the
//! sweep below at its 6th random schedule). B is idle by the time the
//! acquirer asks, and hands the lock back inside the negotiation; while the
//! acquirer is still inside that request the crasher wipes the table and the
//! fresh acquirer inserts an entry of its own, which Lock Fusion grants at
//! once (node 1 already holds the lock). The acquirer then comes back with
//! its pre-crash grant, and `install_grant` — which found its entry by page
//! id alone — installs it into the *fresh* entry. Two guards share one
//! reference, and the second drop trips `unref of unreferenced plock`: the
//! symptom `failure_injection`'s
//! `acknowledged_commits_survive_crash_racing_committers` showed at a few
//! runs per thousand. Now the acquirer finds the table's epoch changed
//! across its request and fails with `NodeUnavailable`; a request still
//! queued is withdrawn by `crash_clear` itself; and a guard from before the
//! crash no longer touches the entry of a later acquisition.

#![cfg(feature = "model")]

use pmp_common::{LatencyConfig, NodeId, PageId, PmpError};
use pmp_engine::plock_local::LocalPLocks;
use pmp_model::{render_trace, replay, sched_point, spawn, Explorer, Mode, DEFAULT_MAX_STEPS};
use pmp_pmfs::{PLockFusion, PLockMode};
use pmp_rdma::Fabric;
use pmp_repl::ReplicatedFabric;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PAGE: PageId = PageId(7);
const A: NodeId = NodeId(1);
const B: NodeId = NodeId(2);

/// The schedule of [`NO_DEADLINE`] that installs a stale grant
/// into the fresh acquirer's entry on the parent commit (module docs).
const STALE_GRANT_SEED: &[u8] = &[
    2, 2, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1,
];

/// X on node 1, the way a statement takes it: a guard held across a yield
/// point, or a typed error.
fn acquire_on_a(a: &Arc<LocalPLocks>) {
    match a.acquire(PAGE, PLockMode::X) {
        Ok(guard) => {
            sched_point("plock.grant.guard-held");
            drop(guard);
        }
        Err(PmpError::LockWaitTimeout | PmpError::NodeUnavailable { .. }) => {}
        Err(e) => panic!("acquire on node 1 failed with {e:?}"),
    }
}

/// Node 1's lock-wait timeout, and whether the crash is followed by recovery's
/// `release_all` (module docs).
type Variant = (Duration, bool);
const DEADLINE_NEXT: Variant = (Duration::ZERO, true);
const NO_DEADLINE: Variant = (Duration::MAX, false);

fn scenario((a_timeout, recover): Variant) {
    let fusion = Arc::new(PLockFusion::new(Arc::new(ReplicatedFabric::single(
        Arc::new(Fabric::new(LatencyConfig::disabled())),
    ))));
    let node = |id: NodeId, timeout: Duration| {
        let locks = LocalPLocks::new(id, Arc::clone(&fusion), true, timeout);
        fusion.register_node(id, Arc::clone(&locks));
        locks
    };
    let a = node(A, a_timeout);
    // Leaked so the pin — a guard borrowing the table — can move into the
    // thread that drops it. (The handler registration above is a reference
    // cycle anyway: a scenario's tables are never freed.)
    let b: &'static Arc<LocalPLocks> = Box::leak(Box::new(node(B, Duration::MAX)));
    let pin = b.acquire(PAGE, PLockMode::X).expect("B pins the page");

    // The last thread out checks the invariants that hold at quiescence.
    let running = Arc::new(AtomicUsize::new(3));
    let quiesce = {
        let (a, fusion) = (Arc::clone(&a), Arc::clone(&fusion));
        move || {
            if running.fetch_sub(1, Ordering::SeqCst) > 1 {
                return;
            }
            assert_eq!(fusion.queue_len(PAGE), 0, "a request outlived its waiter");
            for (node, mode) in fusion.holders(PAGE) {
                let locks = if node == A { &a } else { b };
                assert!(
                    locks.is_retained(PAGE),
                    "{node:?} holds {mode:?} in Lock Fusion and no local entry tracks it"
                );
            }
        }
    };

    {
        let quiesce = quiesce.clone();
        spawn("holder", move || {
            drop(pin);
            quiesce();
        });
    }
    {
        let (a, quiesce) = (Arc::clone(&a), quiesce.clone());
        spawn("acquirer", move || {
            acquire_on_a(&a);
            quiesce();
        });
    }
    spawn("crasher", move || {
        a.crash_clear();
        if recover {
            fusion.release_all(A);
        }
        acquire_on_a(&a);
        quiesce();
    });
}

fn sweep(variant: Variant, schedules: usize) {
    for mode in [
        Mode::Random {
            seed: 0x6a27,
            schedules,
        },
        Mode::Pct {
            seed: 0x6a27,
            depth: 3,
            schedules,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(|| scenario(variant));
        assert!(
            out.failure.is_none(),
            "{mode:?}, {variant:?}: the grant protocol broke an invariant:\n{}",
            render_trace(&out.failure.unwrap().result)
        );
    }
}

#[test]
fn grant_races_the_deadline_and_a_crash_at_every_yield_point() {
    sweep(DEADLINE_NEXT, 400);
}

#[test]
fn grant_races_a_crash_with_no_deadline_to_paper_over_a_lost_wake() {
    sweep(NO_DEADLINE, 400);
}

#[test]
fn checked_in_seed_installs_no_stale_grant() {
    let res = replay(STALE_GRANT_SEED, DEFAULT_MAX_STEPS, || {
        scenario(NO_DEADLINE)
    });
    assert!(
        res.failure.is_none(),
        "a grant from before the crash reached the fresh acquirer's entry:\n{}",
        render_trace(&res)
    );
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn grant_long_randomized_sweep() {
    for variant in [DEADLINE_NEXT, NO_DEADLINE] {
        let expl = Explorer::new(Mode::Random {
            seed: 0x6aee,
            schedules: 20_000,
        });
        let out = expl.explore(|| scenario(variant));
        assert!(out.failure.is_none(), "{variant:?}: {:?}", out.failure);
    }
}
