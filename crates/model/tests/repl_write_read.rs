//! Model-checked PMFS replication protocol (DESIGN.md §15), twice over.
//!
//! **The real code.** `pmp-repl` writes its seqlock window once
//! (`ReplBatch::rmw`), so the checker can drive the real
//! [`ReplicatedFabric`] instead of a re-model of it: two adders
//! (`fetch_add_u64`), a thread that crashes and re-seats replica 0, and a
//! reader interleave at the window's yield points (`repl.write.seq-odd`,
//! `repl.torn-window`, `repl.write.tag-published`), at the re-seat's
//! Joining → Up edge, at the reader's replica pick, at the cell spin lock and
//! at every read retry. Invariants: the reader's values never go
//! backwards and are never the crash `POISON`; once the writers are done
//! the cell holds exactly the acknowledged adds, on every replica.
//!
//! **The negative control.** The real code has no buggy twin to point at, so
//! the hand-modelled pair stays: a replicated write fanning a `(value, tag)`
//! pair to two slots, racing a fast single-replica read. The writer bumps
//! the slot's sequence word to an odd value, stores the payload and the
//! version tag, then bumps the sequence back to even; a read validates that
//! the sequence was even and unchanged around the payload load. The buggy
//! variant models the tempting shortcut: validate by version tag alone and
//! skip the sequence word. The tag is published *after* the payload, so a
//! reader that loads the tag first, gets preempted inside the writer's torn
//! window (`sched_point("repl.torn-window")`), and then loads the payload
//! observes a fresh value under a stale tag — a torn replicated write
//! visible to a single-replica read. Ghost invariant: a validated read must
//! observe `value == tag * 100`.

#![cfg(feature = "model")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::LatencyConfig;
use pmp_model::{
    render_trace, replay, sched_point, spawn, Explorer, Failure, Mode, DEFAULT_MAX_STEPS,
};
use pmp_rdma::Fabric;
use pmp_repl::{Locality, ReplicatedFabric, POISON};

const FINISHED: LockClass = LockClass::new("model.repl.finished");
const ADDERS: u64 = 2;
const ADDS_EACH: u64 = 2;

/// The real `ReplicatedFabric` at R=3, quorum 2: adders, a replica flapping,
/// a reader, and a checker that runs once the writers are done.
fn real_scenario() {
    let repl = Arc::new(ReplicatedFabric::new(
        Arc::new(Fabric::new(LatencyConfig::disabled())),
        3,
        2,
    ));
    let cell = repl.cell(0);
    let acked = Arc::new(AtomicU64::new(0));
    let finished = Arc::new((TrackedMutex::new(FINISHED, 0u64), TrackedCondvar::new()));
    let finish = |finished: &(TrackedMutex<u64>, TrackedCondvar)| {
        *finished.0.lock() += 1;
        finished.1.notify_all();
    };

    for name in ["adder-a", "adder-b"] {
        let (repl, cell, acked) = (Arc::clone(&repl), Arc::clone(&cell), Arc::clone(&acked));
        let finished = Arc::clone(&finished);
        spawn(name, move || {
            for _ in 0..ADDS_EACH {
                repl.fetch_add_u64(&cell, 1, Locality::Remote);
                acked.fetch_add(1, Ordering::SeqCst);
            }
            finish(&finished);
        });
    }

    {
        let (repl, finished) = (Arc::clone(&repl), Arc::clone(&finished));
        spawn("flapper", move || {
            assert!(repl.crash_replica(0));
            assert!(repl.recover_replica(0));
            finish(&finished);
        });
    }

    {
        let (repl, cell) = (Arc::clone(&repl), Arc::clone(&cell));
        spawn("reader", move || {
            let mut last = 0;
            for _ in 0..3 {
                let v = repl.read_u64(&cell, Locality::Remote);
                assert_ne!(v, POISON, "read trusted a crashed replica");
                assert!(v >= last, "read went backwards: {last} then {v}");
                last = v;
            }
        });
    }

    spawn("checker", move || {
        let (count, cv) = &*finished;
        let mut done = count.lock();
        while *done < ADDERS + 1 {
            cv.wait(&mut done);
        }
        drop(done);
        let total = acked.load(Ordering::SeqCst);
        assert_eq!(total, ADDERS * ADDS_EACH);
        assert_eq!(repl.load(&cell), total, "an acknowledged add was lost");
        // Every replica is Up again and must hold the total: peel them off
        // one at a time and read what the next one serves.
        for victim in 0..2 {
            assert!(repl.crash_replica(victim));
            assert_eq!(
                repl.read_u64(&cell, Locality::Remote),
                total,
                "replica {} missed an acknowledged add",
                victim + 1
            );
        }
    });
}

#[test]
fn real_protocol_survives_random_and_pct_sweeps() {
    for mode in [
        Mode::Random {
            seed: 0x5ea1,
            schedules: 400,
        },
        Mode::Pct {
            seed: 0x5ea1,
            depth: 3,
            schedules: 400,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(real_scenario);
        assert!(
            out.failure.is_none(),
            "{mode:?}: the replication protocol broke an invariant:\n{}",
            render_trace(&out.failure.unwrap().result)
        );
    }
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn real_protocol_long_randomized_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0x5ea1d,
        schedules: 20_000,
    });
    assert!(expl.explore(real_scenario).failure.is_none());
}

/// One replica slot of a replicated cell, exactly the triple `pmp-repl`
/// keeps per replica: seqlock word, version tag, payload.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    tag: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    fn seeded(tag: u64, value: u64) -> Slot {
        let s = Slot::default();
        s.tag.store(tag, Ordering::SeqCst);
        s.value.store(value, Ordering::SeqCst);
        s
    }
}

/// Replicated write of `(tag = 2, value = 200)` over the initial state
/// `(tag = 1, value = 100)`, racing one single-replica read of replica 0.
///
/// `fixed = true` validates the read with the seqlock discipline the real
/// facade uses; `fixed = false` validates by tag alone.
fn scenario(fixed: bool) {
    let slots: Arc<[Slot; 2]> = Arc::new([Slot::seeded(1, 100), Slot::seeded(1, 100)]);

    {
        let slots = Arc::clone(&slots);
        spawn("writer", move || {
            // Fan the write to every replica, slot 0 first. Only slot 0 is
            // instrumented — the reader never looks at slot 1, so extra
            // sched points there would just widen the exhaustive tree.
            let s = &slots[0];
            s.seq.store(1, Ordering::SeqCst);
            sched_point("repl.write.seq-odd");
            s.value.store(200, Ordering::SeqCst);
            sched_point("repl.torn-window");
            s.tag.store(2, Ordering::SeqCst);
            sched_point("repl.write.tag-published");
            s.seq.store(2, Ordering::SeqCst);

            let s = &slots[1];
            s.seq.store(1, Ordering::SeqCst);
            s.value.store(200, Ordering::SeqCst);
            s.tag.store(2, Ordering::SeqCst);
            s.seq.store(2, Ordering::SeqCst);
        });
    }

    {
        let slots = Arc::clone(&slots);
        spawn("reader", move || {
            let s = &slots[0];
            if fixed {
                // Seqlock validation: only trust the payload when the
                // sequence word was even and unchanged around the loads.
                // On failure the real facade retries via a majority read;
                // declining to assert models that fallback, and is what
                // makes every interleaving safe.
                let s0 = s.seq.load(Ordering::SeqCst);
                sched_point("repl.read.seq-begin");
                let v = s.value.load(Ordering::SeqCst);
                sched_point("repl.read.value");
                let t = s.tag.load(Ordering::SeqCst);
                sched_point("repl.read.tag");
                let s1 = s.seq.load(Ordering::SeqCst);
                if s0 == s1 && s0 % 2 == 0 {
                    assert_eq!(v, t * 100, "seqlock-validated read observed a torn write");
                }
            } else {
                // Buggy shortcut: the tag doubles as the validator. Loading
                // the tag before the payload leaves a window where a fresh
                // payload lands under the stale tag.
                let t = s.tag.load(Ordering::SeqCst);
                sched_point("repl.read.tag-only");
                let v = s.value.load(Ordering::SeqCst);
                assert_eq!(
                    v,
                    t * 100,
                    "torn replicated write visible to single-replica read"
                );
            }
        });
    }
}

/// Minimized failing schedule for the buggy (tag-only) variant, produced
/// via `pmp_model::minimize`. Verified by `checked_in_seed_reproduces_torn_read`:
/// replaying it against `scenario(false)` panics with the torn-write
/// assertion, and the same bytes against `scenario(true)` complete cleanly.
const REPLAY_SEED: &[u8] = &[1];

#[test]
fn seqlock_read_survives_random_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0x9e97,
        schedules: 200,
    });
    let out = expl.explore(|| scenario(true));
    assert!(
        out.failure.is_none(),
        "fixed replicated-write/read protocol failed:\n{}",
        render_trace(&out.failure.unwrap().result)
    );
}

#[test]
fn seqlock_read_survives_exhaustive_exploration() {
    let expl = Explorer::new(Mode::Exhaustive {
        max_schedules: 20_000,
    });
    let out = expl.explore(|| scenario(true));
    assert!(out.failure.is_none());
    assert!(out.complete, "tree fully enumerated ({})", out.schedules);
}

#[test]
fn tag_only_validation_reads_torn_write() {
    for mode in [
        Mode::Random {
            seed: 7,
            schedules: 300,
        },
        Mode::Pct {
            seed: 7,
            depth: 2,
            schedules: 300,
        },
        Mode::Exhaustive {
            max_schedules: 20_000,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(|| scenario(false));
        let found = out
            .failure
            .unwrap_or_else(|| panic!("{mode:?} must catch the torn read"));
        match &found.result.failure {
            Some(Failure::Panic { message, .. }) => {
                assert!(message.contains("torn replicated write"), "got: {message}")
            }
            other => panic!("expected the torn-read assert, got {other:?}"),
        }
        // And the failing schedule replays deterministically.
        let res = replay(&found.schedule, DEFAULT_MAX_STEPS, || scenario(false));
        assert!(matches!(res.failure, Some(Failure::Panic { .. })));
    }
}

#[test]
fn checked_in_seed_reproduces_torn_read() {
    // Buggy variant: the pinned schedule panics on the ghost invariant.
    let res = replay(REPLAY_SEED, DEFAULT_MAX_STEPS, || scenario(false));
    match &res.failure {
        Some(Failure::Panic { message, .. }) => assert!(
            message.contains("torn replicated write"),
            "unexpected failure: {message}"
        ),
        other => panic!("pinned seed no longer reproduces the torn read: {other:?}"),
    }

    // Fixed variant: the very same schedule completes cleanly.
    let res = replay(REPLAY_SEED, DEFAULT_MAX_STEPS, || scenario(true));
    assert!(
        res.failure.is_none(),
        "seqlock validation must survive the pinned schedule: {:?}",
        res.failure
    );
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn long_randomized_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0xabcd,
        schedules: 20_000,
    });
    assert!(expl.explore(|| scenario(true)).failure.is_none());
}
