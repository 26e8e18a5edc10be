//! Node-side snapshot timestamp client with the Linear Lamport Timestamp
//! optimisation (§4.1, borrowed from PolarDB-SCC \[54\]).
//!
//! Allocating a *commit* timestamp is always a one-sided fetch-and-add on
//! the TSO. *Read* snapshots, however, are fetched far more often —
//! especially under read committed, where every statement takes one — and
//! the Linear Lamport scheme lets a request reuse a timestamp whose fetch
//! completed after the request arrived: concurrent snapshot requests
//! coalesce onto a single in-flight TSO read.
//!
//! *Commit* timestamps coalesce too ([`TsoClient::commit_cts`]): committers
//! that arrive while a fetch-and-add is in flight register a waker and
//! suspend on the scheduler's wait path ([`Waiter`]) — a task parks, a
//! thread blocks — and the next FAA reserves a range sized to them.

use std::sync::Arc;
use std::time::Instant;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex, TrackedMutexGuard};
use pmp_common::{Counter, Cts, Result};

use pmp_pmfs::TxnFusion;

use crate::scheduler::{backstop, Waiter, Waker};

/// Linear-Lamport coalescing state. The TSO fetch itself (one-sided read,
/// RDMA-priced) always runs with this lock dropped.
const TSO_STATE: LockClass = LockClass::new("engine.tso_client.state");
/// CTS range-lease state. The TSO fetch-and-add (a charge point) always
/// runs with this lock dropped.
const TSO_LEASE: LockClass = LockClass::new("engine.tso_client.lease");

#[derive(Debug)]
struct State {
    /// Last fetched timestamp and when that fetch *completed*.
    last: Option<(Cts, Instant)>,
    in_flight: bool,
}

/// CTS range-lease state (§4.1 amortization): one remote FAA reserves a
/// contiguous range of timestamps, handed out locally in order to the
/// committers that were *already waiting* when the FAA was issued.
///
/// The sizing rule is the whole safety argument. A range held across
/// commits would hand a pre-reserved timestamp to a commit that *starts
/// later* — after some reader (local or on a peer node) already took a
/// snapshot covering the reserved range — making that commit visible
/// inside an existing snapshot (an SI violation our MVCC tests catch). So
/// the lease is never held: each round's FAA is sized to the requesters
/// present at issue time, every value goes to a commit that preceded the
/// FAA, and a remainder orphaned by a racing round becomes a permanent
/// *gap* — safe, because a timestamp no row ever carries reads as
/// "nothing committed here".
#[derive(Debug, Default)]
struct LeaseState {
    /// A leader's FAA is in flight; arrivals wait for the next round.
    refilling: bool,
    /// Id of the next round to issue. A requester is eligible for a
    /// round's range iff it arrived before that round's FAA was issued,
    /// i.e. its arrival `round_id` is ≤ the round's id.
    round_id: u64,
    /// Round whose range is currently being distributed.
    dist_round: u64,
    /// Undistributed remainder of the distributed round.
    next: u64,
    end: u64,
    /// Committers suspended on an in-flight round, oldest first, one entry
    /// each. They size the next round's FAA; a distributing leader wakes
    /// the eligible ones to pull their timestamps.
    waiters: Vec<(LeaseTicket, Waker)>,
    tickets: u64,
}

/// A commit's place in the lease order, kept by the caller across the
/// suspends of one [`TsoClient::commit_cts`] wait: the round it arrived in
/// (eligibility) and the identity of its entry among the waiters, so a
/// re-run replaces that entry instead of adding one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseTicket {
    round: u64,
    id: u64,
}

/// Per-node TSO client.
pub struct TsoClient {
    fusion: Arc<TxnFusion>,
    state: TrackedMutex<State>,
    cv: TrackedCondvar,
    enabled: bool,
    /// Maximum CTS lease size; 0 or 1 disables leasing.
    lease_max: u64,
    lease: TrackedMutex<LeaseState>,
    pub fetches: Counter,
    pub reuses: Counter,
    /// Remote FAAs issued for commit timestamps (lease refills included).
    pub lease_grants: Counter,
    /// Commit timestamps served from a held lease without fabric traffic.
    pub lease_hits: Counter,
}

impl std::fmt::Debug for TsoClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsoClient")
            .field("enabled", &self.enabled)
            .field("fetches", &self.fetches.get())
            .field("reuses", &self.reuses.get())
            .field("lease_max", &self.lease_max)
            .field("lease_grants", &self.lease_grants.get())
            .field("lease_hits", &self.lease_hits.get())
            .finish()
    }
}

impl TsoClient {
    pub fn new(fusion: Arc<TxnFusion>, linear_lamport: bool, lease_max: u64) -> Self {
        TsoClient {
            fusion,
            state: TrackedMutex::new(
                TSO_STATE,
                State {
                    last: None,
                    in_flight: false,
                },
            ),
            cv: TrackedCondvar::new(),
            enabled: linear_lamport,
            lease_max,
            lease: TrackedMutex::new(TSO_LEASE, LeaseState::default()),
            fetches: Counter::new(),
            reuses: Counter::new(),
            lease_grants: Counter::new(),
            lease_hits: Counter::new(),
        }
    }

    /// Take a read-snapshot timestamp.
    ///
    /// With Linear Lamport enabled, a timestamp whose TSO fetch completed
    /// at or after this request's arrival is reusable: it reflects every
    /// commit that finished before the request arrived. Requests that find
    /// a fetch in flight wait for it instead of issuing their own.
    pub fn snapshot(&self) -> Cts {
        if !self.enabled {
            self.fetches.inc();
            return self.fusion.current_cts();
        }
        // lint: allow(raw-instant): Linear Lamport compares real fetch/arrival times
        let arrival = Instant::now();
        let mut st = self.state.lock();
        loop {
            if let Some((cts, fetched_at)) = st.last {
                if fetched_at >= arrival {
                    self.reuses.inc();
                    return cts;
                }
            }
            if st.in_flight {
                // Someone is fetching; their result will satisfy us
                // (its completion time will be after our arrival).
                self.cv.wait(&mut st);
                continue;
            }
            st.in_flight = true;
            drop(st);

            self.fetches.inc();
            let cts = self.fusion.current_cts();
            // lint: allow(raw-instant): Linear Lamport fetch-completion timestamp
            let done = Instant::now();

            st = self.state.lock();
            st.last = Some((cts, done));
            st.in_flight = false;
            self.cv.notify_all();
            return cts;
        }
    }

    /// Allocate a commit timestamp.
    ///
    /// With range leasing enabled (`lease_max > 1`), concurrent commit
    /// requests coalesce onto one remote FAA: the first requester leads a
    /// *round*, sizing its FAA to itself plus every requester already
    /// suspended (capped at `lease_max`), and the returned range is handed
    /// out locally in order. Demand adapts the round size 1 → `lease_max`
    /// automatically — a lone committer issues a plain FAA of 1; a commit
    /// storm piles waiters onto each in-flight round. Nothing is ever held
    /// across rounds, so an idle node reserves nothing and `current_cts`
    /// never covers a timestamp whose commit had not yet *started* (see
    /// [`LeaseState`] for why holding a range would break SI).
    ///
    /// `ticket` is the caller's place in that order, filled in by the first
    /// call. A committer that has to wait for an in-flight round suspends;
    /// a task among them gets
    /// [`PmpError::WouldBlock`](pmp_common::PmpError::WouldBlock) and calls
    /// again, with the same `ticket`, when woken.
    pub fn commit_cts(&self, ticket: &mut Option<LeaseTicket>) -> Result<Cts> {
        if self.lease_max <= 1 {
            return Ok(self.fusion.next_cts());
        }
        let mut st = self.lease.lock();
        // Eligibility: only rounds whose FAA was issued after our arrival
        // may serve us — a range reserved before we arrived could sit
        // below a snapshot boundary some reader has already taken.
        let mut registered = ticket.is_some(); // a re-run may have left its entry
        let me = *ticket.get_or_insert_with(|| {
            st.tickets += 1;
            LeaseTicket {
                round: st.round_id,
                id: st.tickets,
            }
        });
        loop {
            let served = me.round <= st.dist_round && st.next < st.end;
            if served || !st.refilling {
                if registered {
                    st.waiters.retain(|(t, _)| t.id != me.id);
                }
                if !served {
                    // Lead the next round on behalf of everyone suspended.
                    return Ok(self.lead_round(st));
                }
                let cts = Cts(st.next);
                st.next += 1;
                self.lease_hits.inc();
                return Ok(cts);
            }
            // One entry per committer, in arrival order: a re-check after a
            // wake that was not a distribution's replaces the waker in place.
            let waiter = Waiter::current();
            let waker = waiter.waker();
            match st.waiters.iter_mut().find(|(t, _)| t.id == me.id) {
                Some(entry) => entry.1 = waker,
                None => st.waiters.push((me, waker)),
            }
            registered = true;
            drop(st);
            // The round's distribution wakes us, or wakes a left-over
            // committer to lead the next one.
            waiter.suspend(backstop())?;
            st = self.lease.lock();
        }
    }

    /// Lead one lease round. Called with the lease lock held and no refill
    /// in flight; returns the range's first value — the leader's own
    /// timestamp — with the lock released.
    ///
    /// The FAA is sized to current demand (the leader plus everyone
    /// suspended, capped at `lease_max`). After it, the eligible waiters
    /// (arrival round ≤ this round, oldest first) are woken, one per
    /// remaining value, to pull their timestamps; the wakers fire with the
    /// lease lock dropped. Leadership is bounded to this one round: if
    /// waiters are left over — range exhausted, or they arrived while the
    /// FAA was in flight — the oldest is woken as well, finds no refill in
    /// flight and leads the next round, sized to the rest. Should that wake
    /// not end in a `commit_cts` call (the woken task's node crashed), the
    /// rest lead on their backstop.
    fn lead_round(&self, mut st: TrackedMutexGuard<'_, LeaseState>) -> Cts {
        let round = st.round_id;
        let grant = (1 + st.waiters.len() as u64).min(self.lease_max);
        st.round_id += 1;
        st.refilling = true;
        drop(st);
        // The FAA is a charge point: lease lock dropped.
        let first = self.fusion.lease_cts(grant);
        self.lease_grants.inc();
        let mut st = self.lease.lock();
        st.refilling = false;
        st.dist_round = round;
        // A remainder orphaned by the next round's overwrite is a
        // permanent gap — safe (see [`LeaseState`]).
        st.next = first.0 + 1;
        st.end = first.0 + grant;
        let mut values = st.end - st.next;
        let mut wake: Vec<(LeaseTicket, Waker)> = st
            .waiters
            .extract_if(.., |(ticket, _)| {
                let pulls = ticket.round <= round && values > 0;
                values -= pulls as u64;
                pulls
            })
            .collect();
        if !st.waiters.is_empty() {
            wake.push(st.waiters.remove(0));
        }
        drop(st);
        for (_, waker) in wake {
            waker.wake();
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;
    use pmp_rdma::Fabric;
    use pmp_repl::ReplicatedFabric;
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl TsoClient {
        /// Test support: run `f` as it would see a lease round in flight. The
        /// round then ends the way a leader's does when it served nobody: the
        /// oldest committer left over is woken to lead the next one.
        pub(crate) fn while_refilling<R>(&self, f: impl FnOnce() -> R) -> R {
            {
                let mut st = self.lease.lock();
                st.refilling = true;
                st.round_id += 1;
            }
            let out = f();
            let mut st = self.lease.lock();
            st.refilling = false;
            let next = (!st.waiters.is_empty()).then(|| st.waiters.remove(0));
            drop(st);
            if let Some((_, waker)) = next {
                waker.wake();
            }
            out
        }

        /// Committers suspended behind the round in flight.
        pub(crate) fn suspended(&self) -> usize {
            self.lease.lock().waiters.len()
        }
    }

    fn fusion_on(latency: LatencyConfig) -> Arc<TxnFusion> {
        Arc::new(TxnFusion::new(Arc::new(ReplicatedFabric::single(
            Arc::new(Fabric::new(latency)),
        ))))
    }

    fn client(lamport: bool) -> (Arc<TxnFusion>, TsoClient) {
        let fusion = fusion_on(LatencyConfig::disabled());
        let c = TsoClient::new(Arc::clone(&fusion), lamport, 1);
        (fusion, c)
    }

    fn leasing_client(lease_max: u64) -> (Arc<TxnFusion>, TsoClient) {
        let fusion = fusion_on(LatencyConfig::disabled());
        let c = TsoClient::new(Arc::clone(&fusion), true, lease_max);
        (fusion, c)
    }

    /// One commit timestamp for a plain thread (which never sees `Err`).
    fn commit(c: &TsoClient) -> Cts {
        c.commit_cts(&mut None).expect("a thread waits in place")
    }

    #[test]
    fn snapshot_reflects_prior_commits() {
        let (fusion, c) = client(true);
        let committed = fusion.next_cts();
        let snap = c.snapshot();
        assert!(snap >= committed);
    }

    #[test]
    fn sequential_snapshots_never_reuse_stale_timestamps() {
        let (fusion, c) = client(true);
        let s1 = c.snapshot();
        let committed = fusion.next_cts();
        // Arrival is after the previous fetch completed → must re-fetch.
        let s2 = c.snapshot();
        assert!(s2 >= committed, "s2={s2}, committed={committed}, s1={s1}");
    }

    #[test]
    fn concurrent_snapshots_coalesce_fetches() {
        use std::thread;
        let fusion = fusion_on(
            // A visible fetch latency widens the coalescing window.
            LatencyConfig {
                one_sided_read_ns: 50_000,
                ..LatencyConfig::realistic()
            },
        );
        let c = Arc::new(TsoClient::new(Arc::clone(&fusion), true, 1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..50 {
                        c.snapshot();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = c.fetches.get() + c.reuses.get();
        assert_eq!(total, 400);
        assert!(
            c.reuses.get() > 0,
            "concurrent snapshot storms must coalesce (fetches={}, reuses={})",
            c.fetches.get(),
            c.reuses.get()
        );
    }

    #[test]
    fn disabled_mode_always_fetches() {
        let (_, c) = client(false);
        c.snapshot();
        c.snapshot();
        assert_eq!(c.fetches.get(), 2);
        assert_eq!(c.reuses.get(), 0);
    }

    #[test]
    fn lone_committer_pays_plain_faas_and_stays_ordered() {
        let (fusion, c) = leasing_client(8);
        let atomics_before = fusion.repl().fabric_stats().atomics.get();
        let mut last = Cts(0);
        for _ in 0..10 {
            let cts = commit(&c);
            assert!(cts > last, "single-threaded hand-out stays ordered");
            last = cts;
        }
        // No concurrency → every round has size 1 (nothing reserved ahead
        // of demand, so an idle node never inflates `current_cts`).
        assert_eq!(
            fusion.repl().fabric_stats().atomics.get(),
            atomics_before + 10
        );
        assert_eq!(c.lease_grants.get(), 10);
        assert_eq!(c.lease_hits.get(), 0);
        assert_eq!(fusion.current_cts(), last, "no timestamps left reserved");
    }

    #[test]
    fn lease_disabled_pays_one_faa_per_commit() {
        let (fusion, c) = leasing_client(1);
        let before = fusion.repl().fabric_stats().atomics.get();
        commit(&c);
        commit(&c);
        assert_eq!(fusion.repl().fabric_stats().atomics.get(), before + 2);
        assert_eq!(c.lease_grants.get(), 0);
    }

    #[test]
    fn commit_after_snapshot_always_exceeds_it() {
        use std::sync::atomic::AtomicBool;
        use std::thread;
        // The SI-safety invariant leasing must preserve: a commit_cts call
        // issued *after* a current_cts read always returns a larger value.
        // A held-range lease breaks this (the storm's reservation would sit
        // below the snapshot and later commits would dip under it).
        let fusion = fusion_on(LatencyConfig::disabled());
        let c = Arc::new(TsoClient::new(Arc::clone(&fusion), true, 16));
        let stop = Arc::new(AtomicBool::new(false));
        let storm: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        commit(&c);
                    }
                })
            })
            .collect();
        for _ in 0..2_000 {
            let snapshot = fusion.current_cts();
            let cts = commit(&c);
            assert!(
                cts > snapshot,
                "commit started after snapshot {snapshot} got visible CTS {cts}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in storm {
            h.join().unwrap();
        }
    }

    #[test]
    fn committer_suspended_behind_a_refill_is_served_by_the_next_leader() {
        let (_, c) = leasing_client(8);
        let c = Arc::new(c);
        hold_refill(&c);
        let follower = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || commit(&c))
        };
        crate::scheduler::eventually("follower never registered", || {
            c.lease.lock().waiters.len() == 1
        });
        // The simulated leader vanishes (crash-style); the next committer
        // leads round 1, sized for both, and wakes the follower to pull.
        c.lease.lock().refilling = false;
        let leader_cts = commit(&c);
        let follower_cts = follower.join().unwrap();
        assert_eq!(follower_cts, Cts(leader_cts.0 + 1), "one FAA of two");
        assert_eq!(c.lease_grants.get(), 1);
        assert_eq!(c.lease_hits.get(), 1, "a pulled value is a lease hit");
        assert!(c.lease.lock().waiters.is_empty());
    }

    /// Simulate a round-0 FAA in flight: arrivals must wait for round 1.
    fn hold_refill(c: &TsoClient) {
        let mut st = c.lease.lock();
        st.refilling = true;
        st.round_id = 1;
    }

    /// A scheduler task that commits once: its step count, and the
    /// timestamp and ticket it ended with.
    type Committed = Arc<TrackedMutex<Option<(Cts, LeaseTicket)>>>;
    fn commit_task(
        sched: &crate::scheduler::Scheduler,
        c: &Arc<TsoClient>,
    ) -> (Arc<crate::scheduler::Parker>, Arc<AtomicUsize>, Committed) {
        use crate::scheduler::StepResult;
        let runs = Arc::new(AtomicUsize::new(0));
        let got: Committed = Arc::new(TrackedMutex::new(TSO_STATE, None));
        let (c2, runs2, got2) = (Arc::clone(c), Arc::clone(&runs), Arc::clone(&got));
        let mut ticket = None;
        let parker = sched.spawn(Box::new(move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            match c2.commit_cts(&mut ticket) {
                Ok(cts) => {
                    *got2.lock() = Some((cts, ticket.expect("filled by the first call")));
                    StepResult::Done
                }
                Err(_) => StepResult::Parked,
            }
        }));
        (parker, runs, got)
    }

    #[test]
    fn a_task_behind_a_refill_parks_and_keeps_its_arrival_round() {
        use crate::scheduler::{eventually, Scheduler};
        let (_, c) = leasing_client(8);
        let c = Arc::new(c);
        hold_refill(&c);
        let sched = Scheduler::new(1);
        let (parker, runs, got) = commit_task(&sched, &c);
        eventually("task never parked", || parker.is_parked());
        assert_eq!(c.lease.lock().waiters.len(), 1);
        // Wakes that are not a distribution's (a stale timer, another wait
        // source's late waker) re-run the wait: it keeps its one entry.
        for rerun in 2..=4 {
            parker.wake();
            eventually("task never re-parked", || {
                runs.load(Ordering::SeqCst) == rerun && parker.is_parked()
            });
            assert_eq!(c.lease.lock().waiters.len(), 1, "re-run {rerun}");
        }
        // The next committer leads round 1, sized for both. The re-run task
        // pulls from it although round 2 is current by then: eligibility is
        // judged by the round it *arrived* in, which the caller keeps.
        c.lease.lock().refilling = false;
        let first = commit(&c);
        eventually("task never served", || got.lock().is_some());
        let (cts, ticket) = got.lock().take().unwrap();
        assert_eq!(ticket.round, 1);
        assert_eq!(cts, Cts(first.0 + 1));
        assert_eq!(c.lease_grants.get(), 1, "one FAA of two");
        assert!(c.lease.lock().waiters.is_empty());
        assert_eq!(sched.stats().timer_fires.get(), 0);
    }

    #[test]
    fn committers_behind_a_lost_hand_off_lead_on_their_backstop() {
        use crate::scheduler::{eventually, Scheduler};
        // Two tasks and a thread wait out a round whose leader's hand-off
        // never produces the next one: the woken committer's node crashed,
        // so it returned `NodeUnavailable` before reaching `commit_cts`.
        // Nobody else will ever call; each must still get a timestamp.
        let (_, c) = leasing_client(8);
        let c = Arc::new(c);
        hold_refill(&c);
        let sched = Scheduler::new(2);
        let tasks = [commit_task(&sched, &c), commit_task(&sched, &c)];
        let thread = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || commit(&c))
        };
        eventually("never all suspended", || {
            c.lease.lock().waiters.len() == 3 && tasks.iter().all(|(p, ..)| p.is_parked())
        });
        c.lease.lock().refilling = false; // the round ends; no wake reaches a leader
        let mut all = vec![thread.join().unwrap()];
        for (_, _, got) in &tasks {
            eventually("a parked committer was stranded", || got.lock().is_some());
            all.push(got.lock().unwrap().0);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 3, "unique timestamps");
        assert!(c.lease.lock().waiters.is_empty());
        assert!(sched.stats().timer_fires.get() >= 1, "the backstop fired");
    }

    #[test]
    fn lease_leadership_is_one_round_per_call() {
        use std::collections::HashSet;
        use std::thread;
        // 8 committers x 200 on a visible FAA latency: every call returns a
        // unique timestamp above any snapshot taken before it, and a call
        // leads at most one round — each timestamp is either the first of a
        // round its caller led or a pull.
        let fusion = fusion_on(LatencyConfig {
            atomic_ns: 20_000,
            ..LatencyConfig::realistic()
        });
        let c = Arc::new(TsoClient::new(Arc::clone(&fusion), true, 16));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (c, fusion) = (Arc::clone(&c), Arc::clone(&fusion));
                thread::spawn(move || {
                    (0..200)
                        .map(|_| {
                            let snapshot = fusion.current_cts();
                            let cts = commit(&c);
                            assert!(cts > snapshot, "{cts} dipped under snapshot {snapshot}");
                            cts
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for cts in h.join().unwrap() {
                assert!(all.insert(cts), "duplicate leased CTS {cts}");
            }
        }
        assert_eq!(all.len(), 1_600);
        assert_eq!(c.lease_grants.get() + c.lease_hits.get(), 1_600);
        assert!(c.lease_grants.get() < 1_600, "rounds must coalesce");
        assert!(c.lease.lock().waiters.is_empty());
    }

    #[test]
    fn concurrent_leased_commits_coalesce_and_stay_unique() {
        use std::collections::HashSet;
        use std::thread;
        let fusion = fusion_on(
            // A visible FAA latency widens each round's collect window.
            LatencyConfig {
                atomic_ns: 60_000,
                ..LatencyConfig::realistic()
            },
        );
        let c = Arc::new(TsoClient::new(Arc::clone(&fusion), true, 16));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || (0..50).map(|_| commit(&c)).collect::<Vec<_>>())
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for cts in h.join().unwrap() {
                assert!(all.insert(cts), "duplicate leased CTS {cts}");
            }
        }
        assert_eq!(all.len(), 400);
        assert!(
            c.lease_grants.get() < 400,
            "concurrent commits must coalesce onto shared FAAs ({} grants)",
            c.lease_grants.get()
        );
        assert_eq!(c.lease_grants.get() + c.lease_hits.get(), 400);
    }
}
