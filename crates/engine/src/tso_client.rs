//! Node-side snapshot timestamp client with the Linear Lamport Timestamp
//! optimisation (§4.1, borrowed from PolarDB-SCC \[54\]).
//!
//! Allocating a *commit* timestamp is always a one-sided fetch-and-add on
//! the TSO. *Read* snapshots, however, are fetched far more often —
//! especially under read committed, where every statement takes one — and
//! the Linear Lamport scheme lets a request reuse a timestamp whose fetch
//! completed after the request arrived: concurrent snapshot requests
//! coalesce onto a single in-flight TSO read.

use std::sync::Arc;
use std::time::Instant;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex, TrackedMutexGuard};
use pmp_common::{Counter, Cts};

use pmp_io::Completion;
use pmp_pmfs::TxnFusion;

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
struct LeaseState {
    /// A leader's FAA is in flight; arrivals queue for the next round.
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
    /// Requesters parked on the lease condvar (sizes the next grant).
    waiters: u64,
    /// Async committers parked on an in-flight round: arrival round plus
    /// the callback that hands them their timestamp. The same eligibility
    /// rule as condvar waiters applies (arrival round ≤ distributed
    /// round); the distributing leader serves them directly and fires the
    /// callbacks with the lease lock dropped.
    callbacks: Vec<(u64, GrantCallback)>,
}

/// Fired with a parked async committer's timestamp once a lease round
/// eligible to serve it is distributed.
type GrantCallback = Box<dyn FnOnce(Cts) + Send>;

impl std::fmt::Debug for LeaseState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseState")
            .field("refilling", &self.refilling)
            .field("round_id", &self.round_id)
            .field("dist_round", &self.dist_round)
            .field("next", &self.next)
            .field("end", &self.end)
            .field("waiters", &self.waiters)
            .field("callbacks", &self.callbacks.len())
            .finish()
    }
}

/// Result of a non-blocking commit-timestamp request.
#[derive(Debug)]
pub enum CtsGrant {
    /// The timestamp was available without waiting (lease hit, or this
    /// caller led a refill round inline — one bounded remote FAA).
    Ready(Cts),
    /// A refill FAA led by another committer is in flight; the completion
    /// delivers this caller's timestamp when an eligible round is
    /// distributed. Never blocks indefinitely: every in-flight round is
    /// followed by a distribution, and distributing leaders keep leading
    /// follow-up rounds while parked callbacks remain.
    Pending(Completion<Cts>),
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
    lease_cv: TrackedCondvar,
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
            lease: TrackedMutex::new(
                TSO_LEASE,
                LeaseState {
                    refilling: false,
                    round_id: 0,
                    dist_round: 0,
                    next: 0,
                    end: 0,
                    waiters: 0,
                    callbacks: Vec::new(),
                },
            ),
            lease_cv: TrackedCondvar::new(),
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
    /// parked (capped at `lease_max`), and the returned range is handed
    /// out locally in order. Demand adapts the round size 1 → `lease_max`
    /// automatically — a lone committer issues a plain FAA of 1; a commit
    /// storm piles waiters onto each in-flight round. Nothing is ever held
    /// across rounds, so an idle node reserves nothing and `current_cts`
    /// never covers a timestamp whose commit had not yet *started* (see
    /// [`LeaseState`] for why holding a range would break SI).
    pub fn commit_cts(&self) -> Cts {
        if self.lease_max <= 1 {
            return self.fusion.next_cts();
        }
        let mut st = self.lease.lock();
        // Eligibility: only rounds whose FAA was issued after our arrival
        // may serve us — a range reserved before we arrived could sit
        // below a snapshot boundary some reader has already taken.
        let my_round = st.round_id;
        loop {
            if my_round <= st.dist_round && st.next < st.end {
                let cts = Cts(st.next);
                st.next += 1;
                self.lease_hits.inc();
                return cts;
            }
            if !st.refilling {
                // Lead the next round on behalf of everyone parked.
                return self.lead_rounds(st);
            }
            st.waiters += 1;
            self.lease_cv.wait(&mut st);
            st.waiters -= 1;
        }
    }

    /// Non-blocking commit-timestamp allocation for the async scheduler.
    ///
    /// Same protocol as [`commit_cts`](Self::commit_cts), minus the condvar
    /// park: a lease hit or an uncontended inline lead returns
    /// [`CtsGrant::Ready`] (the lead is one bounded remote FAA — acceptable
    /// on a scheduler worker); if a refill is already in flight the caller
    /// is registered as a parked callback and gets [`CtsGrant::Pending`],
    /// whose completion the distributing leader fulfils.
    pub fn commit_cts_deferred(&self) -> CtsGrant {
        if self.lease_max <= 1 {
            return CtsGrant::Ready(self.fusion.next_cts());
        }
        let mut st = self.lease.lock();
        let my_round = st.round_id;
        if my_round <= st.dist_round && st.next < st.end {
            let cts = Cts(st.next);
            st.next += 1;
            self.lease_hits.inc();
            return CtsGrant::Ready(cts);
        }
        if st.refilling {
            let completion = Completion::new();
            let done = completion.clone();
            st.callbacks
                .push((my_round, Box::new(move |cts| done.complete(cts))));
            return CtsGrant::Pending(completion);
        }
        CtsGrant::Ready(self.lead_rounds(st))
    }

    /// Lead lease refill rounds until every parked async callback has been
    /// served. Called with the lease lock held and no refill in flight;
    /// returns the first round's first value — the leader's own timestamp —
    /// with the lock released.
    ///
    /// Each round's FAA is sized to current demand (leader + condvar
    /// waiters + eligible callbacks, capped at `lease_max`). Distribution
    /// order: leader first, then eligible callbacks (arrival round ≤ the
    /// distributed round, FIFO), then the condvar waiters are woken to pull
    /// the remainder themselves. Callbacks fire with the lease lock
    /// dropped. Callbacks left over — range exhausted, or registered while
    /// this round's FAA was in flight — make the leader loop and lead a
    /// follow-up round, unless a woken waiter already took over leading.
    fn lead_rounds<'a>(&'a self, mut st: TrackedMutexGuard<'a, LeaseState>) -> Cts {
        let mut own: Option<Cts> = None;
        loop {
            let round = st.round_id;
            let eligible = st.callbacks.iter().filter(|(r, _)| *r <= round).count() as u64;
            let demand = own.is_none() as u64 + st.waiters + eligible;
            let grant = demand.min(self.lease_max).max(1);
            st.round_id += 1;
            st.refilling = true;
            drop(st);
            // The FAA is a charge point: lease lock dropped.
            let first = self.fusion.lease_cts(grant);
            self.lease_grants.inc();
            let mut fire: Vec<(GrantCallback, Cts)> = Vec::new();
            st = self.lease.lock();
            st.refilling = false;
            st.dist_round = round;
            // A remainder orphaned by the next round's overwrite is a
            // permanent gap — safe (see [`LeaseState`]).
            st.next = first.0;
            st.end = first.0 + grant;
            if own.is_none() {
                // Leader takes the range's first value.
                own = Some(Cts(st.next));
                st.next += 1;
            }
            let mut i = 0;
            while i < st.callbacks.len() && st.next < st.end {
                if st.callbacks[i].0 <= round {
                    let (_, cb) = st.callbacks.remove(i);
                    fire.push((cb, Cts(st.next)));
                    st.next += 1;
                    self.lease_hits.inc();
                } else {
                    i += 1;
                }
            }
            self.lease_cv.notify_all();
            let done = st.callbacks.is_empty();
            drop(st);
            for (cb, cts) in fire {
                cb(cts);
            }
            if done {
                return own.expect("first round always serves the leader");
            }
            st = self.lease.lock();
            if st.refilling || st.callbacks.is_empty() {
                // A woken waiter became the next leader (its round will
                // serve the remaining callbacks), or they are gone.
                return own.expect("first round always serves the leader");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;
    use pmp_rdma::Fabric;
    use pmp_repl::ReplicatedFabric;

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
            let cts = c.commit_cts();
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
        c.commit_cts();
        c.commit_cts();
        assert_eq!(fusion.repl().fabric_stats().atomics.get(), before + 2);
        assert_eq!(c.lease_grants.get(), 0);
    }

    #[test]
    fn commit_after_snapshot_always_exceeds_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
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
                        c.commit_cts();
                    }
                })
            })
            .collect();
        for _ in 0..2_000 {
            let snapshot = fusion.current_cts();
            let cts = c.commit_cts();
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
    fn deferred_commit_is_ready_when_uncontended() {
        let (fusion, c) = leasing_client(8);
        let mut last = Cts(0);
        for _ in 0..5 {
            match c.commit_cts_deferred() {
                CtsGrant::Ready(cts) => {
                    assert!(cts > last, "inline leads stay ordered");
                    last = cts;
                }
                CtsGrant::Pending(_) => panic!("no refill in flight → must be Ready"),
            }
        }
        // Uncontended: every call led its own size-1 round inline.
        assert_eq!(c.lease_grants.get(), 5);
        assert_eq!(c.lease_hits.get(), 0);
        assert_eq!(fusion.current_cts(), last, "no timestamps left reserved");
    }

    #[test]
    fn deferred_commit_parked_behind_refill_is_served_by_next_leader() {
        let (_, c) = leasing_client(8);
        // Simulate a round-0 FAA in flight: arrivals must park for round 1.
        {
            let mut st = c.lease.lock();
            st.refilling = true;
            st.round_id = 1;
        }
        let pending = match c.commit_cts_deferred() {
            CtsGrant::Pending(p) => p,
            CtsGrant::Ready(_) => panic!("refill in flight → must park"),
        };
        assert!(!pending.is_ready());
        // The simulated leader vanishes (crash-style); the next blocking
        // committer leads round 1 and must serve the parked callback.
        c.lease.lock().refilling = false;
        let leader_cts = c.commit_cts();
        let cb_cts = pending
            .try_take()
            .expect("leader distribution serves callbacks");
        assert_ne!(cb_cts, leader_cts);
        assert!(cb_cts > Cts(0));
        assert_eq!(
            c.lease_hits.get(),
            1,
            "callback grant counts as a lease hit"
        );
        assert!(c.lease.lock().callbacks.is_empty());
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
                thread::spawn(move || (0..50).map(|_| c.commit_cts()).collect::<Vec<_>>())
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
