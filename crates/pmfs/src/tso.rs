//! The Timestamp Oracle (TSO), §4.1.
//!
//! A single 64-bit cell in PMFS's registered memory. Commit timestamps are
//! allocated with a one-sided RDMA fetch-and-add; read snapshots take a
//! one-sided read of the current value. "The CTS is usually fetched by using
//! a one-sided RDMA operation, which is typically completed within several
//! microseconds and has been found to not be a bottleneck in our tests."
//!
//! The cell is a [`ReplCell`]: with `replicas = 1` every verb is exactly the
//! raw fabric verb; with more, the high-water mark lands in place on every
//! PMFS replica, so a replica crash never rewinds the oracle (DESIGN.md §15).

use std::sync::Arc;

use pmp_common::{Cts, CSN_MIN};
use pmp_repl::{Locality, ReplCell, ReplicatedFabric};

/// The global Timestamp Oracle hosted in Transaction Fusion.
#[derive(Debug)]
pub struct Tso {
    /// Last allocated commit timestamp. Starts at `CSN_MIN`, so the first
    /// commit gets `CSN_MIN + 1` and bootstrap rows stamped `CSN_MIN` are
    /// visible to every snapshot.
    cell: Arc<ReplCell>,
}

impl Tso {
    pub fn new(repl: &ReplicatedFabric) -> Self {
        Tso {
            cell: repl.cell(CSN_MIN.0),
        }
    }

    /// Allocate the next commit timestamp (one-sided fetch-and-add). Nodes
    /// are always remote from PMFS memory.
    pub fn next_cts(&self, repl: &ReplicatedFabric) -> Cts {
        Cts(repl.fetch_add_u64(&self.cell, 1, Locality::Remote) + 1)
    }

    /// Reserve a contiguous lease of `count` commit timestamps with a single
    /// fetch-and-add; returns the *first* of the range. Used by the engine's
    /// CTS range leasing: `lease(f, 1)` is exactly `next_cts`.
    pub fn lease(&self, repl: &ReplicatedFabric, count: u64) -> Cts {
        debug_assert!(count > 0, "empty CTS lease");
        Cts(repl.fetch_add_u64(&self.cell, count, Locality::Remote) + 1)
    }

    /// Advance the oracle to at least `floor` — used when a promoted
    /// region inherits timestamps from shipped logs (failover must never
    /// reissue a CTS at or below anything already committed).
    pub fn advance_to(&self, repl: &ReplicatedFabric, floor: Cts) {
        // One remote read seeds the CAS loop; every retry reuses the
        // current value the failed CAS already fetched instead of paying a
        // fresh remote read per lap.
        let mut cur = repl.read_u64(&self.cell, Locality::Remote);
        while cur < floor.0 {
            match repl.cas_u64(&self.cell, cur, floor.0, Locality::Remote) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Read the current timestamp for a read snapshot (one-sided read).
    /// Every commit with CTS ≤ this value has already been assigned its
    /// timestamp; fetch-and-add ordering makes the value a consistent
    /// snapshot boundary.
    pub fn current_cts(&self, repl: &ReplicatedFabric) -> Cts {
        Cts(repl.read_u64(&self.cell, Locality::Remote))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::LatencyConfig;
    use pmp_rdma::Fabric;

    fn repl() -> ReplicatedFabric {
        ReplicatedFabric::single(Arc::new(Fabric::new(LatencyConfig::disabled())))
    }

    #[test]
    fn allocation_is_strictly_increasing() {
        let repl = repl();
        let tso = Tso::new(&repl);
        let a = tso.next_cts(&repl);
        let b = tso.next_cts(&repl);
        assert!(b > a);
        assert!(a > CSN_MIN, "first commit CTS must exceed CSN_MIN");
    }

    #[test]
    fn current_tracks_last_allocation() {
        let repl = repl();
        let tso = Tso::new(&repl);
        assert_eq!(tso.current_cts(&repl), CSN_MIN);
        let c = tso.next_cts(&repl);
        assert_eq!(tso.current_cts(&repl), c);
    }

    #[test]
    fn lease_reserves_contiguous_range() {
        let repl = repl();
        let tso = Tso::new(&repl);
        let first = tso.lease(&repl, 8);
        assert!(first > CSN_MIN);
        // The whole range is consumed: the next allocation starts after it.
        let next = tso.next_cts(&repl);
        assert_eq!(next.0, first.0 + 8);
        // One lease = one remote atomic, regardless of size.
        assert_eq!(repl.fabric_stats().atomics.get(), 2);
    }

    #[test]
    fn advance_to_charges_one_read_even_under_contention() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let repl = Arc::new(repl());
        let tso = Arc::new(Tso::new(&repl));
        let stop = Arc::new(AtomicBool::new(false));
        // An FAA storm guarantees CAS retries inside advance_to.
        let storm: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&repl);
                let t = Arc::clone(&tso);
                let s = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !s.load(Ordering::Relaxed) {
                        t.next_cts(&f);
                    }
                })
            })
            .collect();
        let rounds = 200;
        let reads_before = repl.fabric_stats().reads.get();
        for i in 0..rounds {
            tso.advance_to(&repl, Cts(CSN_MIN.0 + 1_000_000 + i * 1_000));
        }
        let reads_after = repl.fabric_stats().reads.get();
        stop.store(true, Ordering::Relaxed);
        for h in storm {
            h.join().unwrap();
        }
        // Regression: the retry loop must reuse the value returned by the
        // failed CAS — exactly one charged read per advance_to call. (The
        // storm threads only issue FAAs, never reads.)
        assert_eq!(reads_after - reads_before, rounds);
        assert!(tso.current_cts(&repl).0 >= CSN_MIN.0 + 1_000_000);
    }

    #[test]
    fn concurrent_allocation_yields_unique_cts() {
        use std::collections::HashSet;
        let repl = Arc::new(repl());
        let tso = Arc::new(Tso::new(&repl));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let f = Arc::clone(&repl);
                let t = Arc::clone(&tso);
                std::thread::spawn(move || (0..500).map(|_| t.next_cts(&f)).collect::<Vec<_>>())
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for c in h.join().unwrap() {
                assert!(all.insert(c), "duplicate CTS {c}");
            }
        }
        assert_eq!(all.len(), 4000);
    }

    #[test]
    fn replicated_tso_survives_a_replica_crash() {
        let repl = ReplicatedFabric::new(Arc::new(Fabric::new(LatencyConfig::disabled())), 3, 2);
        let tso = Tso::new(&repl);
        let c = tso.next_cts(&repl);
        assert!(repl.crash_replica(0));
        // The high-water mark survives: the next allocation never reuses c.
        let d = tso.next_cts(&repl);
        assert!(d > c, "oracle rewound across a replica crash: {c} -> {d}");
        assert!(repl.recover_replica(0));
        let e = tso.next_cts(&repl);
        assert!(e > d);
    }
}
