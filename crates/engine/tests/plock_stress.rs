//! PLock protocol stress: many nodes × threads hammering a small page set
//! with mixed S/X acquisitions through the full stack (local lazy cache +
//! Lock Fusion + negotiation). A ghost reader/writer counter per page
//! proves the protocol's exclusion invariant *across nodes*: never a
//! writer with any other holder.
//!
//! Note what is and isn't guaranteed: the X PLock excludes *other nodes*,
//! while threads within one node are expected to coordinate with latches
//! (§4.3.1 "It does not apply to concurrent page access within a single
//! node") — so the ghost state tracks holders per (page, node) and checks
//! cross-node exclusion only.

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pmp_common::{LatencyConfig, NodeId, PageId};
use pmp_engine::plock_local::LocalPLocks;
use pmp_pmfs::{PLockFusion, PLockMode};
use pmp_rdma::Fabric;
use pmp_repl::ReplicatedFabric;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const NODES: usize = 4;
const THREADS_PER_NODE: usize = 3;
const PAGES: usize = 8;
const OPS: usize = 400;

/// Cross-node ghost state for one page: bit-packed per-node holder counts.
/// `writers[n]` / `readers[n]` count node n's threads inside a guard.
struct Ghost {
    readers: [AtomicI32; NODES],
    writers: [AtomicI32; NODES],
}

impl Ghost {
    fn new() -> Self {
        Ghost {
            readers: Default::default(),
            writers: Default::default(),
        }
    }

    fn check_invariant(&self, me: usize) {
        // If any node writes, no OTHER node may hold anything.
        let mut writing_nodes = 0;
        let mut holding_nodes = 0;
        let mut i_write = false;
        for n in 0..NODES {
            let w = self.writers[n].load(Ordering::SeqCst);
            let r = self.readers[n].load(Ordering::SeqCst);
            assert!(w >= 0 && r >= 0, "negative ghost count");
            if w > 0 {
                writing_nodes += 1;
            }
            if w > 0 || r > 0 {
                holding_nodes += 1;
            }
            // Judged from the same read that was counted: a thread of this
            // node taking X (a local grant under the node's X hold) between
            // the pass and a second read would otherwise fail an S holder's
            // check with "1 nodes hold the page".
            i_write |= n == me && w > 0;
        }
        if i_write {
            assert!(
                writing_nodes == 1 && holding_nodes == 1,
                "node {me} holds X but {holding_nodes} nodes hold the page"
            );
        }
    }
}

#[test]
fn cross_node_exclusion_holds_under_stress() {
    let fabric = Arc::new(Fabric::new(LatencyConfig::disabled()));
    let fusion = Arc::new(PLockFusion::new(Arc::new(ReplicatedFabric::single(
        Arc::clone(&fabric),
    ))));
    let locals: Vec<Arc<LocalPLocks>> = (0..NODES)
        .map(|n| {
            let l = LocalPLocks::new(
                NodeId(n as u16),
                Arc::clone(&fusion),
                true,
                Duration::from_secs(10),
            );
            fusion.register_node(NodeId(n as u16), Arc::clone(&l));
            l
        })
        .collect();
    let ghosts: Arc<Vec<Ghost>> = Arc::new((0..PAGES).map(|_| Ghost::new()).collect());

    std::thread::scope(|scope| {
        for (node, node_local) in locals.iter().enumerate() {
            for thread in 0..THREADS_PER_NODE {
                let local = Arc::clone(node_local);
                let ghosts = Arc::clone(&ghosts);
                scope.spawn(move || {
                    let mut rng =
                        SmallRng::seed_from_u64((node * THREADS_PER_NODE + thread) as u64);
                    for _ in 0..OPS {
                        let page = rng.random_range(0..PAGES);
                        let exclusive = rng.random_range(0..100u32) < 30;
                        let mode = if exclusive {
                            PLockMode::X
                        } else {
                            PLockMode::S
                        };
                        let guard = local.acquire(PageId(page as u64 + 1), mode).unwrap();
                        let ghost = &ghosts[page];
                        if exclusive {
                            ghost.writers[node].fetch_add(1, Ordering::SeqCst);
                        } else {
                            ghost.readers[node].fetch_add(1, Ordering::SeqCst);
                        }
                        ghost.check_invariant(node);
                        // Hold briefly so overlaps actually happen.
                        if rng.random_range(0..4u32) == 0 {
                            std::thread::yield_now();
                        }
                        ghost.check_invariant(node);
                        if exclusive {
                            ghost.writers[node].fetch_sub(1, Ordering::SeqCst);
                        } else {
                            ghost.readers[node].fetch_sub(1, Ordering::SeqCst);
                        }
                        drop(guard);
                    }
                });
            }
        }
    });

    // Drain: every lock must be releasable and the fusion table must agree
    // that handing everything back leaves no holders.
    for local in &locals {
        local.release_idle();
    }
    for page in 0..PAGES {
        assert!(
            fusion.holders(PageId(page as u64 + 1)).is_empty(),
            "page {page} still held after drain"
        );
        assert_eq!(fusion.queue_len(PageId(page as u64 + 1)), 0);
    }
    let st = fusion.stats();
    assert_eq!(st.timeouts.get(), 0, "no stress op may time out");
    assert_eq!(
        st.immediate_grants.get() + st.queued_grants.get() + st.timeouts.get(),
        st.acquires.get(),
        "every request is granted at once, granted from the queue or withdrawn — once"
    );
}

#[test]
fn negotiation_storm_converges() {
    // Two nodes repeatedly demand X on the SAME page: every acquisition is
    // a negotiation-driven transfer. The protocol must neither deadlock
    // nor starve either side.
    let fabric = Arc::new(Fabric::new(LatencyConfig::disabled()));
    let fusion = Arc::new(PLockFusion::new(Arc::new(ReplicatedFabric::single(
        Arc::clone(&fabric),
    ))));
    let locals: Vec<Arc<LocalPLocks>> = (0..2)
        .map(|n| {
            let l = LocalPLocks::new(
                NodeId(n as u16),
                Arc::clone(&fusion),
                true,
                Duration::from_secs(10),
            );
            fusion.register_node(NodeId(n as u16), Arc::clone(&l));
            l
        })
        .collect();

    let page = PageId(42);
    let counts: Vec<_> = (0..2).map(|_| Arc::new(AtomicI32::new(0))).collect();
    std::thread::scope(|scope| {
        for node in 0..2 {
            let local = Arc::clone(&locals[node]);
            let count = Arc::clone(&counts[node]);
            scope.spawn(move || {
                for _ in 0..300 {
                    let g = local.acquire(page, PLockMode::X).unwrap();
                    count.fetch_add(1, Ordering::SeqCst);
                    drop(g);
                }
            });
        }
    });
    assert_eq!(counts[0].load(Ordering::SeqCst), 300);
    assert_eq!(counts[1].load(Ordering::SeqCst), 300);
    // On a single-core host the threads interleave only at scheduler
    // granularity, so the absolute count is small — but transfers must
    // have happened (each one is a negotiation + re-acquire).
    assert!(
        fusion.stats().negotiations.get() >= 1,
        "the storm must actually have negotiated transfers"
    );
    assert!(fusion.holders(page).len() <= 1);
}
