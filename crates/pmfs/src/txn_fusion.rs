//! Transaction Fusion (§4.1): the TSO, the TIT directory, and the global
//! minimum-view consolidation that drives TIT recycling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedRwLock};
use pmp_common::{Cts, GlobalTrxId, NodeId, CSN_INIT, CSN_MAX, CSN_MIN};
use pmp_repl::{Locality, ReplicatedFabric};

/// Node → TIT-region directory (written once per node at startup).
const TXN_REGIONS: LockClass = LockClass::new("pmfs.txnfusion.regions");
/// Node → latest reported minimal view.
const TXN_NODE_VIEWS: LockClass = LockClass::new("pmfs.txnfusion.node_views");

use crate::tit::TitRegion;
use crate::tso::Tso;

/// The Transaction Fusion service.
///
/// Besides hosting the TSO, it acts as the cluster's TIT *directory*: at
/// startup each node registers its TIT region ("each node synchronizes the
/// starting address of its TIT with other nodes"), after which any node can
/// resolve a [`GlobalTrxId`] to the owning region and read the slot with a
/// one-sided verb — no RPC on the visibility path.
///
/// All fabric traffic goes through the [`ReplicatedFabric`], so with
/// `replicas > 1` the TSO high-water mark and every TIT word survive a PMFS
/// replica crash (DESIGN.md §15).
#[derive(Debug)]
pub struct TxnFusion {
    repl: Arc<ReplicatedFabric>,
    tso: Tso,
    regions: TrackedRwLock<HashMap<NodeId, Arc<TitRegion>>>,
    /// Latest minimal view reported by each node.
    node_views: TrackedRwLock<HashMap<NodeId, Cts>>,
    global_min_view: AtomicU64,
}

impl TxnFusion {
    pub fn new(repl: Arc<ReplicatedFabric>) -> Self {
        TxnFusion {
            tso: Tso::new(&repl),
            repl,
            regions: TrackedRwLock::new(TXN_REGIONS, HashMap::new()),
            node_views: TrackedRwLock::new(TXN_NODE_VIEWS, HashMap::new()),
            global_min_view: AtomicU64::new(CSN_INIT.0),
        }
    }

    /// The replication facade the fusion state lives on.
    pub fn repl(&self) -> &Arc<ReplicatedFabric> {
        &self.repl
    }

    pub fn tso(&self) -> &Tso {
        &self.tso
    }

    /// Allocate a commit timestamp (one-sided FAA on the TSO).
    pub fn next_cts(&self) -> Cts {
        self.tso.next_cts(&self.repl)
    }

    /// Reserve a contiguous lease of `count` commit timestamps with one
    /// FAA; returns the first of the range (see [`Tso::lease`]).
    pub fn lease_cts(&self, count: u64) -> Cts {
        self.tso.lease(&self.repl, count)
    }

    /// Read the current timestamp for a read view (one-sided read).
    pub fn current_cts(&self) -> Cts {
        self.tso.current_cts(&self.repl)
    }

    /// Register (or re-register after recovery) a node's TIT region.
    /// Models the startup address synchronization of §4.1.
    pub fn register_region(&self, region: Arc<TitRegion>) {
        self.regions.write().insert(region.node(), region);
    }

    /// Remove a node's registration (node decommission).
    pub fn unregister_region(&self, node: NodeId) {
        self.regions.write().remove(&node);
        self.node_views.write().remove(&node);
    }

    pub fn region(&self, node: NodeId) -> Option<Arc<TitRegion>> {
        self.regions.read().get(&node).cloned()
    }

    /// Nodes with registered TIT regions, in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.regions.read().keys().copied().collect();
        v.sort();
        v
    }

    /// Resolve the CTS of the transaction identified by `gid`, as observed
    /// by `caller` — the TIT half of Algorithm 1 (lines 7–21).
    ///
    /// * slot version ≠ gid version → the slot was recycled, the transaction
    ///   committed long ago and is visible to everyone → `CSN_MIN`;
    /// * CTS still `CSN_INIT` → the transaction is active → `CSN_MAX`;
    /// * otherwise → the recorded commit timestamp.
    ///
    /// Local lookups are plain memory reads; remote ones pay one one-sided
    /// fabric read.
    pub fn trx_cts(&self, caller: NodeId, gid: GlobalTrxId) -> Cts {
        let Some(region) = self.region(gid.node) else {
            // The owning node has left the cluster; its recovery released
            // every slot, so any surviving reference is long-committed.
            return CSN_MIN;
        };
        let locality = if caller == gid.node {
            Locality::Local
        } else {
            Locality::Remote
        };
        let snap = region.read_slot(gid.slot, locality);
        if snap.version != gid.version {
            return CSN_MIN;
        }
        if snap.cts.is_init() {
            return CSN_MAX;
        }
        snap.cts
    }

    /// Is the transaction identified by `gid` still active? (§4.3.2's
    /// lock-word liveness check.)
    pub fn is_active(&self, caller: NodeId, gid: GlobalTrxId) -> Cts {
        self.trx_cts(caller, gid)
    }

    /// A node's background thread reports its minimal view (the smallest
    /// read-view CTS among its active transactions, or the current TSO value
    /// when idle). Transaction Fusion consolidates all reports into the
    /// global minimum and broadcasts it into every registered region
    /// (remote writes). Returns the new global minimum.
    pub fn report_min_view(&self, node: NodeId, view: Cts) -> Cts {
        let global = {
            let mut views = self.node_views.write();
            views.insert(node, view);
            views.values().copied().min().unwrap_or(view)
        };
        self.global_min_view.store(global.0, Ordering::Release);
        let regions: Vec<Arc<TitRegion>> = self.regions.read().values().cloned().collect();
        // One doorbell batch covers the whole fan-out: N broadcast writes,
        // one charged round trip (posted outside the directory lock).
        let mut batch = self.repl.batch();
        for r in &regions {
            r.post_global_min_view(&mut batch, global);
        }
        batch.flush();
        global
    }

    pub fn global_min_view(&self) -> Cts {
        Cts(self.global_min_view.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::{LatencyConfig, SlotId, TrxId};
    use pmp_rdma::Fabric;

    fn fusion_with_nodes(n: u16) -> (Arc<TxnFusion>, Vec<Arc<TitRegion>>) {
        let repl = Arc::new(ReplicatedFabric::single(Arc::new(Fabric::new(
            LatencyConfig::disabled(),
        ))));
        let fusion = Arc::new(TxnFusion::new(Arc::clone(&repl)));
        let regions: Vec<_> = (0..n)
            .map(|i| {
                let r = Arc::new(TitRegion::new(Arc::clone(&repl), NodeId(i), 16));
                fusion.register_region(Arc::clone(&r));
                r
            })
            .collect();
        (fusion, regions)
    }

    fn gid(node: u16, slot: SlotId, version: u64) -> GlobalTrxId {
        GlobalTrxId {
            node: NodeId(node),
            trx: TrxId(1),
            slot,
            version,
        }
    }

    #[test]
    fn trx_cts_resolves_active_committed_and_recycled() {
        let (fusion, regions) = fusion_with_nodes(2);
        let (slot, version) = regions[1].allocate().unwrap();
        let g = gid(1, slot, version);

        // Active: CSN_MAX (visible to nobody else).
        assert_eq!(fusion.trx_cts(NodeId(0), g), CSN_MAX);

        // Committed: the recorded CTS.
        regions[1].commit(slot, Cts(77));
        assert_eq!(fusion.trx_cts(NodeId(0), g), Cts(77));
        assert_eq!(fusion.trx_cts(NodeId(1), g), Cts(77));

        // Recycled: CSN_MIN (visible to everyone).
        regions[1].release(slot);
        assert_eq!(fusion.trx_cts(NodeId(0), g), CSN_MIN);
    }

    #[test]
    fn trx_cts_for_departed_node_is_min() {
        let (fusion, regions) = fusion_with_nodes(1);
        let (slot, version) = regions[0].allocate().unwrap();
        let g = gid(0, slot, version);
        fusion.unregister_region(NodeId(0));
        assert_eq!(fusion.trx_cts(NodeId(0), g), CSN_MIN);
    }

    #[test]
    fn min_view_consolidation_takes_cluster_minimum() {
        let (fusion, regions) = fusion_with_nodes(3);
        fusion.report_min_view(NodeId(0), Cts(100));
        fusion.report_min_view(NodeId(1), Cts(50));
        let g = fusion.report_min_view(NodeId(2), Cts(80));
        assert_eq!(g, Cts(50));
        // Broadcast landed in every region's registered cell.
        for r in &regions {
            assert_eq!(r.load_global_min_view(), Cts(50));
        }
        // Node 1 advances; the minimum moves.
        let g = fusion.report_min_view(NodeId(1), Cts(120));
        assert_eq!(g, Cts(80));
        assert_eq!(fusion.global_min_view(), Cts(80));
    }

    #[test]
    fn min_view_broadcast_is_one_doorbell_batch() {
        let (fusion, regions) = fusion_with_nodes(4);
        let stats = fusion.repl().fabric_stats();
        let (ops, writes) = (stats.batched_ops.get(), stats.writes.get());
        fusion.report_min_view(NodeId(0), Cts(10));
        // Four broadcast writes, all posted through one batch.
        assert_eq!(stats.batched_ops.get(), ops + 4);
        assert_eq!(stats.writes.get(), writes + 4);
        for r in &regions {
            assert_eq!(r.load_global_min_view(), Cts(10));
        }
    }

    #[test]
    fn lease_cts_consumes_the_whole_range() {
        let (fusion, _) = fusion_with_nodes(1);
        let first = fusion.lease_cts(4);
        assert_eq!(fusion.next_cts().0, first.0 + 4);
    }

    #[test]
    fn remote_reads_are_metered() {
        let (fusion, regions) = fusion_with_nodes(2);
        let (slot, version) = regions[1].allocate().unwrap();
        let g = gid(1, slot, version);
        let before = fusion.repl().fabric_stats().reads.get();
        fusion.trx_cts(NodeId(0), g); // remote
        fusion.trx_cts(NodeId(1), g); // local — still metered, not charged
        assert_eq!(fusion.repl().fabric_stats().reads.get(), before + 2);
    }

    #[test]
    fn fusion_state_survives_a_replica_crash() {
        let repl = Arc::new(ReplicatedFabric::new(
            Arc::new(Fabric::new(LatencyConfig::disabled())),
            3,
            2,
        ));
        let fusion = TxnFusion::new(Arc::clone(&repl));
        let region = Arc::new(TitRegion::new(Arc::clone(&repl), NodeId(0), 8));
        fusion.register_region(Arc::clone(&region));
        let (slot, version) = region.allocate().unwrap();
        let cts = fusion.next_cts();
        region.commit(slot, cts);
        assert!(repl.crash_replica(1));
        let g = gid(0, slot, version);
        assert_eq!(fusion.trx_cts(NodeId(1), g), cts);
        assert!(fusion.next_cts() > cts, "TSO must not rewind");
        assert!(repl.recover_replica(1));
        assert_eq!(fusion.trx_cts(NodeId(1), g), cts);
    }
}
