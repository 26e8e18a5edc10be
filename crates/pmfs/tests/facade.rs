//! The assembled PMFS facade: one fabric, three fusion services, shareable
//! across nodes via clone (Arc semantics).

use std::sync::Arc;

use pmp_common::{Cts, LatencyConfig, Llsn, NodeId, PageId};
use pmp_pmfs::{Pmfs, TitRegion};
use pmp_rdma::Fabric;
use pmp_repl::ReplicatedFabric;

#[test]
fn facade_wires_all_three_services_over_one_fabric() {
    let fabric = Arc::new(Fabric::new(LatencyConfig::disabled()));
    let repl = Arc::new(ReplicatedFabric::single(Arc::clone(&fabric)));
    let pmfs: Pmfs<String> = Pmfs::new(Arc::clone(&repl), 1024, 16 * 1024);

    // Transaction Fusion: TSO + TIT directory.
    let region = Arc::new(TitRegion::new(Arc::clone(&repl), NodeId(0), 8));
    pmfs.txn.register_region(Arc::clone(&region));
    let c1 = pmfs.txn.next_cts();
    let c2 = pmfs.txn.next_cts();
    assert!(c2 > c1 && c1 > Cts(1));

    // Buffer Fusion: a page placed by node 0 is fetched by node 1.
    let flag0 = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let flag1 = Arc::new(std::sync::atomic::AtomicBool::new(true));
    pmfs.buffer.register_push(
        NodeId(0),
        PageId(7),
        Arc::new("v1".into()),
        Llsn(1),
        flag0,
        pmp_pmfs::PageSource::Memory,
    );
    let (page, _) = pmfs
        .buffer
        .lookup_or_register(NodeId(1), PageId(7), flag1)
        .expect("hit");
    assert_eq!(*page, "v1");

    // Lock Fusion: S locks coexist across the same facade.
    pmfs.plock
        .acquire(
            NodeId(0),
            PageId(7),
            pmp_pmfs::PLockMode::S,
            std::time::Duration::from_secs(1),
        )
        .unwrap();
    pmfs.plock
        .acquire(
            NodeId(1),
            PageId(7),
            pmp_pmfs::PLockMode::S,
            std::time::Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(pmfs.plock.holders(PageId(7)).len(), 2);

    // Clone shares the same underlying services.
    let clone = pmfs.clone();
    assert_eq!(clone.plock.holders(PageId(7)).len(), 2);
    assert!(Arc::ptr_eq(&clone.txn, &pmfs.txn));

    // Every cross-node interaction above went through the shared fabric.
    assert!(fabric.stats().rpcs.get() > 0);
    assert!(fabric.stats().atomics.get() >= 2);
}
