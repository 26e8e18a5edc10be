//! Polar Multi-Primary Fusion Server (PMFS) — the core contribution of the
//! paper (§3, §4), built on (simulated) disaggregated shared memory.
//!
//! PMFS bundles three services:
//!
//! * **Transaction Fusion** ([`txn_fusion::TxnFusion`], §4.1) — a Timestamp
//!   Oracle for commit ordering plus the directory of per-node Transaction
//!   Information Tables (TIT). Transaction metadata stays decentralized on
//!   the owning node and is read remotely with one-sided RDMA.
//! * **Buffer Fusion** ([`buffer::BufferFusion`], §4.2) — the distributed
//!   buffer pool (DBP) through which modified pages move between nodes with
//!   RDMA latency instead of storage I/O + log replay.
//! * **Lock Fusion** ([`plock::PLockFusion`] and [`rlock::RLockFusion`],
//!   §4.3) — the page-locking protocol for physical consistency and the
//!   wait-info side of the embedded row-locking protocol, plus wait-for
//!   deadlock detection.
//!
//! In production PMFS runs replicated across multiple memory nodes; all four
//! services reach registered memory through a
//! [`pmp_repl::ReplicatedFabric`], which fans writes in place to every
//! configured replica (SWARM-style, DESIGN.md §15). With `replicas = 1` the
//! facade degenerates to the raw fabric — a passive singleton, which is
//! exactly how the primary nodes perceive it either way.

pub mod buffer;
pub mod plock;
pub mod rlock;
pub mod tit;
pub mod tso;
pub mod txn_fusion;
pub mod wait_cell;

use std::sync::Arc;

use pmp_repl::ReplicatedFabric;

pub use buffer::{BufferFusion, BufferFusionStats, PageSource};
pub use plock::{Cancel, PLockFusion, PLockMode, PendingGrant, ReleaseRequester};
pub use pmp_repl::{ReplBatch, ReplCell, ReplSnapshot, ReplStats};
pub use rlock::{RLockFusion, WaitOutcome};
pub use tit::{SlotSnapshot, TitRegion};
pub use tso::Tso;
pub use txn_fusion::TxnFusion;
pub use wait_cell::{WaitCell, WakeFn};

/// The assembled fusion server, generic over the page payload `P` stored in
/// the distributed buffer pool.
#[derive(Debug)]
pub struct Pmfs<P> {
    pub repl: Arc<ReplicatedFabric>,
    pub txn: Arc<TxnFusion>,
    pub buffer: Arc<BufferFusion<P>>,
    pub plock: Arc<PLockFusion>,
    pub rlock: Arc<RLockFusion>,
}

impl<P: Send + Sync + 'static> Pmfs<P> {
    /// Build a fusion server on the replication facade `repl`.
    /// `dbp_capacity` is the distributed buffer pool size in pages;
    /// `page_bytes` the fixed page transfer size.
    pub fn new(repl: Arc<ReplicatedFabric>, dbp_capacity: usize, page_bytes: usize) -> Self {
        Pmfs {
            txn: Arc::new(TxnFusion::new(Arc::clone(&repl))),
            buffer: BufferFusion::new(Arc::clone(&repl), dbp_capacity, page_bytes),
            plock: Arc::new(PLockFusion::new(Arc::clone(&repl))),
            rlock: Arc::new(RLockFusion::new(Arc::clone(&repl))),
            repl,
        }
    }
}

impl<P> Clone for Pmfs<P> {
    fn clone(&self) -> Self {
        Pmfs {
            repl: Arc::clone(&self.repl),
            txn: Arc::clone(&self.txn),
            buffer: Arc::clone(&self.buffer),
            plock: Arc::clone(&self.plock),
            rlock: Arc::clone(&self.rlock),
        }
    }
}
