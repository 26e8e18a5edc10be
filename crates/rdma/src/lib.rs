//! Simulated RDMA fabric.
//!
//! PolarDB-MP is co-designed with RDMA (§2.5): the TIT is read with one-sided
//! RDMA READs, invalid flags are cleared with one-sided WRITEs, pages move in
//! and out of the distributed buffer pool over one-sided verbs, and the lock
//! manager speaks an RDMA-based RPC. This crate provides an in-process stand
//! -in for that hardware: registered memory is ordinary shared atomics, and
//! each verb charges a configurable latency (see
//! [`pmp_common::LatencyConfig`]) and increments per-op meters.
//!
//! Two properties of real RDMA that matter to the paper are preserved:
//!
//! 1. **The cost hierarchy** — one-sided ops are a few µs, RPCs ~10µs, both
//!    orders of magnitude cheaper than shared-storage I/O. The evaluation's
//!    headline results (buffer fusion beating log-replay coherence, TIT reads
//!    beating any coordinator round-trip) follow from these ratios.
//! 2. **Locality asymmetry** — accessing your *own* registered memory is an
//!    ordinary load/store (free); only remote access pays fabric latency.
//!    Callers state the locality explicitly, mirroring how the real system
//!    computes a remote address from the synchronized TIT base (§4.1).

pub mod clock;
pub mod fabric;

pub use clock::{latency_enabled, precise_wait_ns, set_latency_enabled};
pub use fabric::{Fabric, FabricBatch, FabricStats, Locality};
