//! The PolarDB-MP node engine.
//!
//! Each primary node runs a full database engine: a B-tree row store over
//! fixed-size pages, MVCC with embedded row locks (§4.1, §4.3.2), a local
//! buffer pool participating in Buffer Fusion (§4.2), a node-side PLock
//! manager with lazy release (§4.3.1), ARIES-style redo/undo logging with
//! the LLSN partial order (§4.4), and crash recovery.
//!
//! Module map:
//!
//! * [`row`], [`page`] — on-page data structures (rows with MVCC headers
//!   doubling as lock words; leaf/internal pages).
//! * [`codec`], [`redo`] — binary log record encoding and the redo record
//!   set.
//! * [`undo`] — the shared undo record store (modelled as disaggregated
//!   memory, protected by redo).
//! * [`version_store`] — the bounded per-node MVCC version store: snapshot
//!   reads resolve node-locally, without undo walks or TIT/CTS fabric
//!   lookups.
//! * [`llsn`] — the node-local logical LSN clock.
//! * [`tso_client`] — snapshot timestamps with the Linear Lamport
//!   optimisation from PolarDB-SCC.
//! * [`cts_cache`] — sharded node-local caches on the visibility fast
//!   path: resolved CTS values and peers' min-active transaction ids.
//! * [`lbp`] — the local buffer pool (LBP) with remotely-invalidatable
//!   frames.
//! * [`plock_local`] — the node-side PLock cache: reference counts, lazy
//!   release, negotiation handling.
//! * [`wal`] — the node's redo pipeline: mini-transaction record groups,
//!   LLSN stamping, group commit.
//! * [`btree`] — the multi-node B-tree built on PLocked pages.
//! * [`txn`] — transactions: read views, visibility (Algorithm 1), row
//!   locking, commit/rollback.
//! * [`scheduler`] — the parkable transaction scheduler and the engine's one
//!   wait primitive: every wait (page load, PLock grant, row lock, CTS
//!   lease, group commit) is written once and suspends its waiter — a task
//!   parks, a thread blocks.
//! * [`session`] — the async `Session` surface over the scheduler:
//!   `begin/get/put/scan/commit` return engine-driven futures, with a
//!   blocking shim for synchronous callers.
//! * [`node`] — the assembled [`node::NodeEngine`] and its background
//!   threads.
//! * [`recovery`] — chunked LLSN-bound redo replay and undo of in-doubt
//!   transactions.
//! * [`standby`] — the cross-region standby (§3): log shipping, committed
//!   reads, promotion.
//! * [`shared`] — the cluster-shared service bundle handed to every node.

pub mod btree;
pub mod codec;
pub mod cts_cache;
pub mod lbp;
pub mod llsn;
pub mod node;
pub mod page;
pub mod plock_local;
pub mod recovery;
pub mod redo;
pub mod row;
pub mod scheduler;
pub mod session;
pub mod shared;
pub mod standby;
pub mod tso_client;
pub mod txn;
pub mod undo;
pub mod version_store;
pub mod wal;

pub use node::NodeEngine;
pub use page::{Page, PageKind, PAGE_BYTES};
pub use pmp_io::IoStats;
pub use row::{IndexKey, Row, RowHeader, RowValue};
pub use scheduler::Scheduler;
pub use session::{AsyncSession, DbFuture};
pub use shared::{Catalog, Shared, TableMeta};
pub use txn::{Txn, TxnStatus};
