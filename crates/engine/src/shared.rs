//! Cluster-shared services: the fabric, PMFS, shared storage, the undo
//! store, and the table catalog. One `Shared` bundle is created per cluster
//! and handed (as an `Arc`) to every node engine.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use pmp_common::sync::{LockClass, TrackedRwLock};
use pmp_common::{ClusterConfig, IoRingConfig, Llsn, PageId, PmpError, Result, TableId};
use pmp_io::{CqePayload, IoRing, IoStats, SqeOp};
use pmp_pmfs::buffer::{EvictionSink, QueuedWriteBack, WriteBackOutcome, MAX_QUEUED_WRITEBACKS};
use pmp_pmfs::Pmfs;
use pmp_rdma::Fabric;
use pmp_repl::ReplicatedFabric;
use pmp_storage::SharedStorage;

use std::sync::atomic::{AtomicU32, Ordering};

use crate::node::NodeEngine;
use crate::page::{Page, PAGE_BYTES};
use crate::undo::UndoStore;

/// A (global) secondary index attached to a table: the value column it
/// indexes and the id of the index tree (registered in the catalog as a
/// table of kind [`TableKind::Index`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexRef {
    pub table: TableId,
    pub column: usize,
}

/// What a catalog entry describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// A user table keyed by primary key, with zero or more GSIs.
    Primary { indexes: Vec<IndexRef> },
    /// A secondary-index tree (keys = `(column value, pk)`, empty values).
    Index { parent: TableId },
}

/// Catalog entry. The root page id is immutable: root splits copy the root's
/// contents into two fresh children and turn the root into an internal page
/// in place, so concurrent traversers never chase a moved root.
#[derive(Clone, Debug)]
pub struct TableMeta {
    pub id: TableId,
    pub name: String,
    pub root: PageId,
    pub columns: usize,
    pub kind: TableKind,
}

/// The cluster-wide table catalog. Table creation is an administrative
/// operation performed by the cluster API before workloads run; the catalog
/// itself is replicated metadata and not part of the crash-recovery story.
#[derive(Debug)]
pub struct Catalog {
    tables: TrackedRwLock<HashMap<TableId, Arc<TableMeta>>>,
    next_id: AtomicU32,
}

/// Table catalog (administrative metadata, charge-free lookups).
const CATALOG: LockClass = LockClass::new("engine.catalog");

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog {
            tables: TrackedRwLock::new(CATALOG, HashMap::new()),
            next_id: AtomicU32::new(1),
        }
    }

    pub fn allocate_id(&self) -> TableId {
        TableId(self.next_id.fetch_add(1, Ordering::Relaxed)) // lint: allow(relaxed-atomic): monotonic table-id allocator
    }

    pub fn register(&self, meta: TableMeta) -> Arc<TableMeta> {
        let meta = Arc::new(meta);
        self.tables.write().insert(meta.id, Arc::clone(&meta));
        meta
    }

    pub fn get(&self, id: TableId) -> Result<Arc<TableMeta>> {
        self.tables
            .read()
            .get(&id)
            .cloned()
            .ok_or(PmpError::UnknownTable { table: id })
    }

    pub fn table_count(&self) -> usize {
        self.tables.read().len()
    }

    /// All registered tables (standby promotion copies the catalog).
    pub fn all(&self) -> Vec<Arc<TableMeta>> {
        let mut v: Vec<Arc<TableMeta>> = self.tables.read().values().cloned().collect();
        v.sort_by_key(|m| m.id.0);
        v
    }

    /// Ensure the id allocator stays ahead of an externally imported id.
    pub fn bump_next_id(&self, seen: TableId) {
        let _ = self.next_id.fetch_max(seen.0 + 1, Ordering::Relaxed); // lint: allow(relaxed-atomic): monotonic allocator bump; fetch_max keeps it ahead regardless of order
    }
}

/// Write-back sink wiring DBP evictions to the shared page store through a
/// PMFS-side io ring: the evicting statement queues a `WritePage` SQE and
/// returns; the encode, the store and the charged device wait happen on the
/// ring's one worker, whose continuation then completes the eviction. The
/// ring belongs to PMFS, not to a node — a node crash leaves it alone. When
/// it is dropped, SQEs still queued complete as cancelled and their entries
/// stay in the DBP.
#[derive(Debug)]
pub struct StorageSink {
    storage: Arc<SharedStorage<Page>>,
    cfg: IoRingConfig,
    /// Started by the first queued write-back, so a cluster whose DBP never
    /// overflows runs no write-back thread at all.
    ring: OnceLock<IoRing<Page>>,
}

impl StorageSink {
    /// `io` is the nodes' ring configuration; the write-back ring takes its
    /// batching from it but always runs one worker (a second one would only
    /// add a thread: a batch already overlaps every queued write), on a
    /// submission queue that holds every write-back the DBP may queue, so
    /// submitting never waits.
    fn new(storage: Arc<SharedStorage<Page>>, io: IoRingConfig) -> Self {
        StorageSink {
            storage,
            cfg: IoRingConfig {
                workers: 1,
                sq_capacity: io.sq_capacity.max(MAX_QUEUED_WRITEBACKS),
                ..io
            },
            ring: OnceLock::new(),
        }
    }

    /// Meters of the write-back ring, once it has started.
    pub fn io_stats(&self) -> Option<&IoStats> {
        self.ring.get().map(IoRing::stats)
    }
}

impl EvictionSink<Page> for StorageSink {
    fn write_now(&self, page_id: PageId, page: Arc<Page>, _llsn: Llsn) -> WriteBackOutcome {
        // A refused write is a storage outage: the entry stays in the DBP,
        // so the only up-to-date copy is not dropped.
        match self.storage.write_page(page_id, page) {
            Ok(()) => WriteBackOutcome::Written,
            Err(_) => WriteBackOutcome::NotWritten,
        }
    }

    fn submit(&self, batch: Vec<QueuedWriteBack<Page>>) {
        let ops = batch
            .into_iter()
            .map(|w| {
                let done = w.done;
                let continuation: pmp_io::Continuation<Page> = Box::new(move |cqe| {
                    done(match cqe.result {
                        Ok(CqePayload::Written) => WriteBackOutcome::Written,
                        _ => WriteBackOutcome::NotWritten,
                    })
                });
                (
                    SqeOp::WritePage(w.page_id, w.page),
                    w.page_id.0,
                    continuation,
                )
            })
            .collect();
        self.ring
            .get_or_init(|| IoRing::new(Arc::clone(&self.storage), self.cfg))
            .submit_all_with(ops)
            .expect("the sink owns its ring, which stops only when the sink drops");
    }
}

/// Everything shared across the cluster.
#[derive(Debug)]
pub struct Shared {
    pub config: ClusterConfig,
    pub fabric: Arc<Fabric>,
    /// Replication facade every PMFS verb goes through (DESIGN.md §15).
    /// With `config.replicas = 1` it is a transparent passthrough.
    pub repl: Arc<ReplicatedFabric>,
    pub pmfs: Pmfs<Page>,
    pub storage: Arc<SharedStorage<Page>>,
    /// The DBP's write-back sink (also installed in `pmfs.buffer`), kept
    /// here for its ring's meters.
    pub writeback: Arc<StorageSink>,
    pub undo: Arc<UndoStore>,
    pub catalog: Arc<Catalog>,
}

impl Shared {
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        let fabric = Arc::new(Fabric::new(config.latency));
        let repl = Arc::new(ReplicatedFabric::new(
            Arc::clone(&fabric),
            config.replicas,
            config.repl_quorum,
        ));
        let storage = Arc::new(SharedStorage::new_with_compression(
            config.storage_latency,
            config.compression,
        ));
        let pmfs = Pmfs::new(Arc::clone(&repl), config.dbp_capacity, PAGE_BYTES);
        let writeback = Arc::new(StorageSink::new(Arc::clone(&storage), config.engine.io));
        pmfs.buffer
            .set_eviction_sink(Arc::clone(&writeback) as Arc<dyn EvictionSink<Page>>);
        Arc::new(Shared {
            config,
            fabric,
            repl,
            pmfs,
            storage,
            writeback,
            undo: Arc::new(UndoStore::new()),
            catalog: Arc::new(Catalog::new()),
        })
    }

    /// The cluster-wide *storage* checkpoint over `nodes`: the one place
    /// redo is freed. Per node, with no cluster-wide quiescence:
    ///
    /// * (a) each live node flushes; one with no active transaction, dirty
    ///   frame or unsynced log records its checkpoint LSN `c`;
    /// * (b) the DBP writes every dirty entry back and waits for the writes;
    /// * (c) if (b) was complete and the DBP was not lost since before (a),
    ///   every change such a node logged below `c` was in a frame it had
    ///   pushed by (a) and is in storage by (b): its stream is cut at `c`.
    ///
    /// A busy node simply keeps its log; its older records replay
    /// idempotently over the newer images (LLSN rule).
    pub fn storage_checkpoint(&self, nodes: &[Arc<NodeEngine>]) {
        let buffer = &self.pmfs.buffer;
        // Read before the flushes: a DBP loss after this point may have
        // taken a page one of them pushed.
        let dbp_epoch = buffer.loss_epoch();
        let quiesced: Vec<_> = nodes
            .iter()
            .filter_map(|node| Some((node, node.flush_tick()?)))
            .collect();
        // Also lets write-backs the flushes' pushes queued land, so storage
        // is as current as the DBP allows on return.
        if buffer.write_back_all(dbp_epoch) {
            for (node, at) in quiesced {
                node.storage_checkpoint(at, dbp_epoch);
            }
        }
    }

    /// Create a primary table with `columns` u64 columns and `gsi_columns`
    /// global secondary indexes (one per named column). Roots are durable
    /// in shared storage before the call returns.
    pub fn create_table(
        &self,
        name: &str,
        columns: usize,
        gsi_columns: &[usize],
    ) -> Result<Arc<TableMeta>> {
        let mut indexes = Vec::with_capacity(gsi_columns.len());
        for &col in gsi_columns {
            assert!(col < columns, "GSI column out of range");
            let idx_id = self.catalog.allocate_id();
            let root = self.storage.page_store().allocate_page_id();
            self.storage
                .write_page(root, Arc::new(Page::new_leaf(root)))?;
            indexes.push(IndexRef {
                table: idx_id,
                column: col,
            });
            self.catalog.register(TableMeta {
                id: idx_id,
                name: format!("{name}.gsi{col}"),
                root,
                columns: 0,
                kind: TableKind::Index {
                    parent: TableId(0), // patched below once the id is known
                },
            });
        }

        let id = self.catalog.allocate_id();
        let root = self.storage.page_store().allocate_page_id();
        self.storage
            .write_page(root, Arc::new(Page::new_leaf(root)))?;
        // Re-register indexes with the real parent id.
        for idx in &indexes {
            let meta = self.catalog.get(idx.table)?;
            self.catalog.register(TableMeta {
                kind: TableKind::Index { parent: id },
                ..(*meta).clone()
            });
        }
        Ok(self.catalog.register(TableMeta {
            id,
            name: name.to_string(),
            root,
            columns,
            kind: TableKind::Primary { indexes },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_registers_roots() {
        let shared = Shared::new(ClusterConfig::test(1));
        let meta = shared.create_table("t", 3, &[]).unwrap();
        assert_eq!(meta.columns, 3);
        assert!(matches!(&meta.kind, TableKind::Primary { indexes } if indexes.is_empty()));
        let stored = shared.storage.page_store().read(meta.root).unwrap();
        assert!(stored.is_some(), "root page must be durable");
        assert!(stored.unwrap().is_leaf());
    }

    #[test]
    fn create_table_with_gsis_links_both_ways() {
        let shared = Shared::new(ClusterConfig::test(1));
        let meta = shared.create_table("orders", 4, &[1, 2]).unwrap();
        let TableKind::Primary { indexes } = &meta.kind else {
            panic!("expected primary");
        };
        assert_eq!(indexes.len(), 2);
        for idx in indexes {
            let imeta = shared.catalog.get(idx.table).unwrap();
            assert!(
                matches!(imeta.kind, TableKind::Index { parent } if parent == meta.id),
                "index must point back at its parent"
            );
            assert!(shared
                .storage
                .page_store()
                .read(imeta.root)
                .unwrap()
                .is_some());
        }
    }

    /// Node 0 publishes a page it built itself, at `llsn`.
    fn push_fresh(
        buffer: &pmp_pmfs::BufferFusion<Page>,
        id: PageId,
        llsn: u64,
        flag: &Arc<std::sync::atomic::AtomicBool>,
    ) {
        let mut page = Page::new_leaf(id);
        page.llsn = Llsn(llsn);
        buffer.register_push(
            pmp_common::NodeId(0),
            id,
            Arc::new(page),
            Llsn(llsn),
            Arc::clone(flag),
            pmp_pmfs::PageSource::Memory,
        );
    }

    #[test]
    fn dbp_evictions_reach_storage_through_the_writeback_ring() {
        let mut config = ClusterConfig::test(1);
        config.dbp_capacity = 64; // one entry per DBP shard
        let shared = Shared::new(config);
        assert!(
            shared.writeback.io_stats().is_none(),
            "no eviction yet: no write-back ring, no worker thread"
        );
        // Two pages per shard: every second registration evicts the first.
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
        for id in 1..=128u64 {
            push_fresh(&shared.pmfs.buffer, PageId(id), id, &flag);
        }
        shared.pmfs.buffer.drain_evictions();

        let b = shared.pmfs.buffer.stats();
        let io = shared.writeback.io_stats().expect("ring started");
        assert_eq!(b.evictions.get(), 64);
        assert_eq!(b.writebacks_submitted.get() + b.writebacks_helped.get(), 64);
        assert_eq!(io.submitted.get(), b.writebacks_submitted.get());
        assert_eq!(io.completed.get(), io.submitted.get());
        assert_eq!(shared.pmfs.buffer.page_count(), 64);
        let stored = shared.storage.page_store().read(PageId(1)).unwrap();
        assert_eq!(stored.expect("evicted page is in storage").llsn, Llsn(1));
        assert!(shared.pmfs.buffer.peek(PageId(1)).is_none());
    }

    #[test]
    fn dropping_the_sink_cancels_queued_write_backs() {
        let config = ClusterConfig::test(1);
        let repl = Arc::new(ReplicatedFabric::single(Arc::new(Fabric::new(
            config.latency,
        ))));
        let storage = Arc::new(SharedStorage::new(config.storage_latency));
        let buffer = pmp_pmfs::BufferFusion::<Page>::new(repl, 1, PAGE_BYTES);
        // No worker: what is submitted stays queued until the ring drops.
        let sink = Arc::new(StorageSink {
            cfg: IoRingConfig {
                workers: 0,
                ..config.engine.io
            },
            ..StorageSink::new(Arc::clone(&storage), config.engine.io)
        });
        buffer.set_eviction_sink(Arc::clone(&sink) as Arc<dyn EvictionSink<Page>>);
        let (p1, p2) = (PageId(2), PageId(2 + 64)); // one shard
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
        push_fresh(&buffer, p1, 1, &flag);
        push_fresh(&buffer, p2, 2, &flag);
        let ring = sink.ring.get().expect("ring started");
        assert_eq!(ring.sq_len(), 1, "p1's write-back is queued");

        buffer.set_eviction_sink(Arc::new(pmp_pmfs::buffer::DiscardSink));
        drop(sink); // last owner: the ring shuts down

        assert_eq!(buffer.stats().writebacks_queued.get(), 0);
        assert_eq!(buffer.stats().evictions.get(), 0);
        assert!(
            buffer.peek(p1).is_some(),
            "cancelled eviction keeps its entry"
        );
        assert!(flag.load(Ordering::Acquire), "and its holder's copy");
        assert!(storage.page_store().read(p1).unwrap().is_none());
    }

    #[test]
    fn catalog_lookup_failures() {
        let c = Catalog::new();
        assert!(matches!(
            c.get(TableId(99)),
            Err(PmpError::UnknownTable { .. })
        ));
    }
}
