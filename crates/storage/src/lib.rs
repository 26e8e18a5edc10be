//! Disaggregated shared storage stand-in (PolarStore/PolarFS substitute).
//!
//! PolarDB-MP sits on a disaggregated shared storage layer that every
//! primary node can read and write (§3). This crate models that layer with
//! two components:
//!
//! * a [`PageStore`] — the shared, durable home of every data page, with a
//!   cluster-global page allocator;
//! * per-node [`LogStream`]s — append-only redo log files. "Each node
//!   maintains its own sets of redo log and undo log files. This design
//!   enables different nodes to simultaneously synchronize these logs to the
//!   storage without the need for explicit concurrency control" (§4.4).
//!
//! Durability semantics mirror the real thing: a log append is buffered
//! until [`LogStream::sync`] returns; a node crash (simulated with
//! [`LogStream::crash`]) discards the unsynced tail but never synced data;
//! page-store writes are durable when they return (the real PolarStore
//! replicates synchronously). Storage I/O charges the latencies in
//! [`pmp_common::StorageLatencyConfig`], which keeps storage two orders of
//! magnitude more expensive than the RDMA fabric — the asymmetry the paper's
//! buffer-fusion results rest on.

pub mod compress;
pub mod log_store;
pub mod page_store;

pub use compress::{Codec, PageSlot, SlotOutcome, SlotWrite, StorageImage};
pub use log_store::{LogHold, LogRetention, LogStream, ReadChunk, SEGMENT_BYTES};
pub use page_store::{PageStore, StorageStats};

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedMutex, TrackedRwLock};
use pmp_common::{CompressionConfig, NodeId, PageId, Result, StorageLatencyConfig};
use pmp_rdma::precise_wait_ns;

/// Slot-map shards; power of two so the pick is a mask.
const SLOT_SHARDS: usize = 64;

/// Raw image bytes below which a page is stored uncompressed (the codec
/// header would dominate).
const PAGE_COMP_THRESHOLD: usize = 512;

/// Byte budget of a compressed page's uncompressed delta region. In-place
/// updates append splice deltas there; overflow triggers a recompress.
const DELTA_REGION_BYTES: usize = 2 * 1024;

/// Codec shards never nest with anything: encoding is pure CPU and the
/// page-store write happens after the shard is released.
const SLOT_SHARD: LockClass = LockClass::new("storage.page_codec");

/// Byte accounting one codec-aware page write produced, for the caller
/// that charges latency at batch granularity (`pmp-io`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PageWriteCost {
    /// Post-codec bytes that landed on storage (the bandwidth term).
    pub physical_bytes: usize,
    /// Raw bytes pushed through the compressor (the codec CPU term);
    /// zero for delta appends and raw pass-throughs.
    pub codec_raw_bytes: usize,
}

/// Aggregate byte/charge meters across every redo stream, for the
/// cluster-wide stats report.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogByteTotals {
    pub logical_bytes: u64,
    pub physical_bytes: u64,
    pub synced_bytes: u64,
    pub charged_ns: u64,
}

/// The complete shared storage service: one page store plus one redo log
/// stream per registered node, with an optional compression layer between
/// the engine and both.
#[derive(Debug)]
pub struct SharedStorage<P> {
    pages: PageStore<P>,
    redo: TrackedRwLock<HashMap<NodeId, Arc<LogStream>>>,
    cfg: StorageLatencyConfig,
    comp: CompressionConfig,
    codec: Codec,
    /// Per-page codec slots (compressed base + delta region). Only pages
    /// written through [`write_page`](Self::write_page) have one; `Off`
    /// mode keeps no slot state at all.
    slots: Vec<TrackedMutex<HashMap<PageId, PageSlot>>>,
}

impl<P: Clone + Send + Sync> SharedStorage<P> {
    pub fn new(cfg: StorageLatencyConfig) -> Self {
        Self::new_with_compression(cfg, CompressionConfig::off())
    }

    pub fn new_with_compression(cfg: StorageLatencyConfig, comp: CompressionConfig) -> Self {
        SharedStorage {
            pages: PageStore::new(cfg),
            redo: TrackedRwLock::new(LockClass::new("storage.redo_directory"), HashMap::new()),
            cfg,
            comp,
            codec: Codec::new(comp.compression),
            slots: (0..SLOT_SHARDS)
                .map(|_| TrackedMutex::new(SLOT_SHARD, HashMap::new()))
                .collect(),
        }
    }

    pub fn compression(&self) -> &CompressionConfig {
        &self.comp
    }

    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Aggregate byte meters across every registered redo stream.
    pub fn log_totals(&self) -> LogByteTotals {
        let mut t = LogByteTotals::default();
        for (_, s) in self.all_redo_streams() {
            t.logical_bytes += s.logical_byte_count();
            t.physical_bytes += s.physical_byte_count();
            t.synced_bytes += s.synced_byte_count();
            t.charged_ns += s.charged_io_ns();
        }
        t
    }

    pub fn page_store(&self) -> &PageStore<P> {
        &self.pages
    }

    /// Create (or fetch) the redo stream for `node`. Restarting a crashed
    /// node re-attaches to the same durable stream — log data synced before
    /// the crash must survive it.
    pub fn redo_stream(&self, node: NodeId) -> Arc<LogStream> {
        if let Some(s) = self.redo.read().get(&node) {
            return Arc::clone(s);
        }
        let mut map = self.redo.write();
        Arc::clone(
            map.entry(node)
                .or_insert_with(|| Arc::new(LogStream::new(self.cfg))),
        )
    }

    /// Snapshot of all registered redo streams, for recovery's merge pass.
    pub fn all_redo_streams(&self) -> Vec<(NodeId, Arc<LogStream>)> {
        let mut v: Vec<_> = self
            .redo
            .read()
            .iter()
            .map(|(n, s)| (*n, Arc::clone(s)))
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }
}

impl<P: Clone + Send + Sync + StorageImage> SharedStorage<P> {
    fn slot_shard(&self, id: PageId) -> &TrackedMutex<HashMap<PageId, PageSlot>> {
        &self.slots[(id.0 as usize) & (SLOT_SHARDS - 1)]
    }

    /// Codec-aware page write, charged in place: base write cost plus the
    /// bandwidth term for the slot's *physical* footprint plus codec CPU.
    /// This (or the `_uncharged` half below, via the io ring) is the write
    /// path every engine flush must use — enforced by the
    /// `uncompressed-storage-append` lint rule.
    pub fn write_page(&self, id: PageId, page: Arc<P>) -> Result<()> {
        let cost = self.write_page_uncharged(id, page)?;
        let charge = self
            .cfg
            .charge_bytes_ns(self.cfg.write_ns, cost.physical_bytes)
            + self.cfg.codec_ns(cost.codec_raw_bytes);
        self.pages.stats().charged_io_ns.add(charge);
        precise_wait_ns(charge);
        Ok(())
    }

    /// Completion half of a codec-aware write: encodes into the page's
    /// slot and stores the page, returning the byte accounting so the io
    /// ring can fold it into one batch charge. Pure CPU plus map inserts —
    /// no simulated latency is charged here.
    pub fn write_page_uncharged(&self, id: PageId, page: Arc<P>) -> Result<PageWriteCost> {
        let image = page.storage_image();
        let logical = image.len();
        let version = page.version();
        if !self.comp.pages_enabled() {
            // Off: bit-for-bit pass-through. Physical == logical, and no
            // slot state is kept.
            self.pages
                .write_sized_uncharged(id, page, logical, logical, version)?;
            return Ok(PageWriteCost {
                physical_bytes: logical,
                codec_raw_bytes: 0,
            });
        }
        let mut shard = self.slot_shard(id).lock();
        let (physical, outcome) = match shard.entry(id) {
            Entry::Occupied(mut e) => {
                let o =
                    e.get_mut()
                        .update(&self.codec, PAGE_COMP_THRESHOLD, DELTA_REGION_BYTES, image);
                (e.get().physical_len(), o)
            }
            Entry::Vacant(v) => {
                let (slot, o) = PageSlot::new(&self.codec, PAGE_COMP_THRESHOLD, image);
                let physical = slot.physical_len();
                v.insert(slot);
                (physical, o)
            }
        };
        drop(shard);
        match outcome.kind {
            SlotWrite::Delta => self.pages.stats().delta_writes.inc(),
            SlotWrite::Recompress => self.pages.stats().recompressions.inc(),
            SlotWrite::Raw | SlotWrite::Fresh => {}
        }
        self.pages
            .write_sized_uncharged(id, page, logical, physical, version)?;
        Ok(PageWriteCost {
            physical_bytes: physical,
            codec_raw_bytes: outcome.codec_raw_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::StorageLatencyConfig;

    #[test]
    fn redo_stream_is_stable_per_node() {
        let st: SharedStorage<Vec<u8>> = SharedStorage::new(StorageLatencyConfig::disabled());
        let a = st.redo_stream(NodeId(1));
        let b = st.redo_stream(NodeId(1));
        assert!(Arc::ptr_eq(&a, &b));
        let c = st.redo_stream(NodeId(2));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(st.all_redo_streams().len(), 2);
    }

    #[test]
    fn redo_streams_listed_in_node_order() {
        let st: SharedStorage<Vec<u8>> = SharedStorage::new(StorageLatencyConfig::disabled());
        st.redo_stream(NodeId(3));
        st.redo_stream(NodeId(1));
        st.redo_stream(NodeId(2));
        let ids: Vec<u16> = st.all_redo_streams().iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn write_page_off_is_raw_passthrough() {
        let st: SharedStorage<Vec<u8>> = SharedStorage::new(StorageLatencyConfig::disabled());
        let id = st.page_store().allocate_page_id();
        let image = vec![7u8; 4096];
        st.write_page(id, Arc::new(image.clone())).unwrap();
        assert_eq!(*st.page_store().read(id).unwrap().unwrap(), image);
        assert_eq!(st.page_store().physical_size(id), 4096);
        assert_eq!(st.page_store().stats().page_logical_bytes.get(), 4096);
        assert_eq!(st.page_store().stats().page_physical_bytes.get(), 4096);
    }

    #[test]
    fn write_page_compressed_shrinks_physical_footprint() {
        let st: SharedStorage<Vec<u8>> = SharedStorage::new_with_compression(
            StorageLatencyConfig::disabled(),
            CompressionConfig::lz4(),
        );
        let id = st.page_store().allocate_page_id();
        let image = vec![7u8; 4096];
        st.write_page(id, Arc::new(image.clone())).unwrap();
        assert_eq!(*st.page_store().read(id).unwrap().unwrap(), image);
        let compressed = st.page_store().physical_size(id);
        assert!(
            compressed < 4096 / 4,
            "constant page should compress well, got {compressed}"
        );

        // A small in-place change rides the delta region — no recompress.
        let mut v2 = image.clone();
        v2[100] = 9;
        st.write_page(id, Arc::new(v2.clone())).unwrap();
        assert_eq!(*st.page_store().read(id).unwrap().unwrap(), v2);
        assert_eq!(st.page_store().stats().delta_writes.get(), 1);
        assert_eq!(st.page_store().stats().recompressions.get(), 0);
        assert!(st.page_store().physical_size(id) < 4096 / 4);

        // Rewriting the whole page overflows the delta budget and forces a
        // full recompress.
        let big: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        st.write_page(id, Arc::new(big.clone())).unwrap();
        assert_eq!(*st.page_store().read(id).unwrap().unwrap(), big);
        assert_eq!(st.page_store().stats().recompressions.get(), 1);
    }

    #[test]
    fn log_totals_aggregate_across_streams() {
        let st: SharedStorage<Vec<u8>> = SharedStorage::new(StorageLatencyConfig::disabled());
        st.redo_stream(NodeId(1)).append(b"aaaa");
        st.redo_stream(NodeId(2)).append(b"bb");
        st.redo_stream(NodeId(1)).sync();
        let t = st.log_totals();
        assert_eq!(t.logical_bytes, 6);
        assert_eq!(t.physical_bytes, 6);
        assert_eq!(t.synced_bytes, 4);
    }
}
