//! The shared page store: durable home of every data page.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedRwLock};
use pmp_common::{Counter, PageId, PmpError, Result, StorageLatencyConfig};
use pmp_rdma::precise_wait_ns;

/// Number of lock shards; power of two so the shard pick is a mask.
const SHARDS: usize = 64;

/// One class for all shards: page-store shards never nest (every op touches
/// exactly one shard, and `page_count` visits them one at a time).
const PAGE_SHARD: LockClass = LockClass::new("storage.page_shard");

/// Storage-layer op meters.
#[derive(Debug, Default)]
pub struct StorageStats {
    pub page_reads: Counter,
    pub page_writes: Counter,
    pub log_appends: Counter,
    pub log_syncs: Counter,
    pub log_bytes: Counter,
    /// Raw (pre-codec) bytes of page images written.
    pub page_logical_bytes: Counter,
    /// Post-codec bytes of page images written — what lands on storage.
    pub page_physical_bytes: Counter,
    /// Page-slot writes absorbed by the uncompressed delta region.
    pub delta_writes: Counter,
    /// Page-slot delta-region overflows that forced a full recompress.
    pub recompressions: Counter,
    /// Simulated storage time charged (ns), summed across direct charges
    /// and `pmp-io` batch charges — the denominator of effective bandwidth.
    pub charged_io_ns: Counter,
}

impl StorageStats {
    pub fn reset(&self) {
        self.page_reads.reset();
        self.page_writes.reset();
        self.log_appends.reset();
        self.log_syncs.reset();
        self.log_bytes.reset();
        self.page_logical_bytes.reset();
        self.page_physical_bytes.reset();
        self.delta_writes.reset();
        self.recompressions.reset();
        self.charged_io_ns.reset();
    }
}

/// One stored page: the payload, its [`StorageImage::version`] (zero when
/// written through the raw, codec-unaware path), and the byte sizes its slot
/// occupies (likewise zero).
///
/// [`StorageImage::version`]: crate::StorageImage::version
#[derive(Debug)]
struct Stored<P> {
    page: Arc<P>,
    version: u64,
    logical: u32,
    physical: u32,
}

/// A sharded, latency-charging, durable page store generic over the page
/// payload `P` (the engine instantiates it with its `Page` type; baselines
/// with theirs).
///
/// Writes are durable on return — PolarStore acknowledges only after
/// replicating to a majority (§5.1 / PolarFS), and a primary-node crash can
/// never lose page-store contents.
#[derive(Debug)]
pub struct PageStore<P> {
    shards: Vec<TrackedRwLock<HashMap<PageId, Stored<P>>>>,
    next_page: AtomicU64,
    cfg: StorageLatencyConfig,
    stats: StorageStats,
    fail_io: AtomicBool,
}

impl<P: Clone + Send + Sync> PageStore<P> {
    pub fn new(cfg: StorageLatencyConfig) -> Self {
        PageStore {
            shards: (0..SHARDS)
                .map(|_| TrackedRwLock::new(PAGE_SHARD, HashMap::new()))
                .collect(),
            // Page ids start at 1; 0 is PageId::NULL.
            next_page: AtomicU64::new(1),
            cfg,
            stats: StorageStats::default(),
            fail_io: AtomicBool::new(false),
        }
    }

    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    fn shard(&self, id: PageId) -> &TrackedRwLock<HashMap<PageId, Stored<P>>> {
        &self.shards[(id.0 as usize) & (SHARDS - 1)]
    }

    pub fn latency_cfg(&self) -> &StorageLatencyConfig {
        &self.cfg
    }

    fn check_io(&self) -> Result<()> {
        if self.fail_io.load(Ordering::Acquire) {
            Err(PmpError::StorageIo {
                detail: "injected storage failure".into(),
            })
        } else {
            Ok(())
        }
    }

    /// Failure injection: make subsequent reads/writes fail until reset.
    pub fn set_fail_io(&self, fail: bool) {
        self.fail_io.store(fail, Ordering::Release);
    }

    /// Allocate a fresh cluster-globally-unique page id. Allocation is a
    /// metadata op on the storage service; we charge nothing because the
    /// real system batches extent allocation and the cost vanishes.
    pub fn allocate_page_id(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }

    /// Keep the allocator ahead of ids imported from elsewhere (standby
    /// promotion, restore).
    pub fn reserve_page_ids(&self, first_free: u64) {
        self.next_page.fetch_max(first_free, Ordering::Relaxed);
    }

    /// Base nanoseconds one page read costs under the current latency
    /// config, excluding the per-byte bandwidth term. The io ring charges
    /// this at batch granularity instead of per call.
    pub fn read_latency_ns(&self) -> u64 {
        self.cfg.charge_ns(self.cfg.read_ns)
    }

    /// Base nanoseconds one page write costs, excluding the byte term.
    pub fn write_latency_ns(&self) -> u64 {
        self.cfg.charge_ns(self.cfg.write_ns)
    }

    /// Full read cost of `id`: base plus the bandwidth term for the page's
    /// physical (post-codec) bytes on storage.
    pub fn read_latency_ns_for(&self, id: PageId) -> u64 {
        self.cfg
            .charge_bytes_ns(self.cfg.read_ns, self.physical_size(id))
    }

    /// Physical bytes `id` occupies on storage (0 when unknown — pages
    /// written through the raw, codec-unaware path).
    pub fn physical_size(&self, id: PageId) -> usize {
        self.shard(id)
            .read()
            .get(&id)
            .map_or(0, |s| s.physical as usize)
    }

    /// Raw (pre-codec) image bytes `id` carried at its last codec-aware
    /// write (0 when unknown).
    pub fn logical_size(&self, id: PageId) -> usize {
        self.shard(id)
            .read()
            .get(&id)
            .map_or(0, |s| s.logical as usize)
    }

    /// Read a page, paying storage read latency (base + byte term).
    /// `Ok(None)` if never written.
    pub fn read(&self, id: PageId) -> Result<Option<Arc<P>>> {
        self.check_io()?;
        let charge = self.read_latency_ns_for(id);
        self.stats.charged_io_ns.add(charge);
        precise_wait_ns(charge);
        self.read_uncharged(id)
    }

    /// Completion half of a ring-submitted read: the `pmp-io` worker has
    /// already charged the device round-trip for the whole batch, so this
    /// only meters the op and copies the page out.
    pub fn read_uncharged(&self, id: PageId) -> Result<Option<Arc<P>>> {
        self.check_io()?;
        self.stats.page_reads.inc();
        Ok(self.shard(id).read().get(&id).map(|s| Arc::clone(&s.page)))
    }

    /// Write (create or replace) a page; durable on return. Codec-unaware:
    /// charges the flat base cost and records unknown sizes — engine paths
    /// go through `SharedStorage::write_page` instead (the codec-aware
    /// wrapper), which is what the `uncompressed-storage-append` lint rule
    /// enforces.
    pub fn write(&self, id: PageId, page: Arc<P>) -> Result<()> {
        self.check_io()?;
        let charge = self.write_latency_ns();
        self.stats.charged_io_ns.add(charge);
        precise_wait_ns(charge);
        self.write_uncharged(id, page)
    }

    /// Completion half of a ring-submitted write (latency already charged).
    pub fn write_uncharged(&self, id: PageId, page: Arc<P>) -> Result<()> {
        self.write_sized_uncharged(id, page, 0, 0, 0)
    }

    /// Write with the codec layer's accounting: `logical` is the raw image
    /// size, `physical` the slot's post-codec footprint, `version` the
    /// image's [`StorageImage::version`](crate::StorageImage::version).
    ///
    /// The store never regresses a page: an image whose version is below
    /// the stored one is dropped (the write still counts and still
    /// succeeds — storage holds something at least as new). Write-backs of
    /// one page can come from several threads (an eviction's queued write,
    /// a checkpoint's, a helper's), and their order of arrival must not
    /// decide which image recovery starts from. Version 0 (raw writes,
    /// unversioned payloads) always replaces.
    pub fn write_sized_uncharged(
        &self,
        id: PageId,
        page: Arc<P>,
        logical: usize,
        physical: usize,
        version: u64,
    ) -> Result<()> {
        self.check_io()?;
        self.stats.page_writes.inc();
        self.stats.page_logical_bytes.add(logical as u64);
        self.stats.page_physical_bytes.add(physical as u64);
        let mut shard = self.shard(id).write();
        if version > 0 && shard.get(&id).is_some_and(|s| s.version > version) {
            return Ok(());
        }
        shard.insert(
            id,
            Stored {
                page,
                version,
                logical: logical as u32,
                physical: physical as u32,
            },
        );
        Ok(())
    }

    /// Remove a page (page deallocation after a B-tree shrink).
    pub fn remove(&self, id: PageId) -> Result<()> {
        self.check_io()?;
        self.stats.page_writes.inc();
        let charge = self.cfg.charge_ns(self.cfg.write_ns);
        self.stats.charged_io_ns.add(charge);
        precise_wait_ns(charge);
        self.shard(id).write().remove(&id);
        Ok(())
    }

    /// Every stored page (a standby's base backup; free, like the bulk
    /// copy a real deployment takes out of band). Not a consistent cut:
    /// each image is whatever the store held when its shard was visited.
    pub fn all_pages(&self) -> Vec<(PageId, Arc<P>)> {
        let mut pages = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            pages.extend(shard.iter().map(|(id, s)| (*id, Arc::clone(&s.page))));
        }
        pages
    }

    /// Number of pages currently stored (test/diagnostic helper; free).
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PageStore<String> {
        PageStore::new(StorageLatencyConfig::disabled())
    }

    #[test]
    fn allocate_ids_are_unique_and_nonnull() {
        let s = store();
        let a = s.allocate_page_id();
        let b = s.allocate_page_id();
        assert_ne!(a, b);
        assert!(!a.is_null());
    }

    #[test]
    fn read_write_roundtrip() {
        let s = store();
        let id = s.allocate_page_id();
        assert!(s.read(id).unwrap().is_none());
        s.write(id, Arc::new("hello".to_string())).unwrap();
        assert_eq!(*s.read(id).unwrap().unwrap(), "hello");
        s.write(id, Arc::new("world".to_string())).unwrap();
        assert_eq!(*s.read(id).unwrap().unwrap(), "world");
        assert_eq!(s.page_count(), 1);
        s.remove(id).unwrap();
        assert!(s.read(id).unwrap().is_none());
        assert_eq!(s.page_count(), 0);
    }

    #[test]
    fn stats_count_operations() {
        let s = store();
        let id = s.allocate_page_id();
        s.write(id, Arc::new("x".into())).unwrap();
        s.read(id).unwrap();
        s.read(id).unwrap();
        assert_eq!(s.stats().page_writes.get(), 1);
        assert_eq!(s.stats().page_reads.get(), 2);
        s.stats().reset();
        assert_eq!(s.stats().page_reads.get(), 0);
    }

    #[test]
    fn sized_writes_track_bytes_on_storage() {
        let s = store();
        let id = s.allocate_page_id();
        s.write_sized_uncharged(id, Arc::new("img".into()), 4096, 1024, 0)
            .unwrap();
        assert_eq!(s.physical_size(id), 1024);
        assert_eq!(s.stats().page_logical_bytes.get(), 4096);
        assert_eq!(s.stats().page_physical_bytes.get(), 1024);
        // A raw (codec-unaware) rewrite resets the sizes to unknown.
        s.write(id, Arc::new("raw".into())).unwrap();
        assert_eq!(s.physical_size(id), 0);
    }

    #[test]
    fn versioned_writes_never_regress_a_page() {
        let s = store();
        let id = s.allocate_page_id();
        let write = |text: &str, version| {
            s.write_sized_uncharged(id, Arc::new(text.into()), 0, 0, version)
                .unwrap();
            (*s.read(id).unwrap().unwrap()).clone()
        };
        assert_eq!(write("v5", 5), "v5");
        assert_eq!(write("v3-late", 3), "v5", "an older image is dropped");
        assert_eq!(write("v5-again", 5), "v5-again", "an equal one replaces");
        assert_eq!(write("v7", 7), "v7");
        assert_eq!(write("raw", 0), "raw", "unversioned writes always replace");
        assert_eq!(
            s.stats().page_writes.get(),
            5,
            "a dropped write still counts"
        );
    }

    #[test]
    fn failure_injection_blocks_io() {
        let s = store();
        let id = s.allocate_page_id();
        s.set_fail_io(true);
        assert!(matches!(s.read(id), Err(PmpError::StorageIo { .. })));
        assert!(s.write(id, Arc::new("x".into())).is_err());
        s.set_fail_io(false);
        assert!(s.write(id, Arc::new("x".into())).is_ok());
    }

    #[test]
    fn concurrent_writers_distinct_pages() {
        let s = Arc::new(store());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let id = s.allocate_page_id();
                        s.write(id, Arc::new(format!("{t}:{i}"))).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.page_count(), 800);
    }
}
