//! Criterion micro-benchmarks of the PMFS component costs that the figure
//! results decompose into: TSO fetches, local vs remote TIT reads, PLock
//! grant paths, page transfer paths, and chunked-vs-naive recovery.
//!
//! These run at latency scale 1 (true microsecond-class charges, spun),
//! so the numbers line up with the paper's component costs: one-sided
//! reads in single-digit µs, RPCs ~10µs, storage reads ~100µs.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pmp_common::{
    ClusterConfig, Cts, LatencyConfig, Llsn, NodeId, PageId, StorageLatencyConfig, TableId,
};
use pmp_engine::page::Page;
use pmp_engine::redo::{RedoOp, RedoRecord};
use pmp_pmfs::{BufferFusion, PLockFusion, PLockMode, TitRegion, TxnFusion};
use pmp_rdma::Fabric;
use pmp_repl::ReplicatedFabric;
use pmp_storage::PageStore;

fn realistic_fabric() -> Arc<Fabric> {
    Arc::new(Fabric::new(LatencyConfig::realistic()))
}

/// Unreplicated facade (`replicas = 1`): the micro costs below are the raw
/// fusion-verb charges, without replication fan-out.
fn realistic_repl() -> Arc<ReplicatedFabric> {
    Arc::new(ReplicatedFabric::single(realistic_fabric()))
}

fn bench_tso(c: &mut Criterion) {
    let fusion = TxnFusion::new(realistic_repl());
    c.bench_function("tso/next_cts (one-sided FAA)", |b| {
        b.iter(|| std::hint::black_box(fusion.next_cts()))
    });
    c.bench_function("tso/current_cts (one-sided read)", |b| {
        b.iter(|| std::hint::black_box(fusion.current_cts()))
    });
}

fn bench_tit(c: &mut Criterion) {
    let repl = realistic_repl();
    let fusion = TxnFusion::new(Arc::clone(&repl));
    let region = Arc::new(TitRegion::new(repl, NodeId(1), 128));
    fusion.register_region(Arc::clone(&region));
    let (slot, version) = region.allocate().unwrap();
    region.commit(slot, Cts(42));
    let gid = pmp_common::GlobalTrxId {
        node: NodeId(1),
        trx: pmp_common::TrxId(1),
        slot,
        version,
    };
    c.bench_function("tit/trx_cts local", |b| {
        b.iter(|| std::hint::black_box(fusion.trx_cts(NodeId(1), gid)))
    });
    c.bench_function("tit/trx_cts remote (one-sided read)", |b| {
        b.iter(|| std::hint::black_box(fusion.trx_cts(NodeId(2), gid)))
    });
}

fn bench_plock(c: &mut Criterion) {
    use pmp_engine::plock_local::LocalPLocks;
    let fusion = Arc::new(PLockFusion::new(realistic_repl()));
    let lazy = LocalPLocks::new(NodeId(1), Arc::clone(&fusion), true, Duration::from_secs(1));
    fusion.register_node(NodeId(1), Arc::clone(&lazy));
    // Prime: hold once so re-grants are local.
    drop(lazy.acquire(PageId(1), PLockMode::X).unwrap());
    c.bench_function("plock/local lazy re-grant", |b| {
        b.iter(|| drop(lazy.acquire(PageId(1), PLockMode::S).unwrap()))
    });

    let eager = LocalPLocks::new(
        NodeId(2),
        Arc::clone(&fusion),
        false,
        Duration::from_secs(1),
    );
    fusion.register_node(NodeId(2), Arc::clone(&eager));
    c.bench_function("plock/fusion acquire+release (RPC)", |b| {
        b.iter(|| drop(eager.acquire(PageId(2), PLockMode::S).unwrap()))
    });
}

fn bench_page_transfer(c: &mut Criterion) {
    let dbp: Arc<BufferFusion<Page>> = BufferFusion::new(realistic_repl(), 4096, 16 * 1024);
    let page = Arc::new(Page::new_leaf(PageId(7)));
    let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
    dbp.register_push(
        NodeId(1),
        PageId(7),
        Arc::clone(&page),
        Llsn(1),
        flag,
        pmp_pmfs::PageSource::Memory,
    );
    c.bench_function("page/DBP one-sided fetch (16KiB)", |b| {
        b.iter(|| std::hint::black_box(dbp.fetch(NodeId(1), PageId(7))))
    });

    let store: PageStore<Page> = PageStore::new(StorageLatencyConfig::realistic());
    store.write(PageId(7), page).unwrap();
    c.bench_function("page/shared-storage read (the Taurus path)", |b| {
        b.iter(|| std::hint::black_box(store.read(PageId(7)).unwrap()))
    });
}

fn bench_undo(c: &mut Criterion) {
    use pmp_engine::undo::{UndoPtr, UndoRecord, UndoStore};
    let fabric = realistic_fabric();
    let store = UndoStore::new();
    let rec = UndoRecord {
        trx: pmp_common::GlobalTrxId {
            node: NodeId(1),
            trx: pmp_common::TrxId(1),
            slot: pmp_common::SlotId(0),
            version: 1,
        },
        table: TableId(1),
        key: 7,
        prev: None,
        trx_prev: UndoPtr::NULL,
    };
    let ptr = store.append(NodeId(1), rec);
    c.bench_function("undo/read local", |b| {
        b.iter(|| std::hint::black_box(store.read(&fabric, NodeId(1), ptr)))
    });
    c.bench_function("undo/read remote (one-sided)", |b| {
        b.iter(|| std::hint::black_box(store.read(&fabric, NodeId(2), ptr)))
    });
}

fn bench_ref_flag(c: &mut Criterion) {
    use pmp_pmfs::TitRegion;
    use pmp_rdma::Locality;
    let region = TitRegion::new(realistic_repl(), NodeId(1), 16);
    let (slot, _) = region.allocate().unwrap();
    c.bench_function("rlock/ref-flag FAA (Figure 6 step 1)", |b| {
        b.iter(|| std::hint::black_box(region.add_ref(slot, Locality::Remote)))
    });
}

/// Chunked LLSN_bound recovery vs the naive "load everything and sort"
/// approach (§4.4): identical results, O(chunk) vs O(log) memory, and the
/// chunked merge is faster because it never materializes the full sort.
fn bench_llsn_recovery(c: &mut Criterion) {
    use pmp_common::Lsn;
    use pmp_storage::LogStream;

    // Build three synthetic streams with interleaved LLSNs.
    let streams: Vec<Arc<LogStream>> = (0..3)
        .map(|_| Arc::new(LogStream::new(StorageLatencyConfig::disabled())))
        .collect();
    let mut llsn = 0u64;
    for round in 0..2000 {
        let s = &streams[round % 3];
        let mut buf = Vec::new();
        for _ in 0..3 {
            llsn += 1;
            RedoRecord {
                llsn: Llsn(llsn),
                page: PageId(1 + llsn % 64),
                table: TableId(1),
                op: RedoOp::RemoveRow { key: llsn as u128 },
            }
            .encode_into(&mut buf);
        }
        s.append(&buf);
        s.sync();
    }

    let decode_all = |s: &Arc<LogStream>| {
        let chunk = s.read_chunk(Lsn::ZERO, usize::MAX).unwrap();
        let mut pos = 0;
        let mut out = Vec::new();
        while let Some((rec, used)) = RedoRecord::decode_from(&chunk.data[pos..]).unwrap() {
            out.push(rec);
            pos += used;
        }
        out
    };

    c.bench_function("recovery/naive full sort", |b| {
        b.iter(|| {
            let mut all: Vec<RedoRecord> = streams.iter().flat_map(decode_all).collect();
            all.sort_by_key(|r| r.llsn);
            std::hint::black_box(all.len())
        })
    });

    c.bench_function("recovery/chunked LLSN_bound merge", |b| {
        b.iter(|| {
            // The same merge recover_cluster uses, on raw streams.
            let mut cursors: Vec<(usize, Vec<RedoRecord>, usize)> = streams
                .iter()
                .map(|s| (0usize, decode_all(s), 0usize))
                .collect();
            // Chunked: take CHUNK records per stream per round.
            const CHUNK: usize = 64;
            let mut processed = 0usize;
            loop {
                let mut bound = u64::MAX;
                let mut any = false;
                for (pos, records, _) in &cursors {
                    if *pos < records.len() {
                        any = true;
                        let end = (*pos + CHUNK).min(records.len());
                        let last = records[end - 1].llsn.0;
                        if end < records.len() {
                            bound = bound.min(last);
                        }
                    }
                }
                if !any {
                    break;
                }
                let mut batch: Vec<Llsn> = Vec::new();
                for (pos, records, _) in cursors.iter_mut() {
                    let end = (*pos + CHUNK).min(records.len());
                    while *pos < end && records[*pos].llsn.0 <= bound {
                        batch.push(records[*pos].llsn);
                        *pos += 1;
                    }
                }
                batch.sort();
                processed += batch.len();
            }
            std::hint::black_box(processed)
        })
    });
}

/// LBP lookup under contention (the fast path sharded in PR 1): K threads
/// hammer Zipf-distributed lookups — finishing loads on misses, evicting
/// under capacity pressure — against the sharded pool and against a
/// faithful replica of the pre-sharding pool (one mutex-protected map,
/// one pool-wide condvar, one clock hand).
fn bench_lbp_contention(c: &mut Criterion) {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    use parking_lot::{Condvar, Mutex};
    use pmp_engine::lbp::{Lbp, Lookup};

    const WORKING_SET: usize = 2048;
    const CAPACITY: usize = 1024;
    const OPS_PER_THREAD: usize = 2000;
    const EVICT_EVERY: usize = 256;
    const ZIPF_THETA: f64 = 0.99;

    fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        weights
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn sample(cdf: &[f64], state: &mut u64) -> usize {
        let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
        cdf.partition_point(|&c| c < u)
    }

    /// The pre-sharding pool, minimally replicated: every lookup, load
    /// completion and eviction scan serializes on one mutex, and every
    /// load completion wakes every waiter in the pool.
    struct MutexLbp {
        map: Mutex<HashMap<PageId, MutexSlot>>,
        load_cv: Condvar,
        evict_cursor: AtomicUsize,
        capacity: usize,
    }

    enum MutexSlot {
        Loading,
        Ready { referenced: AtomicBool },
    }

    impl MutexLbp {
        fn new(capacity: usize) -> Self {
            MutexLbp {
                map: Mutex::new(HashMap::new()),
                load_cv: Condvar::new(),
                evict_cursor: AtomicUsize::new(0),
                capacity,
            }
        }

        fn lookup_or_load(&self, id: PageId) {
            let mut map = self.map.lock();
            loop {
                match map.get(&id) {
                    Some(MutexSlot::Ready { referenced }) => {
                        referenced.store(true, Ordering::Relaxed);
                        return;
                    }
                    Some(MutexSlot::Loading) => self.load_cv.wait(&mut map),
                    None => {
                        map.insert(id, MutexSlot::Loading);
                        drop(map);
                        // The storage round-trip would happen here.
                        map = self.map.lock();
                        map.insert(
                            id,
                            MutexSlot::Ready {
                                referenced: AtomicBool::new(true),
                            },
                        );
                        self.load_cv.notify_all();
                        return;
                    }
                }
            }
        }

        fn maybe_evict(&self, want: usize) {
            let mut map = self.map.lock();
            if map.len() <= self.capacity {
                return;
            }
            let keys: Vec<PageId> = map.keys().copied().collect();
            if keys.is_empty() {
                return;
            }
            let start = self.evict_cursor.fetch_add(1, Ordering::Relaxed) % keys.len();
            let mut evicted = 0;
            for i in 0..keys.len() {
                if evicted >= want {
                    break;
                }
                let key = keys[(start + i) % keys.len()];
                if let Some(MutexSlot::Ready { referenced }) = map.get(&key) {
                    if referenced.swap(false, Ordering::Relaxed) {
                        continue; // second chance
                    }
                    map.remove(&key);
                    evicted += 1;
                }
            }
        }
    }

    fn run_round(threads: usize, op: &(impl Fn(PageId) + Sync), evict: &(impl Fn() + Sync)) {
        let cdf = zipf_cdf(WORKING_SET, ZIPF_THETA);
        thread::scope(|s| {
            for t in 0..threads {
                let cdf = &cdf;
                s.spawn(move || {
                    let mut rng = 0x9E37_79B9u64.wrapping_add(t as u64 * 0x517C_C1B7);
                    for i in 0..OPS_PER_THREAD {
                        let id = PageId(1 + sample(cdf, &mut rng) as u64);
                        op(id);
                        if i % EVICT_EVERY == EVICT_EVERY - 1 {
                            evict();
                        }
                    }
                });
            }
        });
    }

    for &threads in &[1usize, 2, 4, 8] {
        c.bench_function(&format!("lbp/sharded lookup {threads} threads"), |b| {
            let pool = Lbp::new(CAPACITY);
            b.iter(|| {
                run_round(
                    threads,
                    &|id| match pool.lookup(id) {
                        Lookup::Hit(frame) => {
                            std::hint::black_box(frame.is_valid());
                        }
                        Lookup::MustLoad(ticket) => {
                            pool.finish_load(
                                id,
                                ticket,
                                Page::new_leaf(id),
                                Arc::new(AtomicBool::new(true)),
                            );
                        }
                    },
                    &|| {
                        if pool.over_capacity() {
                            pool.evict(8);
                        }
                    },
                )
            })
        });

        c.bench_function(&format!("lbp/single-mutex lookup {threads} threads"), |b| {
            let pool = MutexLbp::new(CAPACITY);
            b.iter(|| {
                run_round(threads, &|id| pool.lookup_or_load(id), &|| {
                    pool.maybe_evict(8)
                })
            })
        });
    }
}

fn bench_visibility(c: &mut Criterion) {
    use pmp_core::Cluster;
    use pmp_engine::row::RowValue;
    // Full-stack visibility check: read a row last written by another node
    // (TIT consult) vs by the same node (local fast path).
    let cluster = Cluster::builder().config(ClusterConfig::test(2)).build();
    let t = cluster.create_table("t", 2, &[]).unwrap();
    cluster
        .session(0)
        .insert(t, 1, RowValue::new(vec![1, 2]))
        .unwrap();
    let s0 = cluster.session(0);
    let s1 = cluster.session(1);
    c.bench_function("visibility/read own node's commit", |b| {
        b.iter(|| std::hint::black_box(s0.get(t, 1).unwrap()))
    });
    c.bench_function("visibility/read peer node's commit", |b| {
        b.iter(|| std::hint::black_box(s1.get(t, 1).unwrap()))
    });
}

/// A 16KiB page image that is `noise_pct`% incompressible xorshift noise,
/// the rest the structured repetition a slotted heap page shows.
fn image_with_noise(noise_pct: usize) -> Vec<u8> {
    let len = 16 * 1024;
    let noise = len * noise_pct / 100;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|i| {
            if i < noise {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            } else {
                ((i / 64) % 7) as u8
            }
        })
        .collect()
}

fn bench_compression(c: &mut Criterion) {
    use pmp_common::{Compression, CompressionConfig};
    use pmp_storage::{Codec, SharedStorage};

    // Codec CPU throughput alone (no simulated storage latency), swept
    // across compressibility.
    for noise in [0usize, 50, 100] {
        let raw = image_with_noise(noise);
        let codec = Codec::new(Compression::Lz4Like);
        let comp = codec.compress(&raw);
        let ratio = raw.len() as f64 / comp.len() as f64;
        c.bench_function(
            &format!("storage/compression codec compress 16KiB ({noise}% noise, ratio {ratio:.1})"),
            |b| b.iter(|| std::hint::black_box(codec.compress(&raw))),
        );
        c.bench_function(
            &format!("storage/compression codec decompress 16KiB ({noise}% noise)"),
            |b| b.iter(|| std::hint::black_box(codec.decompress(&comp, raw.len()).unwrap())),
        );
    }

    // Charged storage path at latency scale 1: base + per-compressed-byte
    // bandwidth term + codec CPU. Fresh writes install a new slot, in-place
    // updates ride the delta region, reads pay physical bytes.
    for noise in [0usize, 50, 100] {
        let raw = image_with_noise(noise);
        for (label, cfg) in [
            ("Off", CompressionConfig::off()),
            ("Lz4Like", CompressionConfig::lz4()),
        ] {
            let storage: SharedStorage<Vec<u8>> =
                SharedStorage::new_with_compression(StorageLatencyConfig::realistic(), cfg);
            let hot = storage.page_store().allocate_page_id();
            storage.write_page(hot, Arc::new(raw.clone())).unwrap();
            c.bench_function(
                &format!("storage/compression fresh write 16KiB {noise}% noise ({label})"),
                |b| {
                    b.iter(|| {
                        let id = storage.page_store().allocate_page_id();
                        storage.write_page(id, Arc::new(raw.clone())).unwrap()
                    })
                },
            );
            c.bench_function(
                &format!("storage/compression in-place update 16KiB {noise}% noise ({label})"),
                |b| b.iter(|| storage.write_page(hot, Arc::new(raw.clone())).unwrap()),
            );
            c.bench_function(
                &format!("storage/compression read 16KiB {noise}% noise ({label})"),
                |b| b.iter(|| std::hint::black_box(storage.page_store().read(hot).unwrap())),
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(20);
    targets = bench_tso, bench_tit, bench_plock, bench_page_transfer,
              bench_undo, bench_ref_flag, bench_llsn_recovery,
              bench_lbp_contention, bench_visibility, bench_compression
}
criterion_main!(benches);
