//! Cluster, engine and latency-model configuration.
//!
//! The latency numbers model the cost hierarchy the paper's evaluation rests
//! on: one-sided RDMA (single-digit µs, §4.1 "typically completed within
//! several microseconds") ≪ RDMA RPC ≪ shared-storage I/O (§2.3: Taurus-MM's
//! page fetches "typically involve storage I/Os"). All latencies can be
//! scaled by a single factor so benchmarks can trade wall-clock time for
//! fidelity without disturbing the ratios, and can be disabled entirely for
//! unit tests.

use serde::{Deserialize, Serialize};

/// Latency model for the simulated RDMA fabric.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// One-sided RDMA READ of a small object (e.g. a TIT slot or TSO cell).
    pub one_sided_read_ns: u64,
    /// One-sided RDMA WRITE of a small object (e.g. an invalid flag).
    pub one_sided_write_ns: u64,
    /// One-sided RDMA compare-and-swap / fetch-and-add.
    pub atomic_ns: u64,
    /// Round-trip of an RDMA-based RPC (request + handler dispatch + reply),
    /// excluding time spent blocked inside the handler.
    pub rpc_ns: u64,
    /// Additional cost per KiB transferred (applies to page-sized moves).
    pub per_kib_ns: u64,
    /// CPU cost of executing one SQL statement (parse/plan/execute in the
    /// engine). Real engines spend 50–200µs here, which is what keeps
    /// per-message fabric costs *relatively* small in the paper's numbers;
    /// charged identically by PolarDB-MP and every baseline.
    pub sql_stmt_ns: u64,
    /// Multiplier applied to every charge (1.0 = the defaults above).
    pub scale: f64,
    /// When false no time is charged at all (fast unit-test mode). Metering
    /// still happens so tests can assert on op counts.
    pub enabled: bool,
}

impl LatencyConfig {
    /// Production-like profile: 2µs one-sided ops, 10µs RPC, ~25ns/KiB
    /// (≈ 100Gbps line rate, matching the ConnectX-6 fabric in §5.1).
    pub fn realistic() -> Self {
        LatencyConfig {
            one_sided_read_ns: 2_000,
            one_sided_write_ns: 2_000,
            atomic_ns: 2_500,
            rpc_ns: 10_000,
            per_kib_ns: 80,
            sql_stmt_ns: 60_000,
            scale: 1.0,
            enabled: true,
        }
    }

    /// Zero-latency profile for unit tests: ops are metered but free.
    pub fn disabled() -> Self {
        LatencyConfig {
            enabled: false,
            ..Self::realistic()
        }
    }

    /// Realistic ratios compressed by `factor` (e.g. 0.25 → four times
    /// faster wall clock). Ratios between op kinds are preserved.
    pub fn scaled(factor: f64) -> Self {
        LatencyConfig {
            scale: factor,
            ..Self::realistic()
        }
    }

    /// Nanoseconds to charge for an op with base cost `base_ns` moving
    /// `bytes` bytes.
    pub fn charge_ns(&self, base_ns: u64, bytes: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let payload = (bytes as u64 * self.per_kib_ns) / 1024;
        let raw = base_ns + payload;
        (raw as f64 * self.scale) as u64
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::realistic()
    }
}

/// Latency model for the disaggregated shared storage (PolarStore stand-in).
///
/// A storage op charges `base + bytes-on-wire · per_kib_ns`, where the byte
/// term counts *physical* (post-compression) bytes: the cost model rewards
/// the compression layer everywhere the storage path appears. Running the
/// codec is not free — `codec_ns_per_kib` charges CPU per *raw* KiB pushed
/// through it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StorageLatencyConfig {
    /// Random page read from shared storage.
    pub read_ns: u64,
    /// Page write to shared storage.
    pub write_ns: u64,
    /// Log append + fsync barrier (the dominant commit-path storage cost).
    pub sync_ns: u64,
    /// Bandwidth term: cost per KiB of physical (compressed) bytes moved.
    pub per_kib_ns: u64,
    /// Codec CPU cost per KiB of raw bytes compressed or decompressed.
    pub codec_ns_per_kib: u64,
    /// Multiplier, kept in lock-step with [`LatencyConfig::scale`].
    pub scale: f64,
    pub enabled: bool,
}

impl StorageLatencyConfig {
    /// ~100µs page I/O, ~50µs group-commit sync — PolarFS-class numbers.
    /// The ~330 MB/s streaming term models the per-client throughput cap a
    /// shared cloud block store enforces; the codec term is LZ4-class
    /// (~20 GB/s).
    pub fn realistic() -> Self {
        StorageLatencyConfig {
            read_ns: 100_000,
            write_ns: 100_000,
            sync_ns: 50_000,
            per_kib_ns: 3_000,
            codec_ns_per_kib: 50,
            scale: 1.0,
            enabled: true,
        }
    }

    pub fn disabled() -> Self {
        StorageLatencyConfig {
            enabled: false,
            ..Self::realistic()
        }
    }

    pub fn scaled(factor: f64) -> Self {
        StorageLatencyConfig {
            scale: factor,
            ..Self::realistic()
        }
    }

    pub fn charge_ns(&self, base_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        (base_ns as f64 * self.scale) as u64
    }

    /// Bandwidth cost of moving `bytes` physical bytes to or from storage.
    pub fn byte_ns(&self, bytes: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let raw = (bytes as u64 * self.per_kib_ns) / 1024;
        (raw as f64 * self.scale) as u64
    }

    /// CPU cost of pushing `raw_bytes` through the page/log codec.
    pub fn codec_ns(&self, raw_bytes: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let raw = (raw_bytes as u64 * self.codec_ns_per_kib) / 1024;
        (raw as f64 * self.scale) as u64
    }

    /// Full charge for an op with base cost `base_ns` moving `bytes`
    /// physical bytes.
    pub fn charge_bytes_ns(&self, base_ns: u64, bytes: usize) -> u64 {
        self.charge_ns(base_ns) + self.byte_ns(bytes)
    }
}

impl Default for StorageLatencyConfig {
    fn default() -> Self {
        Self::realistic()
    }
}

/// Page/log codec selection for the shared-storage compression layer
/// (PolarStore-style; DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Compression {
    /// Bit-for-bit passthrough: stored images and log bytes are identical
    /// to the uncompressed layout (pinned by test).
    Off,
    /// LZ77 with a hash-chained match finder over the raw image — an
    /// LZ4-class block format, dependency-free.
    Lz4Like,
    /// [`Compression::Lz4Like`] with the match window pre-seeded by a
    /// static dictionary of common page-image byte patterns, so small
    /// images compress from their first byte.
    DictLike,
}

/// Knobs of the shared-storage compression layer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompressionConfig {
    /// Codec used for page images and for redo frames (compressed at `fill`
    /// time, outside the log mutex).
    pub compression: Compression,
}

impl CompressionConfig {
    /// The passthrough configuration: no codec anywhere.
    pub fn off() -> Self {
        CompressionConfig {
            compression: Compression::Off,
        }
    }

    /// LZ4-class compression on both pages and redo frames.
    pub fn lz4() -> Self {
        CompressionConfig {
            compression: Compression::Lz4Like,
        }
    }

    /// Dictionary-seeded compression on both pages and redo frames.
    pub fn dict() -> Self {
        CompressionConfig {
            compression: Compression::DictLike,
        }
    }

    /// Whether the page codec is active at all.
    pub fn pages_enabled(&self) -> bool {
        self.compression != Compression::Off
    }

    /// Whether redo frames are compressed: exactly when pages are.
    pub fn log_enabled(&self) -> bool {
        self.pages_enabled()
    }
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Tuning knobs of the per-node `pmp-io` submission/completion ring.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IoRingConfig {
    /// Submission-queue capacity; submitters block (charge-free) when full.
    pub sq_capacity: usize,
    /// Completion workers draining the submission queue. Each worker
    /// charges one device round-trip per *batch*, so a small pool sustains
    /// many in-flight operations.
    pub workers: usize,
    /// Maximum SQEs a worker drains per batch (same-page reads coalesce).
    pub batch_limit: usize,
    /// Adaptive batch-gathering window in microseconds: when a worker finds
    /// fewer than `batch_limit` SQEs queued it waits up to this long for
    /// more submissions to arrive before charging the device round-trip, so
    /// deep-queue workloads amortise the charge over fuller batches. 0
    /// disables the window (drain-what-is-there, the pre-async behaviour).
    pub batch_window_us: u64,
}

impl Default for IoRingConfig {
    fn default() -> Self {
        IoRingConfig {
            sq_capacity: 256,
            workers: 2,
            batch_limit: 32,
            batch_window_us: 0,
        }
    }
}

/// Per-node engine tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Local buffer pool capacity in pages (the paper's LBP, §4.2).
    pub lbp_capacity: usize,
    /// Number of TIT slots per node (§4.1).
    pub tit_slots: usize,
    /// Lock wait timeout in milliseconds (RLock and PLock waits).
    pub lock_wait_timeout_ms: u64,
    /// Interval of the background dirty-page flusher in ms.
    pub flush_interval_ms: u64,
    /// Chunk size (bytes per node log stream) used by chunked LLSN_bound
    /// recovery (§4.4).
    pub recovery_chunk_bytes: usize,
    /// Run statements at read-committed (fresh snapshot per statement, the
    /// evaluation default, §5.1) instead of snapshot isolation.
    pub read_committed: bool,
    /// Enable the Linear Lamport Timestamp optimisation for read snapshots
    /// (§4.1, from PolarDB-SCC). Disabled in the ablation bench.
    pub linear_lamport: bool,
    /// Enable lazy PLock release (§4.3.1). Disabled in the ablation bench.
    pub lazy_plock_release: bool,
    /// Enable commit-time CTS backfill into buffered rows (§4.1).
    pub cts_backfill: bool,
    /// Group-commit collect window in microseconds (MySQL-binlog style):
    /// the `Wal::force` leader waits this long inside the sync mutex for
    /// followers to land their commit records before charging the one
    /// fsync that covers the whole batch. Adaptive: after several windows
    /// that close with no followers the leader stops waiting until
    /// concurrency reappears. 0 disables the window entirely.
    pub wal_group_window_us: u64,
    /// Maximum CTS lease size (range leasing on the TSO): under a high
    /// commit arrival rate one remote fetch-and-add reserves up to this
    /// many timestamps, handed out locally in order. The lease grows
    /// adaptively 1→max and is dropped on idle so the `current_cts`
    /// snapshot boundary never runs far ahead of committed work. 0 or 1
    /// disables leasing (every commit pays its own FAA).
    pub cts_lease_max: u64,
    /// Byte budget of the per-node MVCC version store (committed row images
    /// kept node-locally so snapshot readers resolve without undo walks or
    /// TIT/CTS fabric lookups). 0 disables the store (CTS-cache-only
    /// baseline).
    pub version_store_bytes: usize,
    /// Worker threads of the per-node async transaction scheduler. Each
    /// worker runs parked-transaction continuations to their next wait
    /// point, so a handful of workers multiplexes hundreds of open
    /// transactions (the thread-per-txn ceiling this knob replaces).
    pub sched_workers: usize,
    /// Submission/completion ring for storage I/O (the `pmp-io` subsystem).
    pub io: IoRingConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lbp_capacity: 16_384,
            tit_slots: 4_096,
            lock_wait_timeout_ms: 2_000,
            flush_interval_ms: 50,
            recovery_chunk_bytes: 64 * 1024,
            read_committed: true,
            linear_lamport: true,
            lazy_plock_release: true,
            cts_backfill: true,
            wal_group_window_us: 20,
            cts_lease_max: 16,
            version_store_bytes: 4 * 1024 * 1024,
            sched_workers: 2,
            io: IoRingConfig::default(),
        }
    }
}

/// Top-level cluster configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of primary nodes to start with.
    pub nodes: usize,
    pub latency: LatencyConfig,
    pub storage_latency: StorageLatencyConfig,
    pub engine: EngineConfig,
    /// Distributed buffer pool capacity in pages (§4.2). The DBP is sized
    /// like the disaggregated-memory pool in the paper: much larger than any
    /// single LBP.
    pub dbp_capacity: usize,
    /// PMFS replica count (DESIGN.md §15). With 1 the fusion server is a
    /// passive singleton; with 2–3 every PMFS write fans in place to each
    /// replica (SWARM-style) and acked state survives a replica crash.
    pub replicas: usize,
    /// Minimum number of live PMFS replicas required to keep serving.
    /// `replicas = 3, repl_quorum = 2` survives any single replica crash.
    pub repl_quorum: usize,
    /// Shared-storage compression layer (DESIGN.md §16).
    pub compression: CompressionConfig,
    /// Suspicion window in ms after which a crashed PMFS replica is
    /// automatically re-seated via the `recover_pmfs_replica` path. A
    /// replica must be observed Down across two consecutive windows before
    /// the re-seat fires (so an explicit crash/recover test sequence isn't
    /// raced). 0 disables the monitor (explicit recovery only).
    pub repl_suspicion_ms: u64,
}

impl ClusterConfig {
    /// Fast profile for unit/integration tests: no injected latency.
    /// `PMP_TEST_COMPRESSION=lz4|dict` turns the compression layer on for
    /// the whole suite (the CI compression job).
    pub fn test(nodes: usize) -> Self {
        let mut cfg = ClusterConfig {
            nodes,
            latency: LatencyConfig::disabled(),
            storage_latency: StorageLatencyConfig::disabled(),
            engine: EngineConfig::default(),
            dbp_capacity: 262_144,
            replicas: 1,
            repl_quorum: 1,
            compression: CompressionConfig::off(),
            repl_suspicion_ms: 0,
        };
        match std::env::var("PMP_TEST_COMPRESSION").as_deref() {
            Ok("lz4") => cfg.compression = CompressionConfig::lz4(),
            Ok("dict") => cfg.compression = CompressionConfig::dict(),
            _ => {}
        }
        cfg
    }

    /// Benchmark profile with the realistic latency hierarchy, optionally
    /// compressed by `scale`.
    pub fn bench(nodes: usize, scale: f64) -> Self {
        ClusterConfig {
            nodes,
            latency: LatencyConfig::scaled(scale),
            storage_latency: StorageLatencyConfig::scaled(scale),
            engine: EngineConfig::default(),
            dbp_capacity: 262_144,
            replicas: 1,
            repl_quorum: 1,
            compression: CompressionConfig::off(),
            repl_suspicion_ms: 0,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::test(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_latency_charges_nothing() {
        let l = LatencyConfig::disabled();
        assert_eq!(l.charge_ns(10_000, 16 * 1024), 0);
        let s = StorageLatencyConfig::disabled();
        assert_eq!(s.charge_ns(100_000), 0);
    }

    #[test]
    fn scale_preserves_ratios() {
        let full = LatencyConfig::realistic();
        let half = LatencyConfig::scaled(0.5);
        let a = full.charge_ns(10_000, 4096);
        let b = half.charge_ns(10_000, 4096);
        assert_eq!(b, a / 2);
    }

    #[test]
    fn payload_cost_grows_with_bytes() {
        let l = LatencyConfig::realistic();
        assert!(l.charge_ns(2_000, 16 * 1024) > l.charge_ns(2_000, 0));
    }

    #[test]
    fn storage_byte_term_rewards_fewer_physical_bytes() {
        let s = StorageLatencyConfig::realistic();
        let raw = s.charge_bytes_ns(s.read_ns, 64 * 1024);
        let compressed = s.charge_bytes_ns(s.read_ns, 16 * 1024) + s.codec_ns(64 * 1024);
        assert!(compressed < raw, "compressed read must charge less");
        // The codec is not free: decompressing costs more than reading the
        // same physical bytes without a codec pass.
        assert!(s.codec_ns(64 * 1024) > 0);
        // Disabled profile charges nothing for any term.
        let d = StorageLatencyConfig::disabled();
        assert_eq!(d.byte_ns(1 << 20) + d.codec_ns(1 << 20), 0);
    }

    #[test]
    fn compression_config_profiles() {
        let off = CompressionConfig::off();
        assert!(!off.pages_enabled() && !off.log_enabled());
        let lz4 = CompressionConfig::lz4();
        assert!(lz4.pages_enabled() && lz4.log_enabled());
        let dict = CompressionConfig::dict();
        assert!(dict.pages_enabled() && dict.log_enabled());
    }

    #[test]
    fn cost_hierarchy_holds() {
        let l = LatencyConfig::realistic();
        let s = StorageLatencyConfig::realistic();
        let one_sided = l.charge_ns(l.one_sided_read_ns, 16 * 1024);
        let rpc = l.charge_ns(l.rpc_ns, 0);
        let storage = s.charge_ns(s.read_ns);
        assert!(one_sided < rpc, "page-sized RDMA read must beat an RPC");
        assert!(rpc < storage, "RPC must beat storage I/O");
    }
}
