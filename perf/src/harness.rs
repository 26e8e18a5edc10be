//! One run of one workload: set-up, warm-up, the measured window, and the
//! output checks. Drives the system only through its public API.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pmp_common::{Result, TableId};
use pmp_core::{AsyncSession, Cluster, RecoveryStats, RowValue, Session, StatsSnapshot, Txn};

use crate::gen::{Op, OpKind, TxnGen, TxnSpec, SCAN_LEN};
use crate::procfs::{host_steal_ms, live_threads_cpu_ns, peak_rss_mb, ProcSnapshot};
use crate::stats::{percentile_sorted, ratio};
use crate::trace::{Recorder, SpanKind, Trace};
use crate::workload::{WorkloadDef, NODES};

/// Unmeasured run-in before the window: long enough for each node to pull
/// the half of the shared group it did not load and for the cold workload's
/// pools to turn over several times.
pub const WARMUP: Duration = Duration::from_secs(2);
/// The window is cut into slices: the timed end-to-end metrics are the
/// median slice's, every run prints the per-slice series, and a traced run
/// traces every second slice.
pub const SLICE: Duration = Duration::from_secs(1);
/// Set-ups per untraced run; `setup_s` is their median. The first builds the
/// cluster that is measured; the others are made after the output checks, so
/// they are spread over the run and leave `peak_rss_mb` alone.
pub const SETUPS: usize = 3;
/// Attempts after the first before a retryable abort counts as a failure.
pub const MAX_RETRIES: u32 = 8;
/// Rows per bulk-load transaction.
const LOAD_BATCH: u64 = 256;
/// Window samples a client can hold (one `u32` each).
const SAMPLES_KEPT: usize = 8 * 1024 * 1024;

// ---- row images -------------------------------------------------------------

/// Who wrote a row image and in which order: the writer (0 = bulk load,
/// `client + 1` otherwise) in the top byte, its write counter below.
fn stamp(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 56) | seq
}

fn stamp_writer(stamp: u64) -> usize {
    (stamp >> 56) as usize
}

/// A shadow entry for a key whose last transaction ended in an error of
/// unknown outcome; the verifier skips it.
const UNKNOWN: u64 = u64::MAX;

/// Column 0 is the key, column 1 the stamp, the rest a small repeating
/// filler (what makes the 8-column rows of `wo_cold` compressible).
fn row_image(key: u64, stamp: u64, columns: usize) -> RowValue {
    let mut cols = vec![key % 16; columns];
    cols[0] = key;
    cols[1] = stamp;
    RowValue::new(cols)
}

// ---- set-up -----------------------------------------------------------------

pub struct Loaded {
    pub cluster: Arc<Cluster>,
    pub tables: Vec<TableId>,
}

/// Build the cluster, create the tables, bulk-load every row through the
/// ordinary insert path with latency injection off, checkpoint and quiesce.
pub fn setup(def: &WorkloadDef) -> Result<Loaded> {
    pmp_rdma::set_latency_enabled(false);
    let cluster = Cluster::start(def.config);
    let layout = def.layout;
    let mut tables = Vec::with_capacity(layout.table_count());
    for t in 0..layout.table_count() {
        tables.push(cluster.create_table(&format!("sbtest{t}"), def.columns, &[])?);
    }
    for (t, &id) in tables.iter().enumerate() {
        let group = layout.group_of(t);
        // A private group is loaded by its node; the shared group's key
        // range is split so initial page ownership is spread.
        let parts: Vec<(usize, u64, u64)> = if group < layout.nodes {
            vec![(group, 0, layout.rows_per_table)]
        } else {
            (0..layout.nodes as u64)
                .map(|n| {
                    let per = layout.rows_per_table / layout.nodes as u64;
                    let end = if n as usize + 1 == layout.nodes {
                        layout.rows_per_table
                    } else {
                        (n + 1) * per
                    };
                    (n as usize, n * per, end)
                })
                .collect()
        };
        for (node, from, to) in parts {
            let session = cluster.session(node);
            let mut next = from;
            while next < to {
                let end = (next + LOAD_BATCH).min(to);
                session.with_txn(|txn| {
                    for k in next..end {
                        txn.insert(id, k, row_image(k, 0, def.columns))?;
                    }
                    Ok(())
                })?;
                next = end;
            }
        }
    }
    cluster.checkpoint_all();
    for n in 0..cluster.node_count() {
        cluster.node(n).quiesce();
    }
    pmp_rdma::set_latency_enabled(true);
    Ok(Loaded { cluster, tables })
}

// ---- connections ------------------------------------------------------------

/// What a client does with its connection; one implementation per session
/// kind so the same transaction code drives both.
trait Conn {
    fn begin(&mut self) -> Result<()>;
    fn get(&mut self, t: TableId, k: u64) -> Result<Option<RowValue>>;
    fn scan(&mut self, t: TableId, from: u64, limit: usize) -> Result<Vec<(u64, RowValue)>>;
    fn update(&mut self, t: TableId, k: u64, v: RowValue) -> Result<()>;
    fn insert(&mut self, t: TableId, k: u64, v: RowValue) -> Result<()>;
    fn delete(&mut self, t: TableId, k: u64) -> Result<()>;
    fn commit(&mut self) -> Result<()>;
    fn rollback(&mut self);
}

struct BlockingConn {
    session: Session,
    txn: Option<Txn>,
}

impl BlockingConn {
    fn txn(&mut self) -> &mut Txn {
        self.txn.as_mut().expect("statement outside begin/commit")
    }
}

impl Conn for BlockingConn {
    fn begin(&mut self) -> Result<()> {
        self.txn = Some(self.session.begin()?);
        Ok(())
    }
    fn get(&mut self, t: TableId, k: u64) -> Result<Option<RowValue>> {
        self.txn().get(t, k)
    }
    fn scan(&mut self, t: TableId, from: u64, limit: usize) -> Result<Vec<(u64, RowValue)>> {
        self.txn().scan(t, from, limit)
    }
    fn update(&mut self, t: TableId, k: u64, v: RowValue) -> Result<()> {
        self.txn().update(t, k, v)
    }
    fn insert(&mut self, t: TableId, k: u64, v: RowValue) -> Result<()> {
        self.txn().insert(t, k, v)
    }
    fn delete(&mut self, t: TableId, k: u64) -> Result<()> {
        self.txn().delete(t, k)
    }
    fn commit(&mut self) -> Result<()> {
        let txn = self.txn.take().expect("commit outside a transaction");
        txn.commit().map(|_| ())
    }
    fn rollback(&mut self) {
        if let Some(txn) = self.txn.take() {
            // An abort already rolled the transaction back; the explicit
            // rollback is then a no-op that reports so.
            let _ = txn.rollback();
        }
    }
}

struct AsyncConn {
    session: AsyncSession,
}

impl Conn for AsyncConn {
    fn begin(&mut self) -> Result<()> {
        self.session.begin().wait()
    }
    fn get(&mut self, t: TableId, k: u64) -> Result<Option<RowValue>> {
        self.session.get(t, k).wait()
    }
    fn scan(&mut self, t: TableId, from: u64, limit: usize) -> Result<Vec<(u64, RowValue)>> {
        self.session.scan(t, from, limit).wait()
    }
    fn update(&mut self, t: TableId, k: u64, v: RowValue) -> Result<()> {
        self.session.update(t, k, v).wait()
    }
    fn insert(&mut self, t: TableId, k: u64, v: RowValue) -> Result<()> {
        self.session.insert(t, k, v).wait()
    }
    fn delete(&mut self, t: TableId, k: u64) -> Result<()> {
        self.session.delete(t, k).wait()
    }
    fn commit(&mut self) -> Result<()> {
        self.session.commit().wait().map(|_| ())
    }
    fn rollback(&mut self) {
        let _ = self.session.rollback().wait();
    }
}

// ---- clients ----------------------------------------------------------------

/// When the phases of a run begin and end; every client derives its own
/// behaviour from these and its own clock, so the measured loop shares no
/// mutable state between threads.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub epoch: Instant,
    pub window_start: Instant,
    pub window_end: Instant,
    pub slices: usize,
    /// Trace the odd slices of the window.
    pub trace: bool,
}

impl Plan {
    pub fn new(seconds: u64, trace: bool) -> Plan {
        let epoch = Instant::now();
        let window_start = epoch + WARMUP;
        Plan {
            epoch,
            window_start,
            window_end: window_start + Duration::from_secs(seconds),
            slices: (Duration::from_secs(seconds).as_nanos() / SLICE.as_nanos()) as usize,
            trace,
        }
    }

    /// The slice of the window `t` falls in, if any.
    fn slice_of(&self, t: Instant) -> Option<usize> {
        if t < self.window_start || t >= self.window_end {
            return None;
        }
        let i = (t.duration_since(self.window_start).as_nanos() / SLICE.as_nanos()) as usize;
        (i < self.slices).then_some(i)
    }
}

/// One closed-loop client: its generator, its counters and sample buffers
/// (all allocated before the window), and its record of acked writes.
pub struct Client {
    pub id: usize,
    gen: TxnGen,
    columns: usize,
    rows_per_table: u64,
    write_seq: u64,
    /// Stamp of this client's last acked write per `(table, key)`, 0 if none.
    pub shadow: Vec<u64>,
    /// Latency of every transaction that ended inside the window, in ns.
    pub lat_ns: Vec<u32>,
    /// `lat_ns[slice_end[s - 1]..slice_end[s]]` are slice `s`'s samples
    /// (samples are pushed in time order).
    pub slice_end: Vec<usize>,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Executions including retries, for transactions inside the window.
    pub executions: u64,
    /// Statement results that contradict the loaded data.
    pub wrong_outputs: u64,
    pub samples_dropped: u64,
    pub first_error: Option<String>,
    pub rec: Recorder,
}

impl Client {
    fn new(id: usize, def: &WorkloadDef, seed: u64, plan: &Plan) -> Client {
        let layout = def.layout;
        Client {
            id,
            gen: TxnGen::new(seed, id, layout, def.mix, def.shared_pct),
            columns: def.columns,
            rows_per_table: layout.rows_per_table,
            write_seq: 0,
            shadow: vec![0; layout.table_count() * layout.rows_per_table as usize],
            lat_ns: Vec::with_capacity(SAMPLES_KEPT),
            slice_end: vec![0; plan.slices],
            attempted: 0,
            committed: 0,
            failed: 0,
            executions: 0,
            wrong_outputs: 0,
            samples_dropped: 0,
            first_error: None,
            rec: Recorder::new(id, plan.epoch, plan.trace),
        }
    }

    /// Where `(table, key)` lives in `shadow`.
    fn shadow_index(&self, op: &Op) -> usize {
        op.table * self.rows_per_table as usize + op.key as usize
    }

    fn next_stamp(&mut self) -> u64 {
        self.write_seq += 1;
        stamp(self.id, self.write_seq)
    }

    /// One execution of `spec`. Writes that would become visible on commit
    /// are noted in `pending` as `(shadow index, stamp)`.
    fn execute(
        &mut self,
        conn: &mut impl Conn,
        tables: &[TableId],
        spec: &TxnSpec,
        pending: &mut Vec<(usize, u64)>,
    ) -> Result<()> {
        pending.clear();
        self.rec.child(SpanKind::Begin, || conn.begin())?;
        for op in spec.ops() {
            let t = tables[op.table];
            let idx = self.shadow_index(op);
            match op.kind {
                OpKind::Get => {
                    let row = self.rec.child(SpanKind::Get, || conn.get(t, op.key))?;
                    if row.is_none_or(|r| r.col(0) != op.key) {
                        self.wrong_outputs += 1;
                    }
                }
                OpKind::Scan => {
                    let rows = self
                        .rec
                        .child(SpanKind::Scan, || conn.scan(t, op.key, SCAN_LEN))?;
                    if rows.len() != SCAN_LEN || rows[0].0 != op.key {
                        self.wrong_outputs += 1;
                    }
                }
                OpKind::Update => {
                    let s = self.next_stamp();
                    let v = row_image(op.key, s, self.columns);
                    self.rec
                        .child(SpanKind::Update, || conn.update(t, op.key, v))?;
                    pending.push((idx, s));
                }
                OpKind::Delete => {
                    self.rec
                        .child(SpanKind::Delete, || conn.delete(t, op.key))?;
                }
                OpKind::Insert => {
                    let s = self.next_stamp();
                    let v = row_image(op.key, s, self.columns);
                    self.rec
                        .child(SpanKind::Insert, || conn.insert(t, op.key, v))?;
                    pending.push((idx, s));
                }
            }
        }
        self.rec.child(SpanKind::Commit, || conn.commit())
    }

    /// One transaction: executed, retried on retryable aborts, and its
    /// acked writes noted in the shadow. Returns the number of executions.
    fn transact(
        &mut self,
        conn: &mut impl Conn,
        tables: &[TableId],
        spec: &TxnSpec,
        pending: &mut Vec<(usize, u64)>,
    ) -> (u32, Result<()>) {
        let mut executions = 0u32;
        let outcome = loop {
            executions += 1;
            match self.execute(conn, tables, spec, pending) {
                Ok(()) => break Ok(()),
                Err(e) => {
                    self.rec.child(SpanKind::Rollback, || conn.rollback());
                    if !e.is_retryable() || executions > MAX_RETRIES {
                        break Err(e);
                    }
                }
            }
        };
        match &outcome {
            Ok(()) => {
                for &(idx, s) in pending.iter() {
                    self.shadow[idx] = s;
                }
            }
            Err(_) => {
                for op in spec.ops() {
                    if !matches!(op.kind, OpKind::Get | OpKind::Scan) {
                        let idx = self.shadow_index(op);
                        self.shadow[idx] = UNKNOWN;
                    }
                }
            }
        }
        (executions, outcome)
    }

    /// Run transactions back to back until the window has closed.
    fn run(&mut self, conn: &mut impl Conn, tables: &[TableId], plan: &Plan) {
        let mut pending: Vec<(usize, u64)> = Vec::with_capacity(4);
        loop {
            let spec = self.gen.next_txn();
            let start = Instant::now();
            if start >= plan.window_end {
                return;
            }
            self.rec.on = plan.trace && plan.slice_of(start).is_some_and(|s| s % 2 == 1);
            let (executions, outcome) = self.transact(conn, tables, &spec, &mut pending);
            let end = Instant::now();
            self.rec.finish_txn(start, end);
            let Some(slice) = plan.slice_of(end) else {
                continue;
            };
            self.attempted += 1;
            self.executions += executions as u64;
            match outcome {
                Ok(()) => {
                    self.committed += 1;
                    if self.lat_ns.len() < self.lat_ns.capacity() {
                        let ns = end.duration_since(start).as_nanos();
                        self.lat_ns.push(ns.min(u32::MAX as u128) as u32);
                        self.slice_end[slice] = self.lat_ns.len();
                    } else {
                        self.samples_dropped += 1;
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    self.first_error.get_or_insert_with(|| e.to_string());
                }
            }
        }
    }
}

// ---- the window ---------------------------------------------------------------

/// Every meter read at a window boundary (traced runs only).
#[derive(Clone, Debug)]
pub struct Meters {
    pub stats: StatsSnapshot,
    pub fabric_bytes: u64,
    pub lbp_hits: u64,
    pub lbp_invalid_hits: u64,
    pub lbp_misses: u64,
    pub lbp_evictions: u64,
    pub proc: ProcSnapshot,
}

impl Meters {
    pub fn take(cluster: &Cluster) -> Meters {
        let f = cluster.shared().fabric.stats();
        let mut m = Meters {
            stats: cluster.stats(),
            fabric_bytes: f.bytes_read.get() + f.bytes_written.get(),
            lbp_hits: 0,
            lbp_invalid_hits: 0,
            lbp_misses: 0,
            lbp_evictions: 0,
            proc: ProcSnapshot::take(),
        };
        for n in 0..cluster.node_count() {
            let node = cluster.node(n);
            let l = node.lbp.stats();
            m.lbp_hits += l.hits.get();
            m.lbp_invalid_hits += l.invalid_hits.get();
            m.lbp_misses += l.misses.get();
            m.lbp_evictions += l.evictions.get();
        }
        m
    }
}

pub struct Window {
    pub clients: Vec<Client>,
    pub plan: Plan,
    /// Process CPU time (ns) at each slice boundary: `slices + 1` readings.
    pub cpu_ns: Vec<u64>,
    /// Host steal time (ms) at each slice boundary.
    pub steal_ms: Vec<u64>,
    /// The layers' meters at the window's two ends, when traced.
    pub meters: Option<(Meters, Meters)>,
    pub peak_rss_mb: f64,
}

/// Warm up, then measure: the clients run on their own threads from before
/// the warm-up to the end of the window; this thread wakes at the slice
/// boundaries to read the process's CPU time, and in a traced run reads the
/// layers' meters at the window's two ends.
pub fn run_window(
    def: &WorkloadDef,
    loaded: &Loaded,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Window {
    let cluster = &loaded.cluster;
    let tables = &loaded.tables;
    let plan = Plan::new(seconds, trace);
    let mut clients: Vec<Client> = (0..NODES)
        .map(|id| Client::new(id, def, seed, &plan))
        .collect();
    let mut cpu_ns = Vec::with_capacity(plan.slices + 1);
    let mut steal_ms = Vec::with_capacity(plan.slices + 1);
    // Met twice: once when every client has finished its last transaction,
    // and again when the monitor has taken its last reading. The clients
    // stay alive in between, because a thread's CPU time and context
    // switches leave the per-task accounting when it exits.
    let rendezvous = Barrier::new(NODES + 1);
    let meters = std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let rendezvous = &rendezvous;
            scope.spawn(move || {
                if def.async_clients {
                    let mut conn = AsyncConn {
                        session: cluster.async_session(client.id),
                    };
                    client.run(&mut conn, tables, &plan);
                    rendezvous.wait();
                    rendezvous.wait();
                    let _ = conn.session.close().wait();
                } else {
                    let mut conn = BlockingConn {
                        session: cluster.session(client.id),
                        txn: None,
                    };
                    client.run(&mut conn, tables, &plan);
                    rendezvous.wait();
                    rendezvous.wait();
                }
            });
        }
        let sleep_until =
            |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
        sleep_until(plan.window_start);
        let before = trace.then(|| {
            // The commit-stage histograms are cumulative and include the load.
            for n in 0..cluster.node_count() {
                let s = &cluster.node(n).stats;
                s.commit_cts_ns.reset();
                s.commit_wal_force_ns.reset();
                s.commit_tit_ns.reset();
                s.commit_backfill_ns.reset();
            }
            Meters::take(cluster)
        });
        cpu_ns.push(live_threads_cpu_ns());
        steal_ms.push(host_steal_ms());
        for s in 1..=plan.slices {
            sleep_until(plan.window_start + SLICE * s as u32);
            cpu_ns.push(live_threads_cpu_ns());
            steal_ms.push(host_steal_ms());
        }
        rendezvous.wait();
        let meters = before.map(|b| (b, Meters::take(cluster)));
        rendezvous.wait();
        meters
    });
    Window {
        clients,
        plan,
        cpu_ns,
        steal_ms,
        meters,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Of every 1 000 ms of CPU time the VM's processors have, the most the
/// hypervisor may give to other tenants in a slice that still counts as
/// quiet. Steal comes in 10 ms ticks and an idle host shows a tick every few
/// seconds; a second with 5 % stolen commits 10–40 % less (README.md).
pub const QUIET_STEAL_PER_MILLE: u64 = 10;
/// With fewer quiet slices than this the whole window is used.
pub const MIN_QUIET_SLICES: usize = 3;

/// The slices the timed end-to-end metrics are taken over: the quiet ones,
/// or all of them when the host was loud nearly throughout. Steal is the
/// hypervisor's doing, not the program's, so no change to the program can
/// hide a slow second behind this.
pub fn gated_slices(slices: &[SliceStat]) -> Vec<&SliceStat> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let quiet: Vec<&SliceStat> = slices
        .iter()
        .filter(|s| s.steal_ms <= QUIET_STEAL_PER_MILLE * cpus * SLICE.as_secs())
        .collect();
    if quiet.len() >= MIN_QUIET_SLICES {
        quiet
    } else {
        slices.iter().collect()
    }
}

/// What one slice of the window measured.
#[derive(Clone, Copy, Debug)]
pub struct SliceStat {
    /// CPU time the hypervisor gave to other tenants, summed over the VM's
    /// processors (0 where the host hides it).
    pub steal_ms: u64,
    pub commits: u64,
    pub tps: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub cpu_us_per_commit: f64,
}

impl Window {
    pub fn sum(&self, f: impl Fn(&Client) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    pub fn slice_stats(&self) -> Vec<SliceStat> {
        let mut begin = vec![0usize; self.clients.len()];
        (0..self.plan.slices)
            .map(|s| {
                let mut lat: Vec<u32> = Vec::new();
                for (c, from) in self.clients.iter().zip(begin.iter_mut()) {
                    // An empty slice leaves its end at 0: carry the cursor.
                    let to = c.slice_end[s].max(*from);
                    lat.extend_from_slice(&c.lat_ns[*from..to]);
                    *from = to;
                }
                lat.sort_unstable();
                let commits = lat.len() as u64;
                let cpu_us = (self.cpu_ns[s + 1] - self.cpu_ns[s]) as f64 / 1e3;
                SliceStat {
                    steal_ms: self.steal_ms[s + 1] - self.steal_ms[s],
                    commits,
                    tps: commits as f64 / SLICE.as_secs_f64(),
                    p50_us: percentile_sorted(&lat, 0.50) as f64 / 1e3,
                    p95_us: percentile_sorted(&lat, 0.95) as f64 / 1e3,
                    cpu_us_per_commit: ratio(cpu_us, commits as f64),
                }
            })
            .collect()
    }

    pub fn sorted_latencies(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .clients
            .iter()
            .flat_map(|c| c.lat_ns.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    pub fn trace(&self) -> Trace<'_> {
        Trace {
            recorders: self.clients.iter().map(|c| &c.rec).collect(),
        }
    }
}

// ---- output checks --------------------------------------------------------------

#[derive(Debug, Default)]
pub struct CheckReport {
    pub rows_checked: u64,
    /// Rows of the shared group whose stamp is not the last write the
    /// clients saw acked.
    pub shared_mismatched: u64,
    /// The same for the private groups, and for node 1's alone.
    pub private_mismatched: u64,
    pub node1_mismatched: u64,
    /// The first few mismatching rows, described.
    pub mismatches: Vec<String>,
    /// Tables that could not be read back in full.
    pub problems: Vec<String>,
}

/// Read every table back in full, each from a node that did not write it
/// (a private group from the other node, the shared group's tables from
/// alternating nodes), and hold it against the loaded cardinality and the
/// clients' acked writes.
pub fn verify_tables(def: &WorkloadDef, loaded: &Loaded, clients: &[Client]) -> CheckReport {
    let layout = def.layout;
    let mut report = CheckReport::default();
    for (t, &id) in loaded.tables.iter().enumerate() {
        let group = layout.group_of(t);
        let reader = if group < layout.nodes {
            (group + 1) % layout.nodes
        } else {
            t % layout.nodes
        };
        let session = loaded.cluster.session(reader);
        let mut expect = 0u64;
        loop {
            let rows = match session.scan(id, expect, 1024) {
                Ok(rows) => rows,
                Err(e) => {
                    report
                        .problems
                        .push(format!("table {t}: scan from node {reader} failed: {e}"));
                    break;
                }
            };
            if rows.is_empty() {
                break;
            }
            for (key, row) in rows {
                if key != expect || row.col(0) != key {
                    report
                        .problems
                        .push(format!("table {t}: expected key {expect}, found {key}"));
                    return report;
                }
                let idx = t * layout.rows_per_table as usize + key as usize;
                let seen = row.col(1);
                // A loaded row means nobody's write was acked; a client's row
                // must be that client's last acked write.
                let acked = match stamp_writer(seen) {
                    0 => clients
                        .iter()
                        .map(|c| c.shadow[idx])
                        .find(|&a| !matches!(a, 0 | UNKNOWN))
                        .unwrap_or(0),
                    w if w <= clients.len() => clients[w - 1].shadow[idx],
                    _ => UNKNOWN - 1,
                };
                if acked != seen && acked != UNKNOWN {
                    let whose = if group < layout.nodes {
                        report.private_mismatched += 1;
                        report.node1_mismatched += (group == 1) as u64;
                        format!("node {group}'s private")
                    } else {
                        report.shared_mismatched += 1;
                        "shared".to_owned()
                    };
                    if report.mismatches.len() < 8 {
                        // What each node's own point read says tells a write
                        // that is gone from one a reader did not see.
                        let by_node: Vec<String> = (0..layout.nodes)
                            .map(|n| match loaded.cluster.session(n).get(id, key) {
                                Ok(Some(r)) => format!("{:#x}", r.col(1)),
                                Ok(None) => "no row".to_owned(),
                                Err(e) => format!("error {e}"),
                            })
                            .collect();
                        report.mismatches.push(format!(
                            "{whose} table {t} key {key}: node {reader}'s scan returned stamp {seen:#x}, last acked write {acked:#x}, point reads by node {by_node:?}"
                        ));
                    }
                }
                report.rows_checked += 1;
                expect += 1;
            }
        }
        if expect != layout.rows_per_table {
            report.problems.push(format!(
                "table {t}: {expect} rows read back from node {reader}, {} loaded",
                layout.rows_per_table
            ));
        }
    }
    report
}

pub struct Recovery {
    pub wall_ms: f64,
    pub stats: RecoveryStats,
    /// Transactions of the crash tail that did not commit.
    pub tail_failed: u64,
}

/// Acked transactions node 1 has in its log, past its last checkpoint, when
/// it crashes. A fixed tail makes `recovery.ms` the time to recover a fixed
/// amount of work; crashing straight out of the window would replay however
/// much the window happened to commit since the flusher last found the node
/// idle (0.4 s of recovery per second of window on the builder's box).
pub const CRASH_TAIL_TXNS: usize = 500;

/// Checkpoint, let node 1's client commit `CRASH_TAIL_TXNS` more
/// transactions (unmeasured, latency injection off), crash node 1 and time
/// its recovery at the workload's latency profile. The client's shadow
/// covers the tail, so the verification that follows holds every acked
/// commit of node 1, tail included, against the recovered tables.
pub fn crash_and_recover(loaded: &Loaded, client: &mut Client) -> Result<Recovery> {
    let cluster = &loaded.cluster;
    pmp_rdma::set_latency_enabled(false);
    cluster.checkpoint_all();
    let mut conn = BlockingConn {
        session: cluster.session(client.id),
        txn: None,
    };
    client.rec.on = false;
    let mut pending = Vec::with_capacity(4);
    let mut tail_failed = 0;
    for _ in 0..CRASH_TAIL_TXNS {
        let spec = client.gen.next_txn();
        let (_, outcome) = client.transact(&mut conn, &loaded.tables, &spec, &mut pending);
        tail_failed += outcome.is_err() as u64;
    }
    drop(conn);
    pmp_rdma::set_latency_enabled(true);
    cluster.crash_node(client.id);
    let start = Instant::now();
    let stats = cluster.recover_node(client.id)?;
    Ok(Recovery {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        tail_failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loud_slices_are_left_out_unless_too_few_are_quiet() {
        let slice = |steal_ms, commits| SliceStat {
            steal_ms,
            commits,
            tps: commits as f64,
            p50_us: 0.0,
            p95_us: 0.0,
            cpu_us_per_commit: 0.0,
        };
        // 10 s of steal in one second is loud on any machine.
        let loud = 10_000;
        let window = [
            slice(0, 100),
            slice(loud, 40),
            slice(0, 0),
            slice(loud, 50),
            slice(0, 90),
        ];
        let commits = |v: Vec<&SliceStat>| v.iter().map(|s| s.commits).collect::<Vec<_>>();
        // A quiet second that committed nothing still counts: a stall of the
        // program's own making is not the host's.
        assert_eq!(commits(gated_slices(&window)), [100, 0, 90]);
        assert_eq!(commits(gated_slices(&window[..4])), [100, 40, 0, 50]);
    }

    #[test]
    fn stamps_name_their_writer() {
        assert_eq!(stamp_writer(0), 0);
        assert_eq!(stamp_writer(stamp(0, 1)), 1);
        assert_eq!(stamp_writer(stamp(1, u32::MAX as u64)), 2);
        assert!(stamp(1, 7) > stamp(0, u32::MAX as u64));
        let row = row_image(42, stamp(1, 7), 8);
        assert_eq!(
            (row.col(0), row.col(1), row.col(7)),
            (42, stamp(1, 7), 42 % 16)
        );
    }

    #[test]
    fn plan_maps_instants_to_slices() {
        let plan = Plan::new(4, true);
        assert_eq!(plan.slices, 4);
        assert_eq!(plan.slice_of(plan.epoch), None);
        assert_eq!(plan.slice_of(plan.window_start), Some(0));
        assert_eq!(
            plan.slice_of(plan.window_start + SLICE * 3 + SLICE / 2),
            Some(3)
        );
        assert_eq!(plan.slice_of(plan.window_end), None);
    }
}
