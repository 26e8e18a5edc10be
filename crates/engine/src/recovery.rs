//! Crash recovery, §4.4.
//!
//! Two scenarios, matching the paper's failure model:
//!
//! * **Single-node crash** ([`recover_node`]) — the rest of the cluster
//!   keeps running; the crashed node's fusion-side PLocks stay frozen and
//!   its old TIT region keeps answering "active" for in-doubt
//!   transactions. Recovery replays the node's own durable redo (its log
//!   records are the only ones that can be missing from the shared state),
//!   pulling current page versions from the DBP first and shared storage
//!   second — the paper's observation that a restarting node "could
//!   retrieve most of the necessary recovery data from the disaggregated
//!   shared memory" is exactly the `peek` fast path here. Uncommitted
//!   transactions are then rolled back through the undo store, waiters are
//!   woken, and only then are the frozen PLocks released.
//!
//! * **Full-cluster failure** ([`recover_cluster`]) — DBP and undo store
//!   contents are gone; every node's log stream must be merged. Logs from
//!   different nodes only carry a *partial* order (LLSN), so the merge uses
//!   the paper's chunked algorithm: read one chunk per stream, compute
//!   `LLSN_bound` (the smallest last-LLSN across non-exhausted streams —
//!   every remaining record is guaranteed to be larger), apply everything
//!   `≤ LLSN_bound` in LLSN order, repeat. Memory stays O(chunk), never
//!   O(log).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use pmp_common::{GlobalTrxId, Llsn, Lsn, NodeId, PageId, PmpError, Result};
use pmp_io::IoRing;
use pmp_pmfs::PLockMode;
use pmp_storage::{LogStream, ReadChunk};

use crate::node::NodeEngine;
use crate::page::{Page, PageKind};
use crate::redo::{LogDecoder, RedoOp, RedoRecord};
use crate::shared::Shared;
use crate::txn::apply_undo;
use crate::undo::{UndoPtr, UndoRecord};

/// What a recovery pass did (reported by benches and asserted in tests).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    pub records_scanned: u64,
    pub page_records_applied: u64,
    pub page_records_skipped: u64,
    pub pages_from_dbp: u64,
    pub pages_from_storage: u64,
    pub committed_seen: u64,
    pub rolled_back: u64,
}

/// Per-transaction outcome bookkeeping collected during a log scan — by
/// both recoveries here and by the standby's shipping loop.
///
/// A transaction is *seen* when the scan meets a change it performed. The
/// witness is its `UndoWrite`: every forward row op is logged behind one in
/// the same atomic group. The header a row record *carries* is no witness —
/// a rollback's compensating `UpdateRow` restores the previous, committed
/// writer's header, and with that writer's `Commit` below the scan start it
/// would read as seen-without-outcome and be rolled back a second time.
#[derive(Default)]
pub(crate) struct TrxOutcomes {
    pub(crate) committed: HashSet<GlobalTrxId>,
    pub(crate) rolled_back: HashSet<GlobalTrxId>,
    pub(crate) seen: HashSet<GlobalTrxId>,
    pub(crate) undo_of: HashMap<GlobalTrxId, Vec<UndoPtr>>,
}

impl TrxOutcomes {
    /// Note one scanned record; `keep_undo` stores a shipped undo record
    /// wherever the caller's region keeps them.
    pub(crate) fn note(&mut self, rec: &RedoRecord, keep_undo: impl FnOnce(UndoPtr, &UndoRecord)) {
        match &rec.op {
            RedoOp::Commit { trx, .. } => {
                self.committed.insert(*trx);
            }
            RedoOp::Rollback { trx } => {
                self.rolled_back.insert(*trx);
            }
            RedoOp::UndoWrite { ptr, record } => {
                keep_undo(*ptr, record);
                self.seen.insert(record.trx);
                self.undo_of.entry(record.trx).or_default().push(*ptr);
            }
            _ => {}
        }
    }

    /// Seen, neither committed nor rolled back: to be rolled back.
    pub(crate) fn in_doubt(&self) -> Vec<GlobalTrxId> {
        let mut v: Vec<GlobalTrxId> = self
            .seen
            .iter()
            .filter(|g| !self.committed.contains(g) && !self.rolled_back.contains(g))
            .copied()
            .collect();
        v.sort_by_key(|g| (g.node, g.trx));
        v
    }
}

// ---- single-node recovery -------------------------------------------------

/// Recover a crashed node and return its restarted engine. The caller must
/// have invoked [`NodeEngine::crash`] on the old engine (or be recovering
/// from a real process loss where that is implicit).
pub fn recover_node(
    shared: &Arc<Shared>,
    node: NodeId,
) -> Result<(Arc<NodeEngine>, RecoveryStats)> {
    let engine = NodeEngine::start_for_recovery(Arc::clone(shared), node);
    let mut stats = RecoveryStats::default();
    let mut outcomes = TrxOutcomes::default();

    // Redo phase: sequential scan of our own durable log (within one stream
    // the LLSN order equals the byte order — §4.4 invariant 1). It starts
    // at the node's last quiesced checkpoint — everything before it is
    // resolved and was pushed to the DBP — provided the DBP it was pushed
    // to is still the one we have; after a DBP loss only shared storage
    // vouches for anything, and that is the start of the stream.
    let stream = shared.storage.redo_stream(node);
    scan_stream(
        &engine.io,
        &stream,
        stream.scan_start(shared.pmfs.buffer.loss_epoch()),
        shared.config.engine.recovery_chunk_bytes,
        LogDecoder::new(shared.config.compression),
        |rec| {
            stats.records_scanned += 1;
            outcomes.note(&rec, |ptr, undo| shared.undo.restore(ptr, undo.clone()));
            if rec.is_page_op() {
                replay_record_online(&engine, &rec, &mut stats)?;
            }
            Ok(())
        },
    )?;

    // Undo phase: roll back in-doubt transactions (reverse per-trx order),
    // then wake anyone waiting on their row locks.
    for gid in outcomes.in_doubt() {
        let ptrs = outcomes.undo_of.get(&gid).cloned().unwrap_or_default();
        for ptr in ptrs.iter().rev() {
            // lint: allow(undo-reconstruction): rolling back in-doubt trxs rebuilds pre-crash images the version store never holds
            let Some(rec) = shared.undo.read(&shared.fabric, node, *ptr) else {
                continue;
            };
            let meta = shared.catalog.get(rec.table)?;
            apply_undo(&engine, gid, meta.root, &rec)?;
        }
        // Durable rollback marker so a repeated recovery skips this trx.
        engine.wal.log_atomic(|_| {
            vec![RedoRecord {
                llsn: Llsn::ZERO,
                page: PageId::NULL,
                table: pmp_common::TableId(0),
                op: RedoOp::Rollback { trx: gid },
            }]
        });
        shared.undo.purge(&ptrs);
        shared.pmfs.rlock.notify_finished(gid);
        stats.rolled_back += 1;
    }
    engine.wal.force(engine.wal.stream().end_lsn(), &mut None)?;

    // Push every page recovery touched to the DBP *before* the frozen
    // PLocks are released — peers must never observe pre-rollback state.
    for (page_id, frame) in engine.lbp.dirty_frames() {
        engine.flush_frame(page_id, &frame);
    }

    stats.committed_seen = outcomes.committed.len() as u64;
    engine.complete_recovery();
    Ok((engine, stats))
}

/// Apply one page record through the live engine (PLocks + LBP + DBP),
/// respecting the LLSN rule.
fn replay_record_online(
    engine: &Arc<NodeEngine>,
    rec: &RedoRecord,
    stats: &mut RecoveryStats,
) -> Result<()> {
    // Fast skip: if the DBP already holds this LLSN (or newer), the change
    // survived the crash in disaggregated memory (§5.5's fast restart).
    if let Some((_, llsn)) = engine.shared.pmfs.buffer.peek(rec.page) {
        if llsn >= rec.llsn {
            stats.page_records_skipped += 1;
            stats.pages_from_dbp += 1;
            return Ok(());
        }
    }
    let _guard = engine.plock(rec.page, PLockMode::X)?;
    let frame = match engine.frame(rec.page) {
        Ok(f) => f,
        Err(PmpError::Internal { .. }) => {
            // The page exists nowhere but this log (created right before
            // the crash). Only a full image can materialize it.
            if let RedoOp::PageImage(image) = &rec.op {
                let mut image = image.clone();
                image.llsn = rec.llsn;
                engine.install_new_page(image);
                stats.page_records_applied += 1;
                stats.pages_from_storage += 1;
                return Ok(());
            }
            return Err(PmpError::internal(format!(
                "redo for unknown page {} that is not a full image",
                rec.page
            )));
        }
        Err(e) => return Err(e),
    };
    let mut page = frame.page.write();
    if rec.apply_to(&mut page) {
        stats.page_records_applied += 1;
        let durable = engine.wal.stream().durable_lsn();
        drop(page);
        frame.mark_dirty(durable, rec.llsn);
    } else {
        stats.page_records_skipped += 1;
        drop(page);
    }
    Ok(())
}

/// Decode a whole stream chunk-by-chunk, carrying partial records across
/// chunk boundaries. Reads are pipelined through the io ring: the next
/// chunk's storage latency elapses on a ring worker while the current chunk
/// decodes and replays, so the scan is bounded by max(read, replay) per
/// chunk rather than their sum.
fn scan_stream(
    io: &IoRing<Page>,
    stream: &Arc<LogStream>,
    from: Lsn,
    chunk_bytes: usize,
    dec: LogDecoder,
    mut f: impl FnMut(RedoRecord) -> Result<()>,
) -> Result<()> {
    let mut carry: Vec<u8> = Vec::new();
    let mut inflight = io.log_read(stream, from, chunk_bytes)?;
    loop {
        let chunk = inflight.wait()?;
        if chunk.is_empty() && carry.is_empty() {
            return Ok(());
        }
        if chunk.is_empty() {
            if dec.framed() {
                // A torn frame at the durable tail: storage lost bytes out
                // from under the watermark (injected tail truncation). The
                // frame's length prefix proves it incomplete, its commits
                // were never acked (`force` covers the whole reservation),
                // so the clean cut is to stop here.
                return Ok(());
            }
            // Uncompressed streams can't tear: the watermark never advances
            // into an unfilled reservation.
            return Err(PmpError::internal("torn record at durable log tail"));
        }
        // Overlap: submit the follow-up read before decoding this chunk.
        inflight = io.log_read(stream, chunk.end, chunk_bytes)?;
        carry.extend_from_slice(&chunk.data);
        dec.drain(&mut carry, &mut f)?;
    }
}

// ---- full-cluster recovery --------------------------------------------------

/// One node's log stream being merged.
pub(crate) struct StreamCursor {
    pub(crate) node: NodeId,
    pub(crate) stream: Arc<LogStream>,
    pub(crate) pos: Lsn,
    pub(crate) carry: Vec<u8>,
    /// Decoded page records waiting for the LLSN bound.
    pub(crate) pending: VecDeque<RedoRecord>,
    pub(crate) exhausted: bool,
    /// Stream byte format: raw records or compressed frames.
    pub(crate) dec: LogDecoder,
}

impl StreamCursor {
    /// A cursor reading `stream` from `from` on (its start, for a scan
    /// that relies on nothing but shared storage).
    pub(crate) fn new(node: NodeId, stream: Arc<LogStream>, from: Lsn, dec: LogDecoder) -> Self {
        StreamCursor {
            node,
            stream,
            pos: from,
            carry: Vec::new(),
            pending: VecDeque::new(),
            exhausted: false,
            dec,
        }
    }
    /// Does this cursor need another chunk before it can contribute to the
    /// merge?
    pub(crate) fn wants_refill(&self) -> bool {
        !self.exhausted && self.pending.is_empty()
    }

    /// Ingest one chunk read on this cursor's behalf. Non-page records are
    /// handed to `note` immediately (their bookkeeping is order-free); an
    /// empty chunk marks the stream exhausted (or its tail torn).
    pub(crate) fn ingest(
        &mut self,
        chunk: ReadChunk,
        mut note: impl FnMut(&RedoRecord),
    ) -> Result<()> {
        if chunk.is_empty() {
            if !self.carry.is_empty() {
                if self.dec.framed() {
                    // Torn frame at the durable tail (injected storage-side
                    // truncation): its commits were never acked, skip it
                    // cleanly. See `scan_stream`.
                    self.carry.clear();
                    self.exhausted = true;
                    return Ok(());
                }
                return Err(PmpError::internal(format!(
                    "torn record at tail of {} log",
                    self.node
                )));
            }
            self.exhausted = true;
            return Ok(());
        }
        self.pos = chunk.end;
        self.carry.extend_from_slice(&chunk.data);
        let dec = self.dec;
        let pending = &mut self.pending;
        dec.drain(&mut self.carry, &mut |rec| {
            note(&rec);
            if rec.is_page_op() {
                pending.push_back(rec);
            }
            Ok(())
        })
    }

    /// Synchronous refill (the standby shipping loop, which reads the
    /// shipped log inline as its own work): read chunks until this cursor
    /// has page records or the stream is (currently) dry. Uses the gather
    /// read — compressed frames leave dead tails the plain chunk read
    /// would stop at, one frame per charged round-trip.
    pub(crate) fn refill(
        &mut self,
        chunk_bytes: usize,
        mut note: impl FnMut(&RedoRecord),
    ) -> Result<()> {
        while self.wants_refill() {
            let chunk = self.stream.read_gather(self.pos, chunk_bytes)?;
            self.ingest(chunk, &mut note)?;
        }
        Ok(())
    }

    /// Largest LLSN currently buffered (the stream's contribution to the
    /// bound). Streams are LLSN-monotone, so everything still on disk is
    /// strictly larger than this.
    pub(crate) fn bound_contribution(&self) -> Option<Llsn> {
        if self.exhausted {
            None // contributes +∞
        } else {
            self.pending.back().map(|r| r.llsn)
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.exhausted && self.pending.is_empty()
    }
}

/// One cursor per node, each at the start of its stream: below it shared
/// storage holds every change, which is all a scan that has lost the DBP
/// can rely on.
fn cursors_at_start(shared: &Shared, nodes: &[NodeId], dec: LogDecoder) -> Vec<StreamCursor> {
    nodes
        .iter()
        .map(|&node| {
            let stream = shared.storage.redo_stream(node);
            let from = stream.start_lsn();
            StreamCursor::new(node, stream, from, dec)
        })
        .collect()
}

/// Refill every starved cursor, submitting all the log reads of a round to
/// the io ring *before* waiting on any of them: the merge's per-round read
/// cost is one batched storage latency, not one per stream.
fn refill_all(
    io: &IoRing<Page>,
    cursors: &mut [StreamCursor],
    chunk_bytes: usize,
    mut note: impl FnMut(&RedoRecord),
) -> Result<()> {
    while cursors.iter().any(StreamCursor::wants_refill) {
        let mut waits = Vec::new();
        for (i, c) in cursors.iter().enumerate() {
            if c.wants_refill() {
                waits.push((i, io.log_read(&c.stream, c.pos, chunk_bytes)?));
            }
        }
        for (i, completion) in waits {
            let chunk = completion.wait()?;
            cursors[i].ingest(chunk, &mut note)?;
        }
    }
    Ok(())
}

/// Offline page cache used by full-cluster recovery. Cold reads go
/// through the io ring like every other storage read.
struct RecoveryPages<'a> {
    io: &'a IoRing<Page>,
    pages: HashMap<PageId, Page>,
    stats: RecoveryStats,
}

impl RecoveryPages<'_> {
    fn page(&mut self, id: PageId) -> Option<&mut Page> {
        if !self.pages.contains_key(&id) {
            let loaded = self.io.read_page(id).ok()??;
            self.stats.pages_from_storage += 1;
            self.pages.insert(id, (*loaded).clone());
        }
        self.pages.get_mut(&id)
    }

    fn apply(&mut self, rec: &RedoRecord) -> Result<()> {
        match self.page(rec.page) {
            Some(page) => {
                if rec.apply_to(page) {
                    self.stats.page_records_applied += 1;
                } else {
                    self.stats.page_records_skipped += 1;
                }
                Ok(())
            }
            None => {
                // Page exists only in the log: materialize from the image.
                if let RedoOp::PageImage(image) = &rec.op {
                    let mut image = image.clone();
                    image.llsn = rec.llsn;
                    self.pages.insert(rec.page, image);
                    self.stats.page_records_applied += 1;
                    Ok(())
                } else {
                    Err(PmpError::internal(format!(
                        "redo for unknown page {} that is not a full image",
                        rec.page
                    )))
                }
            }
        }
    }
}

/// Recover after a whole-cluster failure: the DBP and undo store have been
/// lost (call `shared.pmfs.buffer.clear()` / `shared.undo.clear()` to
/// simulate), all PLocks are released, and the merged redo of every node —
/// each stream from its start, below which shared storage holds every
/// change — is replayed with the chunked `LLSN_bound` algorithm. Durable pages are
/// written back to shared storage; the caller then starts fresh engines.
pub fn recover_cluster(shared: &Arc<Shared>, nodes: &[NodeId]) -> Result<RecoveryStats> {
    let chunk_bytes = shared.config.engine.recovery_chunk_bytes;
    // Transient ring: no engines are alive during full-cluster recovery.
    let io: IoRing<Page> = IoRing::new(Arc::clone(&shared.storage), shared.config.engine.io);
    let mut outcomes = TrxOutcomes::default();
    let dec = LogDecoder::new(shared.config.compression);
    let mut cursors = cursors_at_start(shared, nodes, dec);

    let mut cache = RecoveryPages {
        io: &io,
        pages: HashMap::new(),
        stats: RecoveryStats::default(),
    };

    loop {
        refill_all(&io, &mut cursors, chunk_bytes, |rec| {
            cache.stats.records_scanned += 1;
            outcomes.note(rec, |ptr, undo| shared.undo.restore(ptr, undo.clone()));
        })?;
        if cursors.iter().all(|c| c.done()) {
            break;
        }
        // LLSN_bound: everything still on disk in any stream is strictly
        // larger, so records ≤ bound can be globally ordered now.
        let bound = cursors
            .iter()
            .filter_map(|c| c.bound_contribution())
            .min()
            .unwrap_or(Llsn(u64::MAX));

        let mut batch: Vec<RedoRecord> = Vec::new();
        for c in cursors.iter_mut() {
            while let Some(front) = c.pending.front() {
                if front.llsn <= bound {
                    batch.push(c.pending.pop_front().expect("front exists"));
                } else {
                    break;
                }
            }
        }
        if batch.is_empty() {
            // Defensive: every stream's head exceeds the bound — can only
            // happen if a stream violated monotonicity.
            return Err(PmpError::internal("LLSN bound made no progress"));
        }
        batch.sort_by_key(|r| r.llsn);
        for rec in &batch {
            cache.apply(rec)?;
        }
    }

    // Roll back in-doubt transactions directly on the offline page cache.
    for gid in outcomes.in_doubt() {
        let ptrs = outcomes.undo_of.get(&gid).cloned().unwrap_or_default();
        for ptr in ptrs.iter().rev() {
            // lint: allow(undo-reconstruction): offline undo runs against the page cache before any engine (or its store) exists
            let Some(rec) = shared.undo.read(&shared.fabric, gid.node, *ptr) else {
                continue;
            };
            let meta = shared.catalog.get(rec.table)?;
            offline_undo(&mut cache, meta.root, gid, &rec)?;
        }
        shared.undo.purge(&ptrs);
        cache.stats.rolled_back += 1;
    }
    cache.stats.committed_seen = outcomes.committed.len() as u64;

    // Persist the recovered pages; engines reload them from storage.
    let pages = std::mem::take(&mut cache.pages);
    for (id, page) in pages {
        shared.storage.write_page(id, Arc::new(page))?;
    }
    Ok(cache.stats)
}

/// Rebuild shared storage after a **DBP failure** (§4.2: pages lost with
/// the disaggregated memory "can be recovered from logs"). Unlike
/// [`recover_cluster`], the nodes are still alive: no transaction is rolled
/// back — in-flight transactions keep their locks and their LBP copies
/// remain authoritative (see `NodeEngine::refresh_frame`). This pass merges
/// every node's durable redo with the LLSN_bound algorithm and writes the
/// resulting page versions to shared storage, so that cold reads that would
/// have hit the DBP find fresh pages instead of a stale checkpoint.
///
/// Call with the cluster quiesced (no in-flight log appends racing the
/// scan); the write-back skips any page whose stored LLSN is already newer.
pub fn recover_dbp(shared: &Arc<Shared>, nodes: &[NodeId]) -> Result<RecoveryStats> {
    let chunk_bytes = shared.config.engine.recovery_chunk_bytes;
    let io: IoRing<Page> = IoRing::new(Arc::clone(&shared.storage), shared.config.engine.io);
    let dec = LogDecoder::new(shared.config.compression);
    let mut cursors = cursors_at_start(shared, nodes, dec);
    let mut cache = RecoveryPages {
        io: &io,
        pages: HashMap::new(),
        stats: RecoveryStats::default(),
    };
    loop {
        refill_all(&io, &mut cursors, chunk_bytes, |_| {
            cache.stats.records_scanned += 1;
        })?;
        if cursors.iter().all(|c| c.done()) {
            break;
        }
        let bound = cursors
            .iter()
            .filter_map(|c| c.bound_contribution())
            .min()
            .unwrap_or(Llsn(u64::MAX));
        let mut batch: Vec<RedoRecord> = Vec::new();
        for c in cursors.iter_mut() {
            while let Some(front) = c.pending.front() {
                if front.llsn <= bound {
                    batch.push(c.pending.pop_front().expect("front exists"));
                } else {
                    break;
                }
            }
        }
        if batch.is_empty() {
            return Err(PmpError::internal("LLSN bound made no progress"));
        }
        batch.sort_by_key(|r| r.llsn);
        for rec in &batch {
            cache.apply(rec)?;
        }
    }
    let pages = std::mem::take(&mut cache.pages);
    for (id, page) in pages {
        let keep = io
            .read_page(id)?
            .map(|stored| stored.llsn >= page.llsn)
            .unwrap_or(false);
        if !keep {
            shared.storage.write_page(id, Arc::new(page))?;
        }
    }
    Ok(cache.stats)
}

/// Offline rollback of one undo record against the recovery page cache,
/// descending the B-link tree by fence/child rules.
fn offline_undo(
    cache: &mut RecoveryPages<'_>,
    root: PageId,
    gid: GlobalTrxId,
    rec: &crate::undo::UndoRecord,
) -> Result<()> {
    // Descend to the leaf covering the key.
    let mut current = root;
    let leaf_id = loop {
        let page = cache
            .page(current)
            .ok_or_else(|| PmpError::internal(format!("missing page {current} in recovery")))?;
        if !page.covers(rec.key) {
            current = page.next;
            continue;
        }
        match &page.kind {
            PageKind::Internal(node) => current = node.child_for(rec.key),
            PageKind::Leaf(_) => break current,
        }
    };
    let page = cache.page(leaf_id).expect("leaf just resolved");
    let leaf = page.as_leaf_mut();
    if let Ok(i) = leaf.search(rec.key) {
        if leaf.rows[i].header.trx == gid {
            match &rec.prev {
                Some((header, value)) => {
                    leaf.rows[i].header = *header;
                    leaf.rows[i].value = value.clone();
                }
                None => {
                    leaf.rows.remove(i);
                }
            }
        }
    }
    Ok(())
}
