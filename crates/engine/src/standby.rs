//! The cross-region standby cluster, §3.
//!
//! "PolarDB-MP also incorporates a standby node to ensure high availability
//! across regions. Changes occurring in the primary cluster are
//! synchronized to the standby cluster using the write-ahead log."
//!
//! The standby attaches to a *running* cluster: it takes a base backup of
//! the source region's page store and from then on continuously consumes
//! every primary node's redo stream (log shipping) from where that stream
//! begins — below a stream's start shared storage already holds every
//! change — merging the streams with the same chunked `LLSN_bound`
//! algorithm recovery uses, and maintains its own region-local page set.
//! A [`LogHold`] per stream keeps storage checkpoints from freeing redo the
//! standby has not consumed yet.
//! It serves **committed-only reads** (a standby has no access to the
//! primary region's TIT, so visibility is decided by commit records seen in
//! the shipped log), and it can be **promoted**: in-doubt transactions are
//! rolled back from the shipped undo records and the page set is written
//! into a fresh region's shared storage, from which new primaries boot.

use std::collections::HashMap;
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedMutex};
use pmp_common::{ClusterConfig, GlobalTrxId, Llsn, Lsn, NodeId, PageId, PmpError, Result};
use pmp_storage::LogHold;

/// The standby's whole apply state is one mutex by design: `catch_up` is a
/// single-consumer shipping loop, and the log reads it performs *are* its
/// work, not incidental I/O under a hot lock. The mutex exists only so
/// `stats()`/`read()`/`promote()` see consistent snapshots between rounds.
const STANDBY_STATE: LockClass = LockClass::charge_exempt(
    "engine.standby.state",
    "single-consumer apply loop reads shipped log chunks as its own critical work; the lock only fences stats/read/promote snapshots between rounds",
);

use crate::page::{Page, PageKind};
use crate::recovery::{StreamCursor, TrxOutcomes};
use crate::redo::{LogDecoder, RedoOp, RedoRecord};
use crate::row::{IndexKey, RowValue};
use crate::shared::{Shared, TableMeta};
use crate::undo::{UndoPtr, UndoRecord};

/// Standby replication progress.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StandbyStats {
    pub records_applied: u64,
    pub commits_seen: u64,
    pub apply_rounds: u64,
    /// Highest commit timestamp shipped so far (the promotion TSO floor).
    pub max_cts: u64,
}

struct StandbyState {
    /// The region-local page set. Seeded with the source store's own
    /// `Arc`s; a page is copied when the first shipped record changes it.
    pages: HashMap<PageId, Arc<Page>>,
    /// One per shipped stream.
    cursors: Vec<Shipped>,
    outcomes: TrxOutcomes,
    /// Shipped undo records (the standby has no access to the source
    /// region's undo store).
    undo: HashMap<UndoPtr, UndoRecord>,
    stats: StandbyStats,
}

/// One shipped stream: where the standby reads it, the hold that keeps a
/// storage checkpoint from freeing what it has not read, and how far the
/// stream was durable when the base backup had been taken.
struct Shipped {
    cursor: StreamCursor,
    hold: LogHold,
    /// Any transaction with a row in a base-backup image logged that
    /// change below this position (WAL rule: the log is durable before the
    /// page is). Once the cursor is past it, a writer the standby has still
    /// not seen has no record in the retained log at all: it finished
    /// before the storage checkpoint the standby attached behind.
    backup_horizon: Lsn,
}

/// A standby region attached to a primary cluster's log streams.
pub struct Standby {
    source: Arc<Shared>,
    chunk_bytes: usize,
    state: TrackedMutex<StandbyState>,
}

impl std::fmt::Debug for Standby {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Standby").finish_non_exhaustive()
    }
}

impl Standby {
    /// Attach a standby to the running primary cluster, shipping the logs
    /// of `nodes`. (In production the shipping crosses regions; here the
    /// standby reads the same durable streams the primaries write.)
    ///
    /// Order matters: first a hold pins each stream at its start, then the
    /// page store is copied. Every image copied is then at least as new as
    /// the storage checkpoint that put the start where the hold found it,
    /// so replaying from the hold on (LLSN rule) converges on the primary's
    /// pages.
    pub fn attach(source: &Arc<Shared>, nodes: &[NodeId]) -> Self {
        // The standby decodes whatever byte format the primaries ship.
        let dec = LogDecoder::new(source.config.compression);
        let held: Vec<_> = nodes
            .iter()
            .map(|&node| {
                let stream = source.storage.redo_stream(node);
                let hold = stream.hold();
                (node, stream, hold)
            })
            .collect();
        let pages = source
            .storage
            .page_store()
            .all_pages()
            .into_iter()
            .collect();
        let cursors = held
            .into_iter()
            .map(|(node, stream, hold)| Shipped {
                backup_horizon: stream.durable_lsn(),
                cursor: StreamCursor::new(node, stream, hold.lsn(), dec),
                hold,
            })
            .collect();
        Standby {
            source: Arc::clone(source),
            chunk_bytes: source.config.engine.recovery_chunk_bytes,
            state: TrackedMutex::new(
                STANDBY_STATE,
                StandbyState {
                    pages,
                    cursors,
                    outcomes: TrxOutcomes::default(),
                    undo: HashMap::new(),
                    stats: StandbyStats::default(),
                },
            ),
        }
    }

    /// Consume whatever durable log is available and apply it. Returns the
    /// number of records applied this round. Call periodically (a
    /// production standby would be driven by the shipping pipeline).
    pub fn catch_up(&self) -> Result<u64> {
        let mut st = self.state.lock();
        st.stats.apply_rounds += 1;
        let before = st.stats.records_applied;
        loop {
            // Refill cursors; note non-page records immediately.
            let st = &mut *st;
            for Shipped {
                cursor: c, hold, ..
            } in st.cursors.iter_mut()
            {
                // A live stream is never "exhausted" — clear the flag so the
                // next round re-polls from the current position.
                c.exhausted = false;
                let (outcomes, undo, stats) = (&mut st.outcomes, &mut st.undo, &mut st.stats);
                c.refill(self.chunk_bytes, |rec| {
                    stats.records_applied += 1;
                    if let RedoOp::Commit { cts, .. } = &rec.op {
                        stats.commits_seen += 1;
                        stats.max_cts = stats.max_cts.max(cts.0);
                    }
                    outcomes.note(rec, |ptr, record| {
                        undo.insert(ptr, record.clone());
                    });
                })?;
                // What was read is in the cursor now; the stream may let
                // go of it.
                hold.advance(c.pos);
            }
            if st.cursors.iter().all(|s| s.cursor.pending.is_empty()) {
                break;
            }
            // LLSN_bound over the live streams: a stream with buffered
            // records bounds at its last buffered LLSN (more may arrive),
            // so we only apply what is safely ordered.
            let bound = st
                .cursors
                .iter()
                .filter_map(|s| s.cursor.pending.back().map(|r| r.llsn))
                .min()
                .unwrap_or(Llsn(u64::MAX));
            let mut batch: Vec<RedoRecord> = Vec::new();
            for Shipped { cursor: c, .. } in st.cursors.iter_mut() {
                while let Some(front) = c.pending.front() {
                    if front.llsn <= bound {
                        batch.push(c.pending.pop_front().expect("front exists"));
                    } else {
                        break;
                    }
                }
            }
            if batch.is_empty() {
                break; // heads all exceed the bound; wait for more log
            }
            batch.sort_by_key(|r| r.llsn);
            for rec in &batch {
                self.apply_page_record(&mut st.pages, rec)?;
            }
        }
        Ok(st.stats.records_applied - before)
    }

    fn apply_page_record(
        &self,
        pages: &mut HashMap<PageId, Arc<Page>>,
        rec: &RedoRecord,
    ) -> Result<()> {
        if !pages.contains_key(&rec.page) {
            if let RedoOp::PageImage(image) = &rec.op {
                let mut image = image.clone();
                image.llsn = rec.llsn;
                pages.insert(rec.page, Arc::new(image));
                return Ok(());
            }
            // Neither in the base backup nor created by a logged image (a
            // table root made after the attach is written straight to
            // storage): fetch it from the source region's storage — the
            // basebackup-on-demand every physical standby performs.
            let base = self
                .source
                .storage
                .page_store()
                .read(rec.page)? // lint: allow(direct-page-read): cross-region basebackup fetch outside any node's io ring
                .ok_or_else(|| {
                    PmpError::internal(format!("standby missing base image for {}", rec.page))
                })?;
            pages.insert(rec.page, base);
        }
        let page = pages.get_mut(&rec.page).expect("just ensured");
        // Checked here so a skipped record does not copy a shared page.
        if rec.llsn > page.llsn {
            rec.apply_to(Arc::make_mut(page));
        }
        Ok(())
    }

    pub fn stats(&self) -> StandbyStats {
        self.state.lock().stats.clone()
    }

    /// Committed-only read of `key` in `table` at the standby's current
    /// replication point. Uncommitted (not-yet-commit-record-shipped) row
    /// versions are skipped via the shipped undo records.
    pub fn read(&self, table: &TableMeta, key: u64) -> Result<Option<RowValue>> {
        let st = self.state.lock();
        let key = key as IndexKey;
        // Descend the B-link structure in the standby page set.
        let mut current = table.root;
        let leaf = loop {
            let Some(page) = st.pages.get(&current) else {
                // Nothing replicated for this subtree yet.
                return Ok(None);
            };
            if !page.covers(key) {
                current = page.next;
                continue;
            }
            match &page.kind {
                PageKind::Internal(node) => current = node.child_for(key),
                PageKind::Leaf(_) => break page,
            }
        };
        let Some(row) = leaf.as_leaf().get(key) else {
            return Ok(None);
        };
        // Walk versions until one whose transaction's commit record has
        // been shipped (bootstrap rows have no transaction).
        let mut header = row.header;
        let mut value = row.value.clone();
        loop {
            // A writer the shipped log has not shown committed before the
            // base backup if its row carries a backfilled CTS — or, the
            // backfill being best-effort, if the cursor of its node's
            // stream is past the backup horizon and has still not met it.
            let outcomes = &st.outcomes;
            let past_horizon = |node: NodeId| {
                st.cursors
                    .iter()
                    .any(|s| s.cursor.node == node && s.cursor.pos >= s.backup_horizon)
            };
            let committed = header.trx.is_none()
                || outcomes.committed.contains(&header.trx)
                || (!outcomes.seen.contains(&header.trx)
                    && (!header.cts.is_init() || past_horizon(header.trx.node)));
            if committed && !outcomes.rolled_back.contains(&header.trx) {
                return Ok((!header.deleted).then_some(value));
            }
            let Some(rec) = st.undo.get(&header.undo) else {
                return Ok(None);
            };
            let Some((h, v)) = &rec.prev else {
                return Ok(None);
            };
            header = *h;
            value = v.clone();
        }
    }

    /// Promote the standby into a fresh region: roll back in-doubt
    /// transactions from the shipped undo, materialize the page set into a
    /// new `Shared` (new storage, new PMFS), copy the catalog, and return
    /// it ready for `NodeEngine::start`. The source cluster is untouched.
    pub fn promote(&self, config: ClusterConfig) -> Result<Arc<Shared>> {
        let mut st = self.state.lock();
        // Roll back in-doubt transactions directly on the page set.
        let st = &mut *st;
        for gid in st.outcomes.in_doubt() {
            let ptrs = st.outcomes.undo_of.get(&gid).cloned().unwrap_or_default();
            for ptr in ptrs.iter().rev() {
                let Some(rec) = st.undo.get(ptr).cloned() else {
                    continue;
                };
                let meta = self.source.catalog.get(rec.table)?;
                Self::offline_undo(&mut st.pages, meta.root, gid, &rec)?;
            }
        }

        let fresh = Shared::new(config);
        // The new region's clock must never reissue a shipped timestamp:
        // every replicated row's CTS has to stay visible to new snapshots.
        fresh
            .pmfs
            .txn
            .tso()
            .advance_to(&fresh.repl, pmp_common::Cts(st.stats.max_cts));
        for (id, page) in &st.pages {
            fresh.storage.write_page(*id, Arc::clone(page))?;
        }
        // Copy catalog metadata (same table ids and root page ids).
        for meta in self.source.catalog.all() {
            fresh.catalog.register((*meta).clone());
            fresh.catalog.bump_next_id(meta.id);
        }
        // Keep the new region's page allocator clear of replicated ids.
        let max_page = st.pages.keys().map(|p| p.0).max().unwrap_or(0);
        fresh.storage.page_store().reserve_page_ids(max_page + 1);
        Ok(fresh)
    }

    fn offline_undo(
        pages: &mut HashMap<PageId, Arc<Page>>,
        root: PageId,
        gid: GlobalTrxId,
        rec: &UndoRecord,
    ) -> Result<()> {
        let mut current = root;
        let leaf_id = loop {
            let Some(page) = pages.get(&current) else {
                return Ok(()); // never replicated ⇒ nothing to undo
            };
            if !page.covers(rec.key) {
                current = page.next;
                continue;
            }
            match &page.kind {
                PageKind::Internal(node) => current = node.child_for(rec.key),
                PageKind::Leaf(_) => break current,
            }
        };
        let page = Arc::make_mut(pages.get_mut(&leaf_id).expect("leaf just resolved"));
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
}
