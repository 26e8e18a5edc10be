//! Transactions: read views, MVCC visibility (Algorithm 1), the embedded
//! row-lock protocol (§4.3.2), commit with CTS backfill, and rollback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmp_common::{
    Cts, GlobalTrxId, Lsn, PageId, PmpError, Result, TableId, CSN_INIT, CSN_MAX, CSN_MIN,
};
use pmp_pmfs::{WaitCell, WaitOutcome};
use pmp_rdma::Locality;

use crate::btree::{self, ModifyVerdict, WriteResult};
use crate::node::{NodeEngine, LEAF_CAPACITY};
use crate::page::Page;
use crate::redo::{RedoOp, RedoRecord};
use crate::row::{index_key, IndexKey, Row, RowHeader, RowValue};
use crate::scheduler::{self, Waiter};
use crate::shared::{TableKind, TableMeta};
use crate::tso_client::LeaseTicket;
use crate::undo::{UndoPtr, UndoRecord};
use crate::version_store::{PrevLink, Resolved, StoredVersion};

/// Transaction lifecycle state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    Active,
    Committed,
    RolledBack,
}

/// A write performed by this transaction (for commit-time CTS backfill).
#[derive(Clone, Copy, Debug)]
struct WriteRef {
    table: TableId,
    key: IndexKey,
}

/// A transaction running on one node. Dropping an active transaction rolls
/// it back.
pub struct Txn {
    engine: Arc<NodeEngine>,
    pub gid: GlobalTrxId,
    /// Current statement snapshot; shared with the engine's active table so
    /// the min-view thread sees statement-level refreshes (§4.1).
    snapshot: Arc<AtomicU64>,
    status: TxnStatus,
    writes: Vec<WriteRef>,
    undo_head: UndoPtr,
    undo_all: Vec<UndoPtr>,
    /// Stream crash epoch at begin; commit refuses to acknowledge if it
    /// changed, because a crash in between truncated this transaction's
    /// redo even when the commit record itself landed durably after.
    log_epoch: u64,
    /// Set by the session actor before re-running a statement that parked
    /// (`WouldBlock`): the re-run keeps its snapshot and statement charge.
    retry_resume: bool,
    /// Row writes already applied by the current statement, so a re-run
    /// after a park replays their results instead of re-applying them
    /// (a parked GSI write must not re-insert the primary row).
    stmt_results: Vec<Option<RowValue>>,
    /// How many of `stmt_results` the current (re-)run has consumed.
    stmt_replay: usize,
    /// Where an in-flight commit is, so a re-run resumes mid-pipeline.
    commit_stage: CommitStage,
    /// The row-lock wait this transaction is registered for, so a re-run
    /// resumes it instead of registering (FAA + RPC) again.
    row_wait: Option<RowWait>,
}

/// Commit pipeline position (crossed only forward; a suspended commit
/// resumes here). The two stages that can wait carry their entry time, so
/// the stage histograms see the whole stage whoever ran it, parked time
/// included.
#[derive(Clone, Copy, Debug)]
enum CommitStage {
    /// Commit not begun.
    Start,
    /// Allocating the CTS; `ticket` is this commit's place in the lease
    /// order ([`TsoClient::commit_cts`](crate::tso_client::TsoClient::commit_cts)).
    Cts {
        since: Instant,
        ticket: Option<LeaseTicket>,
    },
    /// CTS allocated; the commit record still has to be logged.
    Log(Cts),
    /// Commit record logged; waiting for it to become durable.
    /// `registration` is this commit's entry among the group-commit
    /// followers ([`Wal::force`](crate::wal::Wal::force)).
    Force {
        cts: Cts,
        end: Lsn,
        since: Instant,
        registration: Option<u64>,
    },
}

/// A registered row-lock wait (Figure 6): who holds the row, the cell Lock
/// Fusion signals, and when the wait gives up.
struct RowWait {
    holder: GlobalTrxId,
    cell: Arc<WaitCell<WaitOutcome>>,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("gid", &self.gid)
            .field("status", &self.status)
            .field("writes", &self.writes.len())
            .finish()
    }
}

/// Row lock-word states (§4.3.2).
enum LockState {
    /// Unlocked, or the named transaction has finished.
    Free,
    /// Locked by this very transaction.
    Mine,
    /// Locked by an active peer transaction.
    Locked(GlobalTrxId),
}

impl Txn {
    pub(crate) fn new(engine: Arc<NodeEngine>, gid: GlobalTrxId, snapshot: Arc<AtomicU64>) -> Self {
        let log_epoch = engine.wal.stream().epoch();
        Txn {
            engine,
            gid,
            snapshot,
            status: TxnStatus::Active,
            writes: Vec::new(),
            undo_head: UndoPtr::NULL,
            undo_all: Vec::new(),
            log_epoch,
            retry_resume: false,
            stmt_results: Vec::new(),
            stmt_replay: 0,
            commit_stage: CommitStage::Start,
            row_wait: None,
        }
    }

    /// Mark the next statement run as the resumption of a parked one: it
    /// keeps the current snapshot (and statement charge) and replays row
    /// writes the interrupted run already applied.
    pub(crate) fn set_retry_resume(&mut self) {
        self.retry_resume = true;
    }

    pub fn status(&self) -> TxnStatus {
        self.status
    }

    pub fn snapshot_cts(&self) -> Cts {
        Cts(self.snapshot.load(Ordering::Acquire))
    }

    fn ensure_active(&self) -> Result<()> {
        self.engine.check_alive()?;
        if self.status == TxnStatus::Active {
            Ok(())
        } else {
            Err(PmpError::aborted("transaction already finished"))
        }
    }

    /// Statement boundary: under read committed every statement takes a
    /// fresh snapshot; under snapshot isolation the begin-time snapshot
    /// stays (§5.1 runs read committed).
    ///
    /// A resumption of a parked statement is *not* a new statement: it
    /// keeps the snapshot (re-reading one mid-statement would break
    /// statement atomicity) and replays, rather than re-applies, the row
    /// writes the interrupted run already performed.
    fn statement_begin(&mut self) {
        if self.retry_resume {
            self.retry_resume = false;
            self.stmt_replay = 0;
            return;
        }
        self.stmt_results.clear();
        self.stmt_replay = 0;
        self.engine.shared.fabric.charge_statement();
        if self.engine.cfg.read_committed {
            let cts = self.engine.tso.snapshot();
            self.snapshot.store(cts.0, Ordering::Release);
        }
    }

    // ---- reads -------------------------------------------------------------

    /// Point lookup by primary key.
    pub fn get(&mut self, table: TableId, key: u64) -> Result<Option<RowValue>> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.reads.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let engine = Arc::clone(&self.engine);
        let snapshot = self.snapshot_cts();
        let gid = self.gid;
        btree::leaf_read(&engine, meta.root, key as IndexKey, |page| {
            read_visible(&engine, gid, snapshot, page, key as IndexKey)
        })
    }

    /// Batched point lookups: one statement (one snapshot fetch, one
    /// statement charge) serving many keys — the engine-side equivalent of
    /// `SELECT … WHERE pk IN (…)`. Results align with the input keys.
    pub fn multi_get(&mut self, table: TableId, keys: &[u64]) -> Result<Vec<Option<RowValue>>> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.reads.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let engine = Arc::clone(&self.engine);
        let snapshot = self.snapshot_cts();
        let gid = self.gid;
        // Visit keys in sorted order so consecutive keys sharing a leaf
        // reuse its (lazily retained) PLock and warm frame.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut out = vec![None; keys.len()];
        for i in order {
            out[i] = btree::leaf_read(&engine, meta.root, keys[i] as IndexKey, |page| {
                read_visible(&engine, gid, snapshot, page, keys[i] as IndexKey)
            })?;
        }
        Ok(out)
    }

    /// Range scan from `from` (inclusive) on the primary key, up to `limit`
    /// visible rows.
    pub fn scan(
        &mut self,
        table: TableId,
        from: u64,
        limit: usize,
    ) -> Result<Vec<(u64, RowValue)>> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.reads.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let engine = Arc::clone(&self.engine);
        let snapshot = self.snapshot_cts();
        let gid = self.gid;
        let mut out = Vec::new();
        btree::scan_from(&engine, meta.root, from as IndexKey, |page| {
            for row in &page.as_leaf().rows {
                if row.key < from as IndexKey {
                    continue;
                }
                if out.len() >= limit {
                    return false;
                }
                if let Some(v) = visible_version(&engine, gid, snapshot, page.id, row) {
                    out.push((row.key as u64, v));
                }
            }
            out.len() < limit
        })?;
        Ok(out)
    }

    /// Look up primary keys through a global secondary index: all visible
    /// entries with `column value == sec_value`, up to `limit`.
    pub fn index_lookup(
        &mut self,
        table: TableId,
        index_no: usize,
        sec_value: u64,
        limit: usize,
    ) -> Result<Vec<u64>> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.reads.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let TableKind::Primary { indexes } = &meta.kind else {
            return Err(PmpError::internal("index_lookup on an index tree"));
        };
        let idx = indexes
            .get(index_no)
            .ok_or_else(|| PmpError::internal("no such index"))?;
        let idx_meta = self.engine.shared.catalog.get(idx.table)?;

        let engine = Arc::clone(&self.engine);
        let snapshot = self.snapshot_cts();
        let gid = self.gid;
        let from = index_key(sec_value, 0);
        let to = index_key(sec_value, u64::MAX);
        let mut out = Vec::new();
        btree::scan_from(&engine, idx_meta.root, from, |page| {
            for row in &page.as_leaf().rows {
                if row.key < from {
                    continue;
                }
                if row.key > to || out.len() >= limit {
                    return false;
                }
                if visible_version(&engine, gid, snapshot, page.id, row).is_some() {
                    out.push(row.key as u64); // low 64 bits = primary key
                }
            }
            true
        })?;
        Ok(out)
    }

    /// Locking read (`SELECT ... FOR UPDATE`): X-lock the row and return its
    /// current value. The paper's row locks are exclusive-only; the rare
    /// "S lock a record" cases are served by taking the X lock directly
    /// (§4.3.2: "PolarDB-MP will upgrade the S lock to the X lock").
    /// Returns `None` (without locking) when the key does not exist.
    pub fn get_for_update(&mut self, table: TableId, key: u64) -> Result<Option<RowValue>> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.reads.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        match self.write_row(&meta, key as IndexKey, None, WriteOp::Lock)? {
            Ok(prev) => Ok(prev),
            Err(PmpError::KeyNotFound) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Range lookup through a GSI: primary keys of all visible rows whose
    /// indexed column lies in `[sec_from, sec_to]`, up to `limit`.
    pub fn index_range_lookup(
        &mut self,
        table: TableId,
        index_no: usize,
        sec_from: u64,
        sec_to: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.reads.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let TableKind::Primary { indexes } = &meta.kind else {
            return Err(PmpError::internal("index_range_lookup on an index tree"));
        };
        let idx = indexes
            .get(index_no)
            .ok_or_else(|| PmpError::internal("no such index"))?;
        let idx_meta = self.engine.shared.catalog.get(idx.table)?;

        let engine = Arc::clone(&self.engine);
        let snapshot = self.snapshot_cts();
        let gid = self.gid;
        let from = index_key(sec_from, 0);
        let to = index_key(sec_to, u64::MAX);
        let mut out = Vec::new();
        btree::scan_from(&engine, idx_meta.root, from, |page| {
            for row in &page.as_leaf().rows {
                if row.key < from {
                    continue;
                }
                if row.key > to || out.len() >= limit {
                    return false;
                }
                if visible_version(&engine, gid, snapshot, page.id, row).is_some() {
                    let (sec, pk) = crate::row::split_index_key(row.key);
                    out.push((sec, pk));
                }
            }
            true
        })?;
        Ok(out)
    }

    // ---- writes ------------------------------------------------------------

    /// Insert a new row (duplicate primary keys rejected).
    pub fn insert(&mut self, table: TableId, key: u64, value: RowValue) -> Result<()> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.writes.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        self.write_row(&meta, key as IndexKey, Some(value.clone()), WriteOp::Insert)??;
        // Maintain every GSI.
        let TableKind::Primary { indexes } = &meta.kind else {
            return Err(PmpError::internal("insert into an index tree"));
        };
        for idx in indexes.clone() {
            let idx_meta = self.engine.shared.catalog.get(idx.table)?;
            let ikey = index_key(value.col(idx.column), key);
            self.write_row(&idx_meta, ikey, Some(RowValue::default()), WriteOp::Insert)??;
        }
        Ok(())
    }

    /// Update the full value of an existing row, maintaining GSIs whose
    /// indexed column changed.
    pub fn update(&mut self, table: TableId, key: u64, value: RowValue) -> Result<()> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.writes.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let old = self
            .write_row(&meta, key as IndexKey, Some(value.clone()), WriteOp::Update)??
            .expect("update returns the prior value");

        let TableKind::Primary { indexes } = &meta.kind else {
            return Err(PmpError::internal("update of an index tree"));
        };
        for idx in indexes.clone() {
            let old_sec = old.col(idx.column);
            let new_sec = value.col(idx.column);
            if old_sec == new_sec {
                continue;
            }
            let idx_meta = self.engine.shared.catalog.get(idx.table)?;
            self.write_row(&idx_meta, index_key(old_sec, key), None, WriteOp::Delete)??;
            self.write_row(
                &idx_meta,
                index_key(new_sec, key),
                Some(RowValue::default()),
                WriteOp::Insert,
            )??;
        }
        Ok(())
    }

    /// Delete (tombstone) a row and its GSI entries.
    pub fn delete(&mut self, table: TableId, key: u64) -> Result<()> {
        self.ensure_active()?;
        self.statement_begin();
        self.engine.stats.writes.inc();
        let meta = self.engine.shared.catalog.get(table)?;
        let old = self
            .write_row(&meta, key as IndexKey, None, WriteOp::Delete)??
            .expect("delete returns the prior value");
        let TableKind::Primary { indexes } = &meta.kind else {
            return Err(PmpError::internal("delete from an index tree"));
        };
        for idx in indexes.clone() {
            let idx_meta = self.engine.shared.catalog.get(idx.table)?;
            self.write_row(
                &idx_meta,
                index_key(old.col(idx.column), key),
                None,
                WriteOp::Delete,
            )??;
        }
        Ok(())
    }

    // ---- the shared write path ----------------------------------------------

    /// Run one row write with the full conflict protocol: embedded lock
    /// word, TIT ref flag, Lock Fusion wait registration, deadlock verdicts
    /// (Figure 6). The outer `Result` is fatal (engine/lock errors roll the
    /// transaction back); the inner one is the row-level outcome.
    fn write_row(
        &mut self,
        meta: &TableMeta,
        key: IndexKey,
        new_value: Option<RowValue>,
        op: WriteOp,
    ) -> Result<Result<Option<RowValue>>> {
        // A resumed statement replays writes its interrupted run already
        // applied (the statement's write_row sequence is deterministic, so
        // positions line up). Without this, a statement parked on its GSI
        // write would re-insert its primary row on the re-run.
        if self.stmt_replay < self.stmt_results.len() {
            let cached = self.stmt_results[self.stmt_replay].clone();
            self.stmt_replay += 1;
            return Ok(Ok(cached));
        }
        loop {
            let outcome = self.try_write_row(meta, key, new_value.clone(), op);
            match outcome {
                // Row-level failures (dup key, not found) leave the
                // transaction active; the caller decides what they mean.
                Ok(WriteResult::Done(row_result)) => {
                    if let Ok(v) = &row_result {
                        self.stmt_results.push(v.clone());
                        self.stmt_replay = self.stmt_results.len();
                    }
                    return Ok(row_result);
                }
                Ok(WriteResult::Conflict(holder)) => self.wait_for(holder)?,
                // A suspended task is not a failure: the scheduler re-runs
                // the statement once the wait source fires. No rollback.
                Err(PmpError::WouldBlock) => return Err(PmpError::WouldBlock),
                Err(e) => {
                    // Lock timeouts and engine failures abort the whole
                    // transaction (2PL cannot partially release).
                    self.rollback_internal()?;
                    return Err(e);
                }
            }
        }
    }

    fn try_write_row(
        &mut self,
        meta: &TableMeta,
        key: IndexKey,
        new_value: Option<RowValue>,
        op: WriteOp,
    ) -> Result<WriteResult<Result<Option<RowValue>>>> {
        let engine = Arc::clone(&self.engine);
        let gid = self.gid;
        let undo_head = self.undo_head;
        let table = meta.id;
        // Filled in by the closure when it applies a change.
        let mut new_undo: Option<UndoPtr> = None;

        let result = btree::leaf_modify(&engine, table, meta.root, key, &mut |page: &mut Page| {
            let node_id = engine.node;
            let leaf = page.as_leaf_mut();
            match leaf.search(key) {
                Err(insert_pos) => match op {
                    WriteOp::Insert => {
                        if leaf.rows.len() >= LEAF_CAPACITY {
                            return ModifyVerdict::NeedSplit;
                        }
                        let value = new_value.clone().expect("insert carries a value");
                        let undo_rec = UndoRecord {
                            trx: gid,
                            table,
                            key,
                            prev: None,
                            trx_prev: undo_head,
                        };
                        let ptr = engine.shared.undo.append(node_id, undo_rec.clone());
                        new_undo = Some(ptr);
                        let row = Row {
                            key,
                            header: RowHeader {
                                trx: gid,
                                cts: CSN_INIT,
                                undo: ptr,
                                deleted: false,
                            },
                            value,
                        };
                        leaf.rows.insert(insert_pos, row.clone());
                        ModifyVerdict::Apply {
                            result: Ok(None),
                            page_ops: vec![RedoOp::InsertRow(row)],
                            pre_records: vec![undo_write_record(table, ptr, undo_rec)],
                        }
                    }
                    WriteOp::Update | WriteOp::Delete | WriteOp::Lock => {
                        ModifyVerdict::NoChange(Err(PmpError::KeyNotFound))
                    }
                },
                Ok(i) => {
                    let row = &mut leaf.rows[i];
                    match row_lock_state(&engine, gid, &row.header) {
                        LockState::Locked(holder) => ModifyVerdict::Conflict(holder),
                        LockState::Free | LockState::Mine => {
                            // Semantics by op on an existing row.
                            let existing_live = !row.header.deleted;
                            match op {
                                WriteOp::Insert if existing_live => {
                                    return ModifyVerdict::NoChange(Err(PmpError::DuplicateKey));
                                }
                                WriteOp::Update | WriteOp::Delete | WriteOp::Lock
                                    if !existing_live =>
                                {
                                    return ModifyVerdict::NoChange(Err(PmpError::KeyNotFound));
                                }
                                _ => {}
                            }
                            let prev_value = row.value.clone();
                            let undo_rec = UndoRecord {
                                trx: gid,
                                table,
                                key,
                                prev: Some((row.header, prev_value.clone())),
                                trx_prev: undo_head,
                            };
                            let ptr = engine.shared.undo.append(node_id, undo_rec.clone());
                            new_undo = Some(ptr);
                            row.header = RowHeader {
                                trx: gid,
                                cts: CSN_INIT,
                                undo: ptr,
                                deleted: op == WriteOp::Delete,
                            };
                            if op != WriteOp::Lock {
                                if let Some(v) = &new_value {
                                    row.value = v.clone();
                                }
                            }
                            let redo = RedoOp::UpdateRow {
                                key,
                                header: row.header,
                                value: row.value.clone(),
                            };
                            ModifyVerdict::Apply {
                                result: Ok(Some(prev_value)),
                                page_ops: vec![redo],
                                pre_records: vec![undo_write_record(table, ptr, undo_rec)],
                            }
                        }
                    }
                }
            }
        })?;

        if let Some(ptr) = new_undo {
            self.undo_head = ptr;
            self.undo_all.push(ptr);
            self.writes.push(WriteRef { table, key });
        }
        Ok(result)
    }

    /// The Figure 6 wait protocol: raise the holder's TIT ref flag with a
    /// one-sided FAA, register the wait with Lock Fusion, double-check the
    /// holder is still active, then suspend until Lock Fusion signals the
    /// cell or the lock-wait deadline passes.
    ///
    /// `Ok` means retry the row. A task suspends with `WouldBlock`; the
    /// registration stays on the transaction, so the re-run — which meets
    /// the same conflict — resumes this wait without a second FAA or RPC.
    fn wait_for(&mut self, holder: GlobalTrxId) -> Result<()> {
        if self.row_wait.as_ref().is_none_or(|w| w.holder != holder) {
            // (A wait on an earlier holder ended when that holder did.)
            self.row_wait = self.register_wait(holder);
        }
        let Some(wait) = &self.row_wait else {
            return Ok(());
        };
        let (cell, deadline) = (Arc::clone(&wait.cell), wait.deadline);
        let waiter = Waiter::current();
        loop {
            let waker = waiter.waker();
            match cell.poll(Box::new(move || waker.wake())) {
                Some(WaitOutcome::Granted) => {
                    self.row_wait = None;
                    return Ok(());
                }
                Some(WaitOutcome::Victim) => {
                    self.engine.stats.deadlock_aborts.inc();
                    self.rollback_internal()?;
                    return Err(PmpError::Deadlock { victim: self.gid });
                }
                None => {}
            }
            if scheduler::passed(deadline) {
                // (Rolling back takes the wait out of the wait-for graph.)
                self.rollback_internal()?;
                return Err(PmpError::LockWaitTimeout);
            }
            waiter.suspend(deadline)?;
        }
    }

    /// Register `self waits-for holder`; `None` when the holder turns out
    /// to have finished already (retry the row at once).
    fn register_wait(&self, holder: GlobalTrxId) -> Option<RowWait> {
        let engine = &self.engine;
        engine.stats.lock_waits.inc();
        // Holder's node left ⇒ its recovery freed the row.
        let region = engine.shared.pmfs.txn.region(holder.node)?;
        let locality = if holder.node == engine.node {
            Locality::Local
        } else {
            Locality::Remote
        };
        if region.add_ref(holder.slot, locality) != holder.version {
            return None; // slot reused ⇒ holder finished
        }
        let rlock = &engine.shared.pmfs.rlock;
        let cell = rlock.register_wait(self.gid, holder);
        // Close the race with a commit that checked its ref flag before our
        // FAA landed.
        if engine.trx_cts(holder) != CSN_MAX {
            rlock.cancel_wait(self.gid, holder);
            return None;
        }
        let timeout = Duration::from_millis(engine.cfg.lock_wait_timeout_ms);
        Some(RowWait {
            holder,
            cell,
            deadline: scheduler::deadline_in(timeout),
        })
    }

    // ---- commit / rollback ---------------------------------------------------

    /// Commit: CTS from the TSO, durable commit record (group commit), TIT
    /// publication, CTS backfill, waiter notification (§4.1, Figure 6).
    pub fn commit(mut self) -> Result<Cts> {
        // A thread waits in place, so one step runs the whole pipeline.
        self.commit_step()
    }

    /// One commit attempt, resumable. The two waits — a CTS lease round in
    /// flight and the group-commit wal force — suspend the caller: a task
    /// unwinds with [`PmpError::WouldBlock`] and `commit_stage` records
    /// where the re-run resumes; a thread blocks and the same code runs
    /// the pipeline in one call.
    pub(crate) fn commit_step(&mut self) -> Result<Cts> {
        self.ensure_active()?;
        if self.writes.is_empty() {
            self.status = TxnStatus::Committed;
            self.engine.finish_readonly(self.gid);
            return Ok(self.snapshot_cts());
        }
        let engine = Arc::clone(&self.engine);
        let gid = self.gid;
        loop {
            match &mut self.commit_stage {
                CommitStage::Start => {
                    self.commit_stage = CommitStage::Cts {
                        // lint: allow(raw-instant): commit-stage latency metering (histograms)
                        since: Instant::now(),
                        ticket: None,
                    };
                }
                CommitStage::Cts { since, ticket } => {
                    let cts = engine.tso.commit_cts(ticket)?;
                    engine.stats.commit_cts_ns.record(since.elapsed());
                    self.commit_stage = CommitStage::Log(cts);
                }
                &mut CommitStage::Log(cts) => {
                    let end = engine.wal.log_atomic(|_| {
                        vec![RedoRecord {
                            llsn: pmp_common::Llsn::ZERO,
                            page: pmp_common::PageId::NULL,
                            table: TableId(0),
                            op: RedoOp::Commit { trx: gid, cts },
                        }]
                    });
                    self.commit_stage = CommitStage::Force {
                        cts,
                        end,
                        // lint: allow(raw-instant): commit-stage latency metering (histograms)
                        since: Instant::now(),
                        registration: None,
                    };
                }
                CommitStage::Force {
                    cts,
                    end,
                    since,
                    registration,
                } => {
                    let (cts, end) = (*cts, *end);
                    let forced = engine.wal.force(end, registration)?;
                    engine.stats.commit_wal_force_ns.record(since.elapsed());
                    if forced < end {
                        // A crash truncated the stream beneath the commit
                        // record: it can never become durable, so the commit
                        // must not be acknowledged — the caller would see Ok
                        // for a transaction recovery is about to roll back.
                        return Err(PmpError::NodeUnavailable { node: engine.node });
                    }
                    if engine.wal.stream().epoch() != self.log_epoch {
                        // The stream crashed at some point during this
                        // transaction. Even with the commit record durable
                        // (truncation reuses byte offsets, so post-crash
                        // appends can carry the watermark past `end`), redo
                        // written before the crash is gone — acknowledging
                        // would report durable a transaction recovery cannot
                        // replay.
                        return Err(PmpError::NodeUnavailable { node: engine.node });
                    }
                    // CTS publish + ref-flag collection: one doorbell batch
                    // against our own TIT slot. Taking the refs *before*
                    // backfill is safe: the CTS lands in the same batch ahead
                    // of the swap, so a waiter that our swap misses observes
                    // the published CTS on its double-check and never blocks.
                    // lint: allow(raw-instant): commit-stage latency metering (histograms)
                    let t2 = std::time::Instant::now();
                    let refs = engine.tit.commit_and_take_refs(gid.slot, cts);
                    // lint: allow(raw-instant): commit-stage latency metering (histograms)
                    let t3 = std::time::Instant::now();
                    engine.stats.commit_tit_ns.record(t3 - t2);

                    if engine.cfg.cts_backfill {
                        self.backfill_cts(cts);
                        engine.stats.commit_backfill_ns.record(t3.elapsed());
                    }

                    if refs > 0 {
                        engine.shared.pmfs.rlock.notify_finished(gid);
                    }
                    self.status = TxnStatus::Committed;
                    engine.finish_committed(gid, cts, std::mem::take(&mut self.undo_all));
                    return Ok(cts);
                }
            }
        }
    }

    /// Best-effort commit-time CTS backfill: "it updates the CTS in the
    /// metadata of the rows affected by that transaction, provided these
    /// rows are still in the buffer" (§4.1). Purely an optimization — no
    /// PLock, no latch waits, no logging; losing it just means readers
    /// consult the TIT. Each backfilled row is also published into the
    /// node's version store (after the latch drops) so snapshot readers
    /// resolve it locally.
    fn backfill_cts(&self, cts: Cts) {
        for w in &self.writes {
            let Ok(meta) = self.engine.shared.catalog.get(w.table) else {
                continue;
            };
            // Root→leaf walk through the LBP only; any miss skips. The
            // write latch is taken blocking — commit holds no other
            // latches here, and a reliable backfill saves every future
            // reader a TIT lookup.
            let mut published: Option<(pmp_common::PageId, Row)> = None;
            let mut current = meta.root;
            'chase: while let Some(frame) = self.engine.lbp.peek(current) {
                if !frame.is_valid() {
                    break;
                }
                let mut page = frame.page.write();
                if !page.covers(w.key) {
                    current = page.next;
                    continue;
                }
                match &page.kind {
                    crate::page::PageKind::Internal(node) => {
                        current = node.child_for(w.key);
                        continue 'chase;
                    }
                    crate::page::PageKind::Leaf(_) => {
                        let page_id = page.id;
                        if let Some(row) = page.as_leaf_mut().get_mut(w.key) {
                            if row.header.trx == self.gid {
                                row.header.cts = cts;
                                published = Some((page_id, row.clone()));
                            }
                        }
                        break;
                    }
                }
            }
            if let Some((page_id, row)) = published {
                publish_commit(&self.engine, page_id, &row, cts);
            }
        }
    }

    /// Roll back all changes via the undo chain (reverse order), release
    /// the TIT slot, wake waiters.
    pub fn rollback(mut self) -> Result<()> {
        self.ensure_active()?;
        self.rollback_internal()
    }

    fn rollback_internal(&mut self) -> Result<()> {
        // Rollback never parks, even on a scheduler worker: re-running a
        // half-applied undo replay through the statement retry machinery
        // would interleave it with fresh statement state. Undo touches pages
        // this transaction just wrote (PLocks lazily retained, frames warm),
        // so waiting as a thread is short and bounded.
        scheduler::with_parking_disabled(|| self.rollback_body())
    }

    fn rollback_body(&mut self) -> Result<()> {
        if self.status != TxnStatus::Active {
            return Ok(());
        }
        let engine = Arc::clone(&self.engine);
        let gid = self.gid;
        if let Some(wait) = self.row_wait.take() {
            // Dropped mid-wait: take the edge out of the wait-for graph.
            engine.shared.pmfs.rlock.cancel_wait(gid, wait.holder);
        }
        for &ptr in self.undo_all.iter().rev() {
            let Some(rec) = engine
                .shared
                .undo
                .read(&engine.shared.fabric, engine.node, ptr)
            else {
                continue;
            };
            let meta = engine.shared.catalog.get(rec.table)?;
            apply_undo(&engine, gid, meta.root, &rec)?;
        }
        let end = engine.wal.log_atomic(|_| {
            vec![RedoRecord {
                llsn: pmp_common::Llsn::ZERO,
                page: pmp_common::PageId::NULL,
                table: TableId(0),
                op: RedoOp::Rollback { trx: gid },
            }]
        });
        // Rollback completion need not be forced: if it is lost, recovery
        // simply rolls the transaction back again (idempotent).
        let _ = end;
        if engine.tit.take_refs(gid.slot) > 0 {
            engine.shared.pmfs.rlock.notify_finished(gid);
        }
        self.status = TxnStatus::RolledBack;
        engine.finish_aborted(gid, &self.undo_all);
        Ok(())
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if self.status == TxnStatus::Active {
            // Best-effort RAII rollback; errors (e.g. node crashed) are
            // swallowed — recovery handles the rest.
            let _ = self.rollback_internal();
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WriteOp {
    Insert,
    Update,
    Delete,
    /// X-lock the row without changing its value (locking read).
    Lock,
}

fn undo_write_record(table: TableId, ptr: UndoPtr, record: UndoRecord) -> RedoRecord {
    RedoRecord {
        llsn: pmp_common::Llsn::ZERO,
        page: pmp_common::PageId::NULL,
        table,
        op: RedoOp::UndoWrite { ptr, record },
    }
}

/// Restore one undo record's row (used by rollback here and by recovery).
pub(crate) fn apply_undo(
    engine: &NodeEngine,
    gid: GlobalTrxId,
    root: pmp_common::PageId,
    rec: &UndoRecord,
) -> Result<()> {
    let result = btree::leaf_modify(engine, rec.table, root, rec.key, &mut |page: &mut Page| {
        let leaf = page.as_leaf_mut();
        match leaf.search(rec.key) {
            Err(_) => ModifyVerdict::NoChange(()), // already restored
            Ok(i) => {
                if leaf.rows[i].header.trx != gid {
                    return ModifyVerdict::NoChange(()); // already restored
                }
                match &rec.prev {
                    Some((header, value)) => {
                        leaf.rows[i].header = *header;
                        leaf.rows[i].value = value.clone();
                        ModifyVerdict::Apply {
                            result: (),
                            page_ops: vec![RedoOp::UpdateRow {
                                key: rec.key,
                                header: *header,
                                value: value.clone(),
                            }],
                            pre_records: vec![],
                        }
                    }
                    None => {
                        leaf.rows.remove(i);
                        ModifyVerdict::Apply {
                            result: (),
                            page_ops: vec![RedoOp::RemoveRow { key: rec.key }],
                            pre_records: vec![],
                        }
                    }
                }
            }
        }
    })?;
    match result {
        WriteResult::Done(()) => Ok(()),
        WriteResult::Conflict(_) => Err(PmpError::internal(
            "rollback hit a lock conflict on own row",
        )),
    }
}

/// Row-lock-word liveness (§4.3.2): committed or recycled ⇒ free.
fn row_lock_state(engine: &NodeEngine, me: GlobalTrxId, header: &RowHeader) -> LockState {
    if header.trx.is_none() {
        return LockState::Free;
    }
    if header.trx == me {
        return LockState::Mine;
    }
    if !header.cts.is_init() {
        return LockState::Free; // committed (CTS backfilled)
    }
    if header.trx.trx.0 < engine.min_active_of(header.trx.node) && header.trx.node != engine.node {
        return LockState::Free; // below the published min-active id
    }
    if engine.trx_is_active(header.trx) {
        LockState::Locked(header.trx)
    } else {
        LockState::Free
    }
}

/// Full Algorithm 1 + version-chain walk: the newest version of `row`
/// visible to `(gid, snapshot)`, or `None` (deleted / never existed).
///
/// Resolution order: own writes → backfilled/bootstrap CTS fast path →
/// node-local version store → undo/TIT reconstruction (which read-through
/// fills the store so the next reader stays local).
pub(crate) fn visible_version(
    engine: &NodeEngine,
    gid: GlobalTrxId,
    snapshot: Cts,
    page_id: PageId,
    row: &Row,
) -> Option<RowValue> {
    let header = row.header;
    // Own writes are always visible.
    if header.trx == gid {
        return (!header.deleted).then(|| row.value.clone());
    }
    // Algorithm 1 lines 2-5 fast path: a backfilled (or bootstrap) CTS the
    // snapshot covers needs no store, no TIT, no undo.
    if !header.cts.is_init() {
        if header.cts.visible_at(snapshot) {
            return (!header.deleted).then(|| row.value.clone());
        }
    } else if header.trx.is_none() {
        return (!header.deleted).then(|| row.value.clone());
    }
    // Version store front door: anchored at the latched current header's
    // undo pointer, a verified chain answers entirely node-locally.
    match engine
        .version_store
        .resolve(page_id, row.key, header.undo, snapshot)
    {
        Resolved::Value(v) => return v,
        Resolved::Miss => {}
    }
    reconstruct_with_fill(engine, gid, snapshot, page_id, row)
}

/// The pre-version-store path: undo-chain reconstruction with TIT-backed
/// CTS resolution (§4.1). Every committed version whose CTS resolves during
/// the walk is published back into the version store with its verified
/// predecessor link, so chains warm up for remotely-written pages.
fn reconstruct_with_fill(
    engine: &NodeEngine,
    gid: GlobalTrxId,
    snapshot: Cts,
    page_id: PageId,
    row: &Row,
) -> Option<RowValue> {
    let mut header = row.header;
    let mut value = row.value.clone();
    let mut fill: Vec<StoredVersion> = Vec::new();
    let out = loop {
        if header.trx == gid {
            break (!header.deleted).then_some(value);
        }
        let cts = effective_cts(engine, &header);
        let committed = cts != CSN_MAX;
        if committed && cts.visible_at(snapshot) {
            fill.push(StoredVersion {
                undo: header.undo,
                cts,
                prev: PrevLink::Unknown,
                deleted: header.deleted,
                value: value.clone(),
            });
            break (!header.deleted).then_some(value);
        }
        // Reconstruct the previous version from undo (§4.1).
        let Some(rec) = engine
            .shared
            .undo
            .read(&engine.shared.fabric, engine.node, header.undo)
        else {
            break None;
        };
        match rec.prev.as_ref() {
            Some((h, v)) => {
                if committed {
                    fill.push(StoredVersion {
                        undo: header.undo,
                        cts,
                        prev: PrevLink::Link(h.undo),
                        deleted: header.deleted,
                        value: value.clone(),
                    });
                }
                header = *h;
                value = v.clone();
            }
            None => {
                if committed {
                    fill.push(StoredVersion {
                        undo: header.undo,
                        cts,
                        prev: PrevLink::Root,
                        deleted: header.deleted,
                        value: value.clone(),
                    });
                }
                break None;
            }
        }
    };
    if !fill.is_empty() {
        engine.version_store.fill(page_id, row.key, fill);
    }
    out
}

/// Algorithm 1, row half: the effective CTS of a row version.
fn effective_cts(engine: &NodeEngine, header: &RowHeader) -> Cts {
    if !header.cts.is_init() {
        return header.cts; // lines 2-5: already backfilled
    }
    if header.trx.is_none() {
        return CSN_MIN; // bootstrap rows predate every transaction
    }
    engine.trx_cts(header.trx) // lines 7-21 via the TIT
}

/// Read the visible version of `key` in a latched leaf page.
pub(crate) fn read_visible(
    engine: &NodeEngine,
    gid: GlobalTrxId,
    snapshot: Cts,
    page: &Page,
    key: IndexKey,
) -> Option<RowValue> {
    let row = page.as_leaf().get(key)?;
    visible_version(engine, gid, snapshot, page.id, row)
}

/// Commit-time version publication: store the just-committed row image —
/// and, when its CTS is already known without any fabric verb, the
/// committed predecessor image — into the node's version store. Runs on
/// the commit path, so it must stay free of fabric traffic: the only undo
/// reads are this transaction's own records, which live in the local undo
/// segment, and the predecessor CTS comes from the header or the CTS cache.
fn publish_commit(engine: &NodeEngine, page_id: PageId, row: &Row, cts: Cts) {
    if !engine.version_store.enabled() {
        return;
    }
    let gid = row.header.trx;
    let mut versions = Vec::with_capacity(2);
    // Walk past intermediate images this same transaction wrote to find
    // the committed predecessor (all hops are node-local records).
    let mut prev = PrevLink::Unknown;
    let mut ptr = row.header.undo;
    while let Some(rec) = engine
        .shared
        .undo
        .read(&engine.shared.fabric, engine.node, ptr)
    {
        match rec.prev.as_ref() {
            None => {
                prev = PrevLink::Root;
                break;
            }
            Some((h, _)) if h.trx == gid => ptr = h.undo,
            Some((h, v)) => {
                prev = PrevLink::Link(h.undo);
                let pcts = if !h.cts.is_init() {
                    Some(h.cts)
                } else if h.trx.is_none() {
                    Some(CSN_MIN)
                } else {
                    engine.cached_cts(h.trx)
                };
                if let Some(pcts) = pcts {
                    versions.push(StoredVersion {
                        undo: h.undo,
                        cts: pcts,
                        prev: PrevLink::Unknown,
                        deleted: h.deleted,
                        value: v.clone(),
                    });
                }
                break;
            }
        }
    }
    versions.push(StoredVersion {
        undo: row.header.undo,
        cts,
        prev,
        deleted: row.header.deleted,
        value: row.value.clone(),
    });
    engine.version_store.publish(page_id, row.key, versions);
}
