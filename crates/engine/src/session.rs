//! The async `Session` surface over the parkable scheduler.
//!
//! An [`AsyncSession`] is one client connection: a queue of operations
//! drained by a single **actor** task on the node's [`Scheduler`]. Each
//! `begin/get/put/scan/commit` call only enqueues an [`Op`] and returns a
//! [`DbFuture`]; the actor completes the future when the engine answers.
//!
//! **Who runs the actor.** A future is started by whoever first needs its
//! result, and work leaves the caller's thread only for a wait that is
//! real. A caller that polls (`try_take`, `is_ready`, `on_ready`) or drops
//! the future has other things to do: the actor is handed to a scheduler
//! worker, once per future, and the caller never runs engine code. A
//! caller in [`DbFuture::wait`] has declared it has nothing else to do: if
//! the actor is idle it runs *on the waiting thread*, so a statement that
//! meets no wait resolves with no thread hand-off at all. Either way, when
//! a statement does hit a wait — a page load in flight, a PLock a peer has
//! pinned, a locked row, a CTS lease refill, the group-commit window — it
//! returns [`PmpError::WouldBlock`] up to the actor, which parks (holding
//! no thread) and is re-run on a worker by the wake. This is what lets a
//! 2-worker node keep hundreds of transactions open at once.
//!
//! Ordering is the queue's, not the starter's: operations of one session
//! run strictly in submission order (it is a single actor), whichever
//! future is started first; operations of different sessions interleave
//! freely.
//!
//! `pmp_core::Session` does not go through this module: it drives a `Txn`
//! directly on the caller's thread, where the same waits suspend the
//! thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedMutex};
use pmp_common::{Cts, PmpError, Result, TableId};
use pmp_io::Completion;

use crate::node::NodeEngine;
use crate::row::RowValue;
use crate::scheduler::{self, Parker, StepResult};
use crate::txn::{Txn, TxnStatus};

/// Session op queue (submission side vs. actor side).
const SESSION_OPS: LockClass = LockClass::new("engine.session.ops");

/// An engine-driven future: resolved by the session actor when the
/// operation completes.
///
/// Submitting only queues the operation. The first `try_take` / `is_ready`
/// / `on_ready` — or dropping the future — hands the session's actor to the
/// scheduler workers (one wake per future however often it is polled);
/// [`wait`](Self::wait) runs the actor on the calling thread instead.
pub struct DbFuture<T> {
    done: Completion<Result<T>>,
    actor: Arc<Parker>,
    /// Set by whoever starts the actor for this future, so a poll loop costs
    /// one wake in total: a wake that finds the actor running leaves
    /// `NOTIFIED` behind and forces a spurious re-run of its step.
    started: AtomicBool,
}

impl<T> DbFuture<T> {
    /// Hand the actor to the workers unless this future already started it.
    fn start(&self) {
        if !self.started.swap(true, Ordering::AcqRel) {
            self.actor.wake();
        }
    }

    /// Non-blocking poll; the result can be taken exactly once.
    pub fn try_take(&self) -> Option<Result<T>> {
        self.start();
        self.done.try_take()
    }

    pub fn is_ready(&self) -> bool {
        self.start();
        self.done.is_ready()
    }

    /// Register a callback to run when the result lands (or immediately if
    /// it already did). At most one callback; a second replaces the first.
    pub fn on_ready(&self, f: Box<dyn FnOnce() + Send>) {
        self.done.set_notify(f);
        self.start();
    }

    /// Block until the result lands. If the session's actor is idle it runs
    /// on *this* thread — this operation and everything queued before it —
    /// until the queue is empty or a statement meets a real wait; only then
    /// does the caller sleep, and a worker resumes the actor.
    ///
    /// The caller therefore runs charged engine code: it must hold no
    /// tracked lock (under `sanitize` the charge-point assertion applies to
    /// it). Never call this from a scheduler worker: the actor that would
    /// resolve the future may be scheduled behind the caller.
    pub fn wait(self) -> Result<T> {
        self.started.store(true, Ordering::Release);
        self.actor.wake_inline();
        // lint: allow(blocking-wait-in-scheduler): this IS the documented blocking shim; it runs on client threads, not scheduler workers
        self.done.wait()
    }
}

impl<T> Drop for DbFuture<T> {
    fn drop(&mut self) {
        // Nobody will ask for the result; the operation still has to run.
        self.start();
    }
}

/// A statement with its future folded in: run against the open
/// transaction it resolves the future and returns true, unless the
/// statement suspended (`WouldBlock`) and has to be run again; given an
/// error it resolves the future with that.
type Stmt = Box<dyn FnMut(Result<&mut Txn>) -> bool + Send>;

/// One queued session operation, carrying its result slot.
enum Op {
    Begin(Completion<Result<()>>),
    /// Write-class statements follow `write_row`'s fatal-error semantics: a
    /// failed wait aborts the whole transaction. Reads only fail the
    /// statement.
    Stmt {
        write: bool,
        run: Stmt,
    },
    Commit(Completion<Result<Cts>>),
    Rollback(Completion<Result<()>>),
    Close(Completion<Result<()>>),
}

impl Op {
    /// Resolve the op's future with an error (session closed, wait failed).
    fn fail(self, e: PmpError) {
        match self {
            Op::Stmt { mut run, .. } => {
                run(Err(e));
            }
            Op::Commit(d) => d.complete(Err(e)),
            Op::Begin(d) | Op::Rollback(d) | Op::Close(d) => d.complete(Err(e)),
        }
    }

    /// Whether a failed wait aborts the whole transaction.
    fn is_write(&self) -> bool {
        matches!(self, Op::Stmt { write: true, .. } | Op::Commit(_))
    }
}

/// What the actor did with one op.
enum OpOutcome {
    /// Future resolved; move on to the next queued op.
    Completed,
    /// The op registered a waker and must re-run after the wake.
    Parked(Op),
    /// `Close` processed: the actor is done.
    Closed,
}

/// A client connection whose operations run asynchronously on the node's
/// scheduler. Explicit transactions only: `begin` … statements … `commit`
/// or `rollback`. Dropping the session closes it (rolling back any open
/// transaction on the actor).
pub struct AsyncSession {
    queue: Arc<TrackedMutex<VecDeque<Op>>>,
    parker: Arc<Parker>,
    closed: AtomicBool,
}

impl std::fmt::Debug for AsyncSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSession")
            .field("closed", &self.closed.load(Ordering::Relaxed)) // lint: allow(relaxed-atomic): Debug snapshot only
            .finish_non_exhaustive()
    }
}

impl AsyncSession {
    /// Open a session on `engine`: spawns the actor task on the node's
    /// scheduler.
    pub fn open(engine: &Arc<NodeEngine>) -> AsyncSession {
        let queue = Arc::new(TrackedMutex::new(SESSION_OPS, VecDeque::new()));
        let q = Arc::clone(&queue);
        let eng = Arc::clone(engine);
        let mut txn: Option<Txn> = None;
        let mut running: Option<Op> = None;
        let parker = engine.sched.spawn(Box::new(move || {
            loop {
                let (op, resumed) = match running.take() {
                    Some(op) => (op, true),
                    None => match q.lock().pop_front() {
                        Some(op) => (op, false),
                        None => return StepResult::Parked,
                    },
                };
                let parker = scheduler::current_parker();
                let wait_err = match &parker {
                    // A fresh op discards the error and the lock-wait
                    // deadline left by waits an earlier (timed-out)
                    // statement abandoned; only a resumed op owns what is
                    // in the slot.
                    Some(p) if resumed => p.take_error(),
                    Some(p) => {
                        let _ = p.take_error();
                        p.forget_wait();
                        None
                    }
                    None => None,
                };
                match run_op(&eng, &mut txn, op, wait_err) {
                    OpOutcome::Completed => {}
                    OpOutcome::Parked(op) => {
                        running = Some(op);
                        return StepResult::Parked;
                    }
                    OpOutcome::Closed => {
                        let rest: Vec<Op> = q.lock().drain(..).collect();
                        for op in rest {
                            op.fail(PmpError::aborted("session closed"));
                        }
                        return StepResult::Done;
                    }
                }
            }
        }));
        AsyncSession {
            queue,
            parker,
            closed: AtomicBool::new(false),
        }
    }

    /// Queue `op` and return its future. Nothing runs yet: the future
    /// starts the actor when somebody asks for (or drops) the result.
    fn submit<T>(&self, op: impl FnOnce(Completion<Result<T>>) -> Op) -> DbFuture<T> {
        let done = Completion::new();
        let op = op(done.clone());
        if self.closed.load(Ordering::Acquire) {
            op.fail(PmpError::aborted("session closed"));
        } else {
            self.queue.lock().push_back(op);
        }
        DbFuture {
            done,
            actor: Arc::clone(&self.parker),
            started: AtomicBool::new(false),
        }
    }

    /// Queue a statement: `stmt` runs against the open transaction, again
    /// from the top after every park.
    fn statement<T: Send + 'static>(
        &self,
        write: bool,
        mut stmt: impl FnMut(&mut Txn) -> Result<T> + Send + 'static,
    ) -> DbFuture<T> {
        self.submit(|done| Op::Stmt {
            write,
            run: Box::new(move |txn| {
                let res = txn.and_then(&mut stmt);
                if matches!(res, Err(PmpError::WouldBlock)) {
                    return false;
                }
                done.complete(res);
                true
            }),
        })
    }

    pub fn begin(&self) -> DbFuture<()> {
        self.submit(Op::Begin)
    }

    pub fn get(&self, table: TableId, key: u64) -> DbFuture<Option<RowValue>> {
        self.statement(false, move |t| t.get(table, key))
    }

    pub fn get_for_update(&self, table: TableId, key: u64) -> DbFuture<Option<RowValue>> {
        self.statement(true, move |t| t.get_for_update(table, key))
    }

    pub fn insert(&self, table: TableId, key: u64, value: RowValue) -> DbFuture<()> {
        self.statement(true, move |t| t.insert(table, key, value.clone()))
    }

    pub fn update(&self, table: TableId, key: u64, value: RowValue) -> DbFuture<()> {
        self.statement(true, move |t| t.update(table, key, value.clone()))
    }

    pub fn delete(&self, table: TableId, key: u64) -> DbFuture<()> {
        self.statement(true, move |t| t.delete(table, key))
    }

    pub fn scan(&self, table: TableId, from: u64, limit: usize) -> DbFuture<Vec<(u64, RowValue)>> {
        self.statement(false, move |t| t.scan(table, from, limit))
    }

    pub fn commit(&self) -> DbFuture<Cts> {
        self.submit(Op::Commit)
    }

    pub fn rollback(&self) -> DbFuture<()> {
        self.submit(Op::Rollback)
    }

    /// Close the session: any open transaction rolls back on the actor,
    /// later-queued ops fail, and the actor task retires.
    pub fn close(&self) -> DbFuture<()> {
        let fut = self.submit(Op::Close);
        self.closed.store(true, Ordering::Release);
        fut
    }
}

impl Drop for AsyncSession {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::Acquire) {
            // Fire-and-forget close so the actor task does not leak (the
            // dropped future hands the actor to a worker).
            drop(self.close());
        }
    }
}

fn no_txn() -> PmpError {
    PmpError::aborted("no open transaction")
}

/// Run one op against the session's transaction. `wait_err` is an error a
/// wait source delivered while the op was parked (failed page load, failed
/// PLock negotiation): write-class ops abort the transaction on it, reads
/// only fail the statement — mirroring the blocking call path.
fn run_op(
    engine: &Arc<NodeEngine>,
    txn: &mut Option<Txn>,
    op: Op,
    wait_err: Option<PmpError>,
) -> OpOutcome {
    if let Some(e) = wait_err {
        if op.is_write() {
            if let Some(t) = txn.take() {
                // Best effort; a dead node refuses the undo writes and
                // recovery finishes the job.
                let _ = t.rollback();
            }
        }
        op.fail(e);
        return OpOutcome::Completed;
    }
    match op {
        Op::Begin(done) => {
            if txn.is_some() {
                done.complete(Err(PmpError::aborted("transaction already open")));
            } else {
                match engine.begin() {
                    Ok(t) => {
                        *txn = Some(t);
                        done.complete(Ok(()));
                    }
                    Err(e) => done.complete(Err(e)),
                }
            }
            OpOutcome::Completed
        }
        Op::Stmt { write, mut run } => {
            let Some(t) = txn.as_mut() else {
                run(Err(no_txn()));
                return OpOutcome::Completed;
            };
            if !run(Ok(&mut *t)) {
                t.set_retry_resume();
                return OpOutcome::Parked(Op::Stmt { write, run });
            }
            // If the statement ended the transaction (fatal errors roll
            // back inside `write_row`), drop the `Txn` so later ops see "no
            // open transaction" instead of "transaction already finished".
            if t.status() != TxnStatus::Active {
                *txn = None;
            }
            OpOutcome::Completed
        }
        Op::Commit(done) => {
            let Some(t) = txn.as_mut() else {
                done.complete(Err(no_txn()));
                return OpOutcome::Completed;
            };
            match t.commit_step() {
                // Parked mid-pipeline; `commit_stage` records where the
                // re-run resumes (no statement retry flag: commit is not a
                // statement).
                Err(PmpError::WouldBlock) => OpOutcome::Parked(Op::Commit(done)),
                // On an error, dropping the still-active txn runs the
                // best-effort RAII rollback, same as the consuming
                // blocking commit.
                res => {
                    *txn = None;
                    done.complete(res);
                    OpOutcome::Completed
                }
            }
        }
        Op::Rollback(done) => {
            // Rollback never parks (parking is disabled inside), so this
            // resolves in one run.
            match txn.take() {
                Some(t) => done.complete(t.rollback()),
                None => done.complete(Err(no_txn())),
            }
            OpOutcome::Completed
        }
        Op::Close(done) => {
            if let Some(t) = txn.take() {
                let _ = t.rollback();
            }
            done.complete(Ok(()));
            OpOutcome::Closed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{eventually, SchedStats};
    use crate::shared::Shared;
    use pmp_common::{ClusterConfig, NodeId};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn node() -> (Arc<Shared>, Arc<NodeEngine>, TableId) {
        let shared = Shared::new(ClusterConfig::test(1));
        let engine = NodeEngine::start(Arc::clone(&shared), NodeId(0));
        let t = shared.create_table("t", 1, &[]).unwrap().id;
        (shared, engine, t)
    }

    fn v(x: u64) -> RowValue {
        RowValue::new(vec![x])
    }

    /// An open session whose actor has run once on a worker, found the
    /// queue empty and parked.
    fn idle_session(engine: &Arc<NodeEngine>) -> AsyncSession {
        let s = AsyncSession::open(engine);
        eventually("actor never parked", || s.parker.is_parked());
        s
    }

    fn counts(st: &SchedStats) -> (u64, u64, u64) {
        (st.wakes.get(), st.inline_runs.get(), st.parks.get())
    }

    #[test]
    fn wait_on_an_idle_session_runs_the_actor_on_the_waiting_thread() {
        let (_shared, engine, t) = node();
        // Bring the table's root page in first: a page load is a real wait.
        let mut warm = engine.begin().unwrap();
        warm.insert(t, 0, v(0)).unwrap();
        warm.commit().unwrap();
        let s = idle_session(&engine);
        let st = engine.sched.stats();
        let (wakes, inline, parks) = counts(st);

        let ran_on = Arc::new(TrackedMutex::new(SESSION_OPS, None::<ThreadId>));
        let r = Arc::clone(&ran_on);
        let begin = s.begin();
        // The notify runs on the thread that completes the future; `wait`
        // below is what starts the actor (this future was already marked).
        begin.done.set_notify(Box::new(move || {
            *r.lock() = Some(std::thread::current().id())
        }));
        begin.wait().unwrap();
        assert_eq!(*ran_on.lock(), Some(std::thread::current().id()));
        assert_eq!(counts(st), (wakes, inline + 1, parks));

        // Every statement of a wait-free transaction is one more inline
        // run: no hand-off, no park.
        s.insert(t, 1, v(1)).wait().unwrap();
        assert_eq!(s.get(t, 1).wait().unwrap(), Some(v(1)));
        s.commit().wait().unwrap();
        assert_eq!(counts(st), (wakes, inline + 4, parks));
        assert!(scheduler::current_parker().is_none());
    }

    #[test]
    fn polling_costs_one_wake_and_never_runs_the_op_on_the_poller() {
        let (_shared, engine, _t) = node();
        let s = idle_session(&engine);
        let st = engine.sched.stats();
        let (wakes, inline, _) = counts(st);

        let ran_on = Arc::new(TrackedMutex::new(SESSION_OPS, None::<ThreadId>));
        let r = Arc::clone(&ran_on);
        let begin = s.begin();
        begin.on_ready(Box::new(move || {
            *r.lock() = Some(std::thread::current().id())
        }));
        let mut polls = 0u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        let res = loop {
            polls += 1;
            if let Some(res) = begin.try_take() {
                break res;
            }
            assert!(Instant::now() < deadline, "begin never resolved");
            let _ = begin.is_ready();
            std::thread::yield_now();
        };
        res.unwrap();
        eventually("actor never went idle again", || s.parker.is_parked());
        let ran_on = ran_on.lock().expect("on_ready fired");
        assert_ne!(
            ran_on,
            std::thread::current().id(),
            "the poller ran engine code"
        );
        let (wakes_after, inline_after, _) = counts(st);
        assert_eq!(wakes_after, wakes + 1, "{polls} polls must cost one wake");
        assert_eq!(inline_after, inline);
        drop(begin);
        assert_eq!(
            st.wakes.get(),
            wakes + 1,
            "dropping a started future is free"
        );
    }

    #[test]
    fn unwaited_futures_execute_in_submission_order() {
        let (_shared, engine, t) = node();
        let s = idle_session(&engine);
        let order = Arc::new(TrackedMutex::new(SESSION_OPS, Vec::new()));
        let note = |tag: u32| -> Box<dyn FnOnce() + Send> {
            let o = Arc::clone(&order);
            Box::new(move || o.lock().push(tag))
        };

        // A dropped `begin`, then a mix of callbacks and drops, all started
        // before anybody waits.
        drop(s.begin());
        let first = s.insert(t, 1, v(1));
        first.on_ready(note(1));
        drop(s.insert(t, 2, v(2)));
        let third = s.get(t, 2);
        third.on_ready(note(3));
        // The waited commit runs behind everything queued before it.
        s.commit().wait().unwrap();
        assert_eq!(*order.lock(), vec![1, 3]);
        assert_eq!(third.try_take().unwrap().unwrap(), Some(v(2)));

        // Order is the queue's, not the starter's: waiting on `b` runs `a`
        // first, and `a` is resolved by the time `b` is.
        s.begin().wait().unwrap();
        let a = s.get(t, 1);
        let b = s.get(t, 2);
        assert_eq!(b.wait().unwrap(), Some(v(2)));
        assert_eq!(a.try_take().expect("a ran before b").unwrap(), Some(v(1)));
        s.commit().wait().unwrap();
    }

    #[test]
    fn commit_stage_histograms_include_parked_time() {
        let (_shared, engine, t) = node();
        let s = idle_session(&engine);
        s.begin().wait().unwrap();
        s.insert(t, 1, v(1)).wait().unwrap();
        let samples = engine.stats.commit_wal_force_ns.count();
        let cts_samples = engine.stats.commit_cts_ns.count();
        // The commit reaches its force behind a leader holding the sync
        // mutex, parks, and is handed the lead when the mutex is released.
        let (commit, held) = engine.wal.while_leading(|| {
            let commit = s.commit();
            assert!(!commit.is_ready(), "committed through a held sync mutex");
            eventually("commit never parked", || s.parker.is_parked());
            let parked_at = Instant::now();
            std::thread::sleep(Duration::from_millis(20));
            (commit, parked_at.elapsed())
        });
        eventually("commit never resolved", || commit.is_ready());
        commit.try_take().unwrap().unwrap();
        let force = &engine.stats.commit_wal_force_ns;
        assert_eq!(force.count(), samples + 1, "one sample per commit");
        assert!(
            Duration::from_nanos(force.quantile_ns(1.0)) >= held,
            "the force stage was parked for {held:?} but recorded {} ns",
            force.quantile_ns(1.0)
        );
        assert_eq!(engine.stats.commit_cts_ns.count(), cts_samples + 1);
    }

    #[test]
    fn crash_resolves_every_commit_parked_behind_a_lease_round() {
        let (_shared, engine, t) = node();
        let sessions = [idle_session(&engine), idle_session(&engine)];
        for (k, s) in sessions.iter().enumerate() {
            s.begin().wait().unwrap();
            s.insert(t, k as u64 + 1, v(1)).wait().unwrap();
        }
        // Both commits park behind a CTS lease round in flight, and the node
        // crashes under it. The round's hand-off wakes one of them, which
        // fails on the dead node before it can lead the next round; the
        // other must not be left waiting for that round.
        let commits = engine.tso.while_refilling(|| {
            let commits = sessions.each_ref().map(|s| s.commit());
            assert!(commits.iter().all(|c| !c.is_ready()));
            eventually("commits never parked", || {
                engine.tso.suspended() == 2 && sessions.iter().all(|s| s.parker.is_parked())
            });
            engine.crash();
            commits
        });
        for commit in commits {
            eventually("a parked commit was stranded", || commit.is_ready());
            let res = commit.try_take().unwrap();
            assert_eq!(res, Err(PmpError::NodeUnavailable { node: NodeId(0) }));
        }
    }

    #[test]
    fn close_and_drop_retire_the_actor_when_nobody_waits() {
        let (_shared, engine, t) = node();
        let st = engine.sched.stats();
        let s = idle_session(&engine);
        s.begin().wait().unwrap();
        s.insert(t, 9, v(9)).wait().unwrap();
        assert_eq!(engine.stats.open_txns.get(), 1);
        // Dropped with a transaction open: the fire-and-forget close rolls
        // it back on a worker.
        drop(s);
        eventually("dropped session never retired", || st.tasks.get() == 0);
        assert_eq!(engine.stats.open_txns.get(), 0);

        let s = idle_session(&engine);
        drop(s.close());
        eventually("closed session never retired", || st.tasks.get() == 0);
        assert!(s.begin().wait().is_err(), "ops after close fail");
    }
}
