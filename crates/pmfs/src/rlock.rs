//! Row-lock (RLock) wait management, §4.3.2 / Figure 6 — Lock Fusion side.
//!
//! The lock itself lives *inside the row*: a transaction locks a row by
//! writing its global transaction id into the row's lock word while holding
//! the page's X PLock, so Lock Fusion never sees uncontended row locks at
//! all. What it does keep is the *wait-info table*: when T30 finds a row
//! locked by T10, it (a) raises T10's TIT `ref` flag with a one-sided FAA
//! (done by the engine) and (b) registers `T30 waits-for T10` here. When
//! T10 commits and sees its ref flag set, it notifies Lock Fusion, which
//! wakes T30.
//!
//! Lock Fusion also owns the wait-for graph, so it is the natural place for
//! deadlock detection: [`RLockFusion::detect_once`] finds cycles and aborts
//! the youngest member (MySQL-style victim selection; the paper leaves the
//! policy unspecified).

use std::collections::HashMap;
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedMutex};
use pmp_common::{Counter, GlobalTrxId};
use pmp_repl::ReplicatedFabric;

use crate::wait_cell::WaitCell;

/// holder → waiters table.
const RLOCK_WAITS: LockClass = LockClass::new("pmfs.rlock.waits");
/// waiter → holder wait-for edges.
const RLOCK_EDGES: LockClass = LockClass::new("pmfs.rlock.edges");

/// Verdict on a registered wait.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitOutcome {
    /// The holder committed or rolled back; retry the row lock.
    Granted,
    /// This transaction was chosen as a deadlock victim; abort it.
    Victim,
}

struct Waiter {
    trx: GlobalTrxId,
    cell: Arc<WaitCell<WaitOutcome>>,
}

#[derive(Debug, Default)]
pub struct RLockStats {
    pub waits_registered: Counter,
    pub commit_notifications: Counter,
    pub wakeups: Counter,
    pub deadlocks: Counter,
}

/// The Lock Fusion wait-info table + wait-for graph.
///
/// RPC-served in-process state; its mutations are shipped to the PMFS
/// backups via [`ReplicatedFabric::replicate_mutation`] so the wait graph
/// survives a replica crash (DESIGN.md §15).
pub struct RLockFusion {
    repl: Arc<ReplicatedFabric>,
    /// holder → the transactions waiting for it.
    waits: TrackedMutex<HashMap<GlobalTrxId, Vec<Waiter>>>,
    /// waiter → holder (each transaction waits for at most one row at a
    /// time, as in any 2PL engine).
    edges: TrackedMutex<HashMap<GlobalTrxId, GlobalTrxId>>,
    stats: RLockStats,
}

impl std::fmt::Debug for RLockFusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RLockFusion")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl RLockFusion {
    pub fn new(repl: Arc<ReplicatedFabric>) -> Self {
        RLockFusion {
            repl,
            waits: TrackedMutex::new(RLOCK_WAITS, HashMap::new()),
            edges: TrackedMutex::new(RLOCK_EDGES, HashMap::new()),
            stats: RLockStats::default(),
        }
    }

    pub fn stats(&self) -> &RLockStats {
        &self.stats
    }

    /// Register `waiter waits-for holder` (Figure 6 step 2) and return the
    /// cell the verdict lands in. RPC-priced.
    pub fn register_wait(
        &self,
        waiter: GlobalTrxId,
        holder: GlobalTrxId,
    ) -> Arc<WaitCell<WaitOutcome>> {
        self.stats.waits_registered.inc();
        let cell = self.repl.rpc(64, || {
            let cell = WaitCell::new();
            self.waits.lock().entry(holder).or_default().push(Waiter {
                trx: waiter,
                cell: Arc::clone(&cell),
            });
            self.edges.lock().insert(waiter, holder);
            cell
        });
        // The new wait edge lands on every PMFS backup.
        self.repl.replicate_mutation(64);
        cell
    }

    /// Drop a registered wait (timeout, or the engine's double-check found
    /// the holder already finished).
    pub fn cancel_wait(&self, waiter: GlobalTrxId, holder: GlobalTrxId) {
        let mut waits = self.waits.lock();
        if let Some(ws) = waits.get_mut(&holder) {
            ws.retain(|w| w.trx != waiter);
            if ws.is_empty() {
                waits.remove(&holder);
            }
        }
        drop(waits);
        let mut edges = self.edges.lock();
        if edges.get(&waiter) == Some(&holder) {
            edges.remove(&waiter);
        }
    }

    /// A committing (or aborting) transaction whose TIT ref flag was raised
    /// notifies Lock Fusion (Figure 6 step 3); every waiter wakes up and
    /// retries its row lock. RPC-priced.
    pub fn notify_finished(&self, holder: GlobalTrxId) {
        self.stats.commit_notifications.inc();
        self.repl.rpc(32, || {
            let waiters = self.waits.lock().remove(&holder).unwrap_or_default();
            let mut edges = self.edges.lock();
            for w in &waiters {
                if edges.get(&w.trx) == Some(&holder) {
                    edges.remove(&w.trx);
                }
            }
            drop(edges);
            for w in waiters {
                self.stats.wakeups.inc();
                w.cell.signal(WaitOutcome::Granted);
            }
        });
        self.repl.replicate_mutation(32);
    }

    /// One pass of wait-for-graph cycle detection. Every cycle found aborts
    /// its youngest member (highest `(node, trx)` — an arbitrary but total
    /// order). Returns the victims. Driven by a cluster background thread.
    pub fn detect_once(&self) -> Vec<GlobalTrxId> {
        let edges: HashMap<GlobalTrxId, GlobalTrxId> = self.edges.lock().clone();
        let mut victims = Vec::new();
        let mut visited: HashMap<GlobalTrxId, bool> = HashMap::new(); // false = on stack

        for &start in edges.keys() {
            if visited.contains_key(&start) {
                continue;
            }
            // Walk the single outgoing edge chain, tracking the path.
            let mut path = Vec::new();
            let mut cur = start;
            loop {
                if let Some(&done) = visited.get(&cur) {
                    if !done {
                        // `cur` is on the current path → cycle from its
                        // first occurrence to the end of `path`.
                        let cycle_start = path
                            .iter()
                            .position(|&t| t == cur)
                            .expect("on-stack node is in path");
                        let victim = path[cycle_start..]
                            .iter()
                            .copied()
                            .max_by_key(|t: &GlobalTrxId| (t.node, t.trx))
                            .expect("cycle is non-empty");
                        victims.push(victim);
                    }
                    break;
                }
                visited.insert(cur, false);
                path.push(cur);
                match edges.get(&cur) {
                    Some(&next) => cur = next,
                    None => break,
                }
            }
            for t in path {
                visited.insert(t, true);
            }
        }

        for &victim in &victims {
            self.stats.deadlocks.inc();
            self.abort_waiter(victim);
        }
        victims
    }

    /// Wake `victim` with a deadlock verdict and remove its wait edge.
    fn abort_waiter(&self, victim: GlobalTrxId) {
        let Some(holder) = self.edges.lock().remove(&victim) else {
            return;
        };
        let mut waits = self.waits.lock();
        let Some(ws) = waits.get_mut(&holder) else {
            return;
        };
        let cells: Vec<Waiter> = ws.extract_if(.., |w| w.trx == victim).collect();
        if ws.is_empty() {
            waits.remove(&holder);
        }
        drop(waits);
        for w in cells {
            w.cell.signal(WaitOutcome::Victim);
        }
    }

    /// Test/diagnostic helpers.
    pub fn waiting_count(&self) -> usize {
        self.edges.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::{LatencyConfig, NodeId, SlotId, TrxId};
    use pmp_rdma::Fabric;
    use std::thread;
    use std::time::Duration;

    fn fusion() -> Arc<RLockFusion> {
        Arc::new(RLockFusion::new(Arc::new(ReplicatedFabric::single(
            Arc::new(Fabric::new(LatencyConfig::disabled())),
        ))))
    }

    fn gid(node: u16, trx: u64) -> GlobalTrxId {
        GlobalTrxId {
            node: NodeId(node),
            trx: TrxId(trx),
            slot: SlotId(trx as u32),
            version: 1,
        }
    }

    const T: Duration = Duration::from_secs(5);

    /// Block on a cell the way an engine thread does: poll, leave a waker,
    /// sleep until it fires or `timeout` passes (`None`).
    fn wait(cell: &WaitCell<WaitOutcome>, timeout: Duration) -> Option<WaitOutcome> {
        let (tx, rx) = std::sync::mpsc::channel();
        let verdict = cell.poll(Box::new(move || {
            let _ = tx.send(());
        }));
        verdict.or_else(|| {
            rx.recv_timeout(timeout).ok()?;
            cell.poll(Box::new(|| {}))
        })
    }

    #[test]
    fn commit_wakes_all_waiters() {
        let f = fusion();
        let holder = gid(1, 10);
        let w1 = f.register_wait(gid(2, 30), holder);
        let w2 = f.register_wait(gid(3, 40), holder);
        assert_eq!(f.waiting_count(), 2);

        let t1 = thread::spawn(move || wait(&w1, T));
        let t2 = thread::spawn(move || wait(&w2, T));
        thread::sleep(Duration::from_millis(20));
        f.notify_finished(holder);
        assert_eq!(t1.join().unwrap(), Some(WaitOutcome::Granted));
        assert_eq!(t2.join().unwrap(), Some(WaitOutcome::Granted));
        assert_eq!(f.waiting_count(), 0);
        assert_eq!(f.stats().wakeups.get(), 2);
    }

    #[test]
    fn wait_times_out_without_notification() {
        let f = fusion();
        let cell = f.register_wait(gid(2, 30), gid(1, 10));
        assert_eq!(wait(&cell, Duration::from_millis(30)), None);
        f.cancel_wait(gid(2, 30), gid(1, 10));
        assert_eq!(f.waiting_count(), 0);
    }

    #[test]
    fn notify_without_waiters_is_harmless() {
        let f = fusion();
        f.notify_finished(gid(1, 10));
        assert_eq!(f.stats().wakeups.get(), 0);
    }

    #[test]
    fn two_cycle_deadlock_aborts_youngest() {
        let f = fusion();
        let a = gid(1, 10);
        let b = gid(2, 99); // youngest by (node, trx)
        let wa = f.register_wait(a, b);
        let wb = f.register_wait(b, a);

        let victims = f.detect_once();
        assert_eq!(victims, vec![b]);
        assert_eq!(wait(&wb, T), Some(WaitOutcome::Victim));
        // The survivor keeps waiting (until its holder commits).
        assert_eq!(wait(&wa, Duration::from_millis(20)), None);
        assert_eq!(f.stats().deadlocks.get(), 1);
    }

    #[test]
    fn three_cycle_deadlock_detected() {
        let f = fusion();
        let a = gid(1, 1);
        let b = gid(2, 2);
        let c = gid(3, 3);
        f.register_wait(a, b);
        f.register_wait(b, c);
        let wc = f.register_wait(c, a);
        let victims = f.detect_once();
        assert_eq!(victims, vec![c]);
        assert_eq!(wait(&wc, T), Some(WaitOutcome::Victim));
    }

    #[test]
    fn chain_without_cycle_is_not_a_deadlock() {
        let f = fusion();
        f.register_wait(gid(1, 1), gid(2, 2));
        f.register_wait(gid(2, 2), gid(3, 3));
        assert!(f.detect_once().is_empty());
        assert_eq!(f.stats().deadlocks.get(), 0);
    }

    #[test]
    fn detection_is_stable_across_passes() {
        let f = fusion();
        let a = gid(1, 1);
        let b = gid(2, 2);
        f.register_wait(a, b);
        f.register_wait(b, a);
        let first = f.detect_once();
        assert_eq!(first.len(), 1);
        // The victim's edge was removed; no repeat verdicts.
        assert!(f.detect_once().is_empty());
    }

    #[test]
    fn signal_before_wait_is_not_lost() {
        let f = fusion();
        let holder = gid(1, 10);
        let cell = f.register_wait(gid(2, 30), holder);
        f.notify_finished(holder);
        assert_eq!(
            wait(&cell, Duration::from_millis(10)),
            Some(WaitOutcome::Granted)
        );
    }
}
