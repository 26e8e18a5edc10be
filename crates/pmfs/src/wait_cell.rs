//! The waiter cell behind every wait Lock Fusion arbitrates — a queued PLock
//! request ([`crate::plock::PendingGrant`]) and a registered row-lock wait
//! ([`crate::rlock::RLockFusion::register_wait`]) alike: a verdict plus a
//! one-shot waker. Lock Fusion records the verdict; the waiter polls it and
//! leaves a waker behind while there is none. How the waiter sleeps in
//! between, and for how long, is the waiter's business.

use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedMutex};

/// A leaf: set, polled and fired with nothing acquired under it.
const WAIT_CELL: LockClass = LockClass::new("pmfs.wait_cell");

/// What a waiter leaves in a cell; it may run the woken transaction inline.
pub type WakeFn = Box<dyn FnOnce() + Send>;

struct CellState<V> {
    verdict: Option<V>,
    waker: Option<WakeFn>,
}

pub struct WaitCell<V> {
    state: TrackedMutex<CellState<V>>,
}

impl<V: Copy> WaitCell<V> {
    pub(crate) fn new() -> Arc<Self> {
        let (verdict, waker) = (None, None);
        Arc::new(WaitCell {
            state: TrackedMutex::new(WAIT_CELL, CellState { verdict, waker }),
        })
    }

    /// Record the verdict (the first one stands) and hand back the waker it
    /// releases, for the caller to fire once it holds no lock.
    #[must_use = "the waiter sleeps until the returned waker is fired"]
    pub(crate) fn set(&self, verdict: V) -> Option<WakeFn> {
        let mut st = self.state.lock();
        if st.verdict.is_some() {
            return None;
        }
        st.verdict = Some(verdict);
        st.waker.take()
    }

    /// [`set`](Self::set) by a caller that holds no lock.
    pub(crate) fn signal(&self, verdict: V) {
        if let Some(wake) = self.set(verdict) {
            wake();
        }
    }

    /// The verdict, if it has landed.
    pub fn verdict(&self) -> Option<V> {
        self.state.lock().verdict
    }

    /// The verdict, if it has landed; otherwise `waker` replaces whatever
    /// waker was registered and fires when it does.
    pub fn poll(&self, waker: WakeFn) -> Option<V> {
        let mut st = self.state.lock();
        if st.verdict.is_none() {
            st.waker = Some(waker);
        }
        st.verdict
    }
}
