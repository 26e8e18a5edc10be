//! Error types shared across the whole system.

use std::fmt;

use crate::ids::{GlobalTrxId, NodeId, PageId, TableId};
use crate::timestamp::Lsn;

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, PmpError>;

/// All the ways an operation can fail across the cluster.
///
/// The variants map to the failure modes discussed in the paper: deadlock
/// victims (§4.3.2), OCC write-conflict aborts surfaced as deadlock errors by
/// Aurora-MM (§2.3), node crashes (§5.5) and shared-storage I/O problems.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PmpError {
    /// The transaction was chosen as a deadlock victim and rolled back.
    Deadlock { victim: GlobalTrxId },
    /// Optimistic concurrency control detected a conflicting write at commit
    /// time (Aurora-MM reports this to applications as a deadlock error).
    WriteConflict { page: PageId },
    /// The transaction was rolled back for a reason other than deadlock
    /// (e.g. explicit rollback after a failed statement).
    Aborted { reason: String },
    /// The target node has crashed (or was shut down) and cannot serve the
    /// request until it is restarted and recovered.
    NodeUnavailable { node: NodeId },
    /// A lock wait exceeded the configured timeout.
    LockWaitTimeout,
    /// Referenced table does not exist in the catalog.
    UnknownTable { table: TableId },
    /// Primary-key lookup found no row.
    KeyNotFound,
    /// Attempt to insert a primary key that already exists.
    DuplicateKey,
    /// A shared-storage read/write failed (used by failure injection).
    StorageIo { detail: String },
    /// A log read asked for bytes below the stream's start: a storage
    /// checkpoint freed them, so a reader that still needed them must not
    /// be handed whatever comes next instead.
    LogTruncated { requested: Lsn, start: Lsn },
    /// The distributed buffer pool (or another PMFS component) is
    /// unavailable; callers fall back to shared storage.
    FusionUnavailable { detail: String },
    /// Invariant violation — always a bug in this reproduction.
    Internal { detail: String },
    /// Internal scheduler signal: the statement registered a waker and must
    /// be retried once the wait source fires. Never surfaces to applications;
    /// the async session actor re-runs the statement instead of reporting it.
    WouldBlock,
}

impl PmpError {
    pub fn internal(detail: impl Into<String>) -> Self {
        PmpError::Internal {
            detail: detail.into(),
        }
    }

    pub fn aborted(reason: impl Into<String>) -> Self {
        PmpError::Aborted {
            reason: reason.into(),
        }
    }

    /// True for errors an application is expected to handle by retrying the
    /// transaction (the class Aurora-MM pushes onto its users, §2.3).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PmpError::Deadlock { .. } | PmpError::WriteConflict { .. } | PmpError::LockWaitTimeout
        )
    }
}

impl fmt::Display for PmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmpError::Deadlock { victim } => write!(f, "deadlock detected; victim {victim}"),
            PmpError::WriteConflict { page } => {
                write!(f, "optimistic write conflict on {page}")
            }
            PmpError::Aborted { reason } => write!(f, "transaction aborted: {reason}"),
            PmpError::NodeUnavailable { node } => write!(f, "{node} is unavailable"),
            PmpError::LockWaitTimeout => write!(f, "lock wait timeout exceeded"),
            PmpError::UnknownTable { table } => write!(f, "unknown {table}"),
            PmpError::KeyNotFound => write!(f, "key not found"),
            PmpError::DuplicateKey => write!(f, "duplicate primary key"),
            PmpError::StorageIo { detail } => write!(f, "storage I/O error: {detail}"),
            PmpError::LogTruncated { requested, start } => {
                write!(
                    f,
                    "log read at {requested} is below the stream's start {start}"
                )
            }
            PmpError::FusionUnavailable { detail } => {
                write!(f, "fusion service unavailable: {detail}")
            }
            PmpError::Internal { detail } => write!(f, "internal invariant violated: {detail}"),
            PmpError::WouldBlock => {
                write!(f, "operation would block (internal scheduler signal)")
            }
        }
    }
}

impl std::error::Error for PmpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(PmpError::Deadlock {
            victim: GlobalTrxId::NONE
        }
        .is_retryable());
        assert!(PmpError::WriteConflict { page: PageId(1) }.is_retryable());
        assert!(PmpError::LockWaitTimeout.is_retryable());
        assert!(!PmpError::KeyNotFound.is_retryable());
        assert!(!PmpError::internal("x").is_retryable());
        assert!(!PmpError::NodeUnavailable { node: NodeId(1) }.is_retryable());
        assert!(!PmpError::WouldBlock.is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = PmpError::WriteConflict { page: PageId(3) };
        assert!(e.to_string().contains("page-3"));
        let e = PmpError::aborted("user rollback");
        assert!(e.to_string().contains("user rollback"));
    }
}
