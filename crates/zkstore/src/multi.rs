//! Multi-operation (transaction) types.
//!
//! A `multi` applies a sequence of mutations atomically: either every
//! operation succeeds, or none is applied. DUFS relies on this for
//! `rename`: the old virtual path's znode is deleted and the new path's
//! znode is created with the *same* FID in one transaction, so no client can
//! observe a state where both or neither name exists (paper §III's
//! consistency hazard is exactly what this prevents).

use bytes::Bytes;

use crate::tree::{CreateMode, Stat};

/// One operation inside a multi transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiOp {
    /// Create a znode (same semantics as [`crate::DataTree::create`]).
    Create {
        /// Proposed znode path.
        path: String,
        /// Payload.
        data: Bytes,
        /// Create mode.
        mode: CreateMode,
    },
    /// Delete a znode, optionally only if its data version matches.
    Delete {
        /// Znode path.
        path: String,
        /// Expected data version, or `None` for unconditional.
        version: Option<u32>,
    },
    /// Replace a znode's data, optionally only if its version matches.
    SetData {
        /// Znode path.
        path: String,
        /// New payload.
        data: Bytes,
        /// Expected data version, or `None` for unconditional.
        version: Option<u32>,
    },
    /// Assert that a znode exists (and optionally has the given version)
    /// without modifying it.
    Check {
        /// Znode path.
        path: String,
        /// Expected data version, or `None` for existence-only.
        version: Option<u32>,
    },
}

impl MultiOp {
    /// The znode path the operation names.
    pub fn path(&self) -> &str {
        match self {
            MultiOp::Create { path, .. }
            | MultiOp::Delete { path, .. }
            | MultiOp::SetData { path, .. }
            | MultiOp::Check { path, .. } => path,
        }
    }
}

/// Per-operation result of a successful multi.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiResult {
    /// The created znode's actual path (differs from the requested path for
    /// sequential nodes).
    Created(String),
    /// The delete succeeded.
    Deleted,
    /// The set succeeded; the new stat.
    Set(Stat),
    /// The check passed.
    Checked,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_cloneable_and_comparable() {
        let op = MultiOp::Create {
            path: "/a".into(),
            data: Bytes::from_static(b"x"),
            mode: CreateMode::Persistent,
        };
        assert_eq!(op.clone(), op);
    }
}
