//! The client-visible request/response API — the synchronous ZooKeeper API
//! surface the DUFS prototype is built on (`zoo_create`, `zoo_get`,
//! `zoo_set`, `zoo_delete`, `zoo_get_children`, `zoo_exists`, multi, sync).

use bytes::Bytes;

use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

/// Whether a read should leave a one-shot watch behind — the typed form of
/// ZooKeeper's `watch` flag, taken by [`crate::ZkClient::get_data`],
/// [`crate::ZkClient::exists`] and [`crate::ZkClient::get_children`] so
/// read options compose with [`ReadConsistency`] instead of accumulating
/// bare booleans. (On the wire it still travels as the classic one byte.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Watch {
    /// Plain read; no watch registered.
    #[default]
    None,
    /// Register a one-shot watch at the serving replica.
    Set,
}

impl Watch {
    /// The wire/bool form.
    pub fn is_set(self) -> bool {
        matches!(self, Watch::Set)
    }
}

impl From<bool> for Watch {
    fn from(set: bool) -> Self {
        if set {
            Watch::Set
        } else {
            Watch::None
        }
    }
}

/// How strongly a [`crate::ZkClient`]'s reads are ordered against writes.
///
/// Every replica serves reads from its own committed tree (the paper's read
/// scale-out property, Fig 7d), which is *sequentially consistent*: a
/// replica may lag the leader, so a freshly-acked write by *another* client
/// — or by this client before a failover to a lagging replica — may not be
/// visible yet. The levels trade read latency for recency:
///
/// | Level | Barrier | Guarantee |
/// |-------|---------|-----------|
/// | `Local` | never | sequential consistency only |
/// | `SyncThenLocal` | after a write whose ack was not collected on this connection / reconnects | read-your-writes |
/// | `Linearizable` | before every read | real-time ordering |
///
/// The barrier is [`crate::ZkClient::sync`]: a no-op proposal through ZAB
/// whose response proves this replica has applied everything committed
/// before the barrier was issued. An *acked* write needs none: a write's
/// reply leaves only the replica the session is connected to, and only
/// after that replica applied it, so later reads on the same connection
/// already see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadConsistency {
    /// Serve reads straight from the connected replica — fastest, may be
    /// stale. ZooKeeper's default behaviour.
    #[default]
    Local,
    /// `sync` before a read whenever a barrier is owed: a write of this
    /// client ended with its outcome unknown (abandoned on a transient
    /// error, retried across a reconnect, or still pipelined), or the client
    /// switched replica since its last barrier. Local reads, upgraded to
    /// read-your-writes exactly when staleness could be observed.
    SyncThenLocal,
    /// `sync` before *every* read: each read reflects all writes committed
    /// before it was issued, at one ZAB round of extra latency.
    Linearizable,
}

/// Options for opening a client session against a cluster —
/// `ThreadCluster::client` and `TcpCluster::client` take the same struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientOptions {
    /// Index of the member the session first connects to.
    pub server: usize,
    /// Fail over to the other members when that server dies; `false` pins
    /// the session (a dead server then surfaces as `ConnectionLoss`).
    pub failover: bool,
    /// Read-recency level for this session's read methods.
    pub consistency: ReadConsistency,
}

impl ClientOptions {
    /// A session pinned to member `server` with [`ReadConsistency::Local`]
    /// reads — the common test shape.
    pub fn at(server: usize) -> Self {
        ClientOptions { server, ..Default::default() }
    }

    /// Enable failover across the whole ensemble (starting at `server`).
    pub fn with_failover(mut self) -> Self {
        self.failover = true;
        self
    }

    /// Select the read-recency level.
    pub fn with_consistency(mut self, consistency: ReadConsistency) -> Self {
        self.consistency = consistency;
        self
    }
}

/// A staleness lease granted by a replica to a client session.
///
/// While a lease holds (and the session's connection is unchanged since the
/// grant), the replica promises it is at most `LEASE_MS` behind the
/// cluster's committed state: the grant is only issued while the replica
/// holds evidence, younger than the lease window, that its leader still
/// commanded a quorum — which bounds how much committed-but-unseen history
/// can exist. A cached `SyncThenLocal` read may therefore skip its `sync`
/// barrier for the lease's remaining `ttl_ms` and still never observe data
/// staler than the lease bound. `epoch` pins the grant to one leader reign;
/// clients discard grants across reconnects, and servers stop granting the
/// instant their quorum evidence goes stale, so correctness never depends
/// on clocks beyond the bound itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// Remaining validity, in real (undilated) milliseconds, measured from
    /// receipt. Conservatively decayed at every hop.
    pub ttl_ms: u32,
    /// ZAB epoch of the leader whose authority backs this grant.
    pub epoch: u32,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkRequest {
    /// Open a session (replicated, so every server can clean up the
    /// session's ephemerals if it dies).
    Connect,
    /// Close the session, deleting its ephemeral znodes.
    CloseSession,
    /// `zoo_create`.
    Create {
        /// Znode path.
        path: String,
        /// Payload (DUFS: node type byte + FID for files).
        data: Bytes,
        /// Create mode.
        mode: CreateMode,
    },
    /// `zoo_delete`.
    Delete {
        /// Znode path.
        path: String,
        /// Conditional version.
        version: Option<u32>,
    },
    /// `zoo_set`.
    SetData {
        /// Znode path.
        path: String,
        /// New payload.
        data: Bytes,
        /// Conditional version.
        version: Option<u32>,
    },
    /// `zoo_get`, optionally leaving a data watch.
    GetData {
        /// Znode path.
        path: String,
        /// Register a one-shot data watch.
        watch: bool,
    },
    /// `zoo_exists`, optionally leaving an existence watch.
    Exists {
        /// Znode path.
        path: String,
        /// Register a one-shot existence watch.
        watch: bool,
    },
    /// `zoo_get_children`, optionally leaving a child watch.
    GetChildren {
        /// Znode path.
        path: String,
        /// Register a one-shot child watch.
        watch: bool,
    },
    /// Batched listing: the children of a znode together with each child's
    /// data and stat, in one round trip. ZooKeeper itself lacks this (one
    /// `zoo_get` per child is a classic `ls -l` pain point); DUFS's
    /// `readdir_plus` is built on it.
    GetChildrenData {
        /// Znode path.
        path: String,
    },
    /// READDIRPLUS-style bulk warm: like [`ZkRequest::GetChildrenData`] it
    /// returns the children of a znode with each child's data and stat in
    /// one round trip, but it *additionally* installs one-shot watches —
    /// a child watch on the parent and a data watch on every child — so a
    /// client cache can trust the whole listing without the N+1
    /// `get_children`-then-`get_data` loop it would otherwise need to leave
    /// watches behind.
    WarmChildren {
        /// Znode path of the directory to warm.
        path: String,
    },
    /// Atomic multi-op transaction.
    Multi {
        /// Operations, applied all-or-nothing.
        ops: Vec<MultiOp>,
    },
    /// Barrier: a no-op transaction proposed through ZAB. By total order,
    /// when it applies at the serving replica, that replica has applied
    /// everything committed before the barrier — so a subsequent local
    /// read observes all of it.
    Sync {
        /// Allow the server to satisfy this barrier by attaching it to a
        /// barrier proposal that is already in flight on the same replica
        /// (one no-op through ZAB answers every rider). Sound only while
        /// the session's connection has not changed since its last write
        /// ack: ack-implies-applied then guarantees the rider's own writes
        /// predate any open barrier. After a reconnect the client must
        /// send `coalesce: false` to force a fresh proposal.
        coalesce: bool,
    },
    /// Session liveness ping (also returns the server's applied zxid, which
    /// doubles as a cheap progress probe in tests, and — when the serving
    /// replica holds fresh lease authority — a staleness lease grant).
    Ping,
    /// Create with missing-ancestor materialization (`mkdir -p` semantics
    /// for the parent chain). The sharded client uses this for every
    /// create, since a shard owns a path without necessarily owning its
    /// ancestors.
    CreatePath {
        /// Znode path.
        path: String,
        /// Payload.
        data: Bytes,
        /// Create mode.
        mode: CreateMode,
    },
    /// Phase one of cross-shard 2PC: validate and fence this shard's slice
    /// of the transaction, durably parking the ops until a decision.
    TxnPrepare {
        /// Coordinator-chosen globally unique transaction id.
        txn_id: u64,
        /// This shard's slice of the transaction.
        ops: Vec<MultiOp>,
        /// Every shard participating in the transaction (ascending). Parked
        /// with the slice so a recovery agent that finds the marker knows
        /// which shards to drive the decision to.
        participants: Vec<u32>,
    },
    /// Commit decision for a prepared transaction (idempotent).
    TxnCommit {
        /// Transaction id.
        txn_id: u64,
    },
    /// Abort decision for a prepared transaction (idempotent).
    TxnAbort {
        /// Transaction id.
        txn_id: u64,
    },
}

impl ZkRequest {
    /// Read-only requests are served locally without touching the leader —
    /// the property behind ZooKeeper's read scaling (paper Fig 7d).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            ZkRequest::GetData { .. }
                | ZkRequest::Exists { .. }
                | ZkRequest::GetChildren { .. }
                | ZkRequest::GetChildrenData { .. }
                | ZkRequest::WarmChildren { .. }
                | ZkRequest::Ping
        )
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkResponse {
    /// Session established.
    Connected {
        /// The new session id.
        session: u64,
    },
    /// Session closed.
    Closed,
    /// Create succeeded; the actual path (sequential suffix included).
    Created {
        /// Actual znode path.
        path: String,
    },
    /// Delete succeeded.
    Deleted,
    /// SetData succeeded; the new stat.
    Stat(Stat),
    /// GetData result.
    Data {
        /// Payload.
        data: Bytes,
        /// Current stat.
        stat: Stat,
    },
    /// Exists result (`None` = no node; *not* an error, per ZooKeeper).
    ExistsResult(Option<Stat>),
    /// GetChildren result.
    Children {
        /// Sorted child names.
        names: Vec<String>,
        /// Parent stat.
        stat: Stat,
    },
    /// GetChildrenData result: each child with its payload and stat.
    ChildrenData {
        /// Sorted `(name, data, stat)` triples.
        entries: Vec<(String, Bytes, Stat)>,
    },
    /// WarmChildren result: the listing plus the parent's own stat (so a
    /// cache can install the children entry alongside the child data).
    /// Watches were installed server-side before this reply was sent.
    /// Client-side, [`crate::WarmedDir`] names this payload shape.
    WarmedChildren {
        /// Sorted `(name, data, stat)` triples.
        entries: Vec<(String, Bytes, Stat)>,
        /// Parent stat.
        stat: Stat,
    },
    /// Multi succeeded.
    MultiResults(Vec<MultiResult>),
    /// Sync complete; the zxid this server has applied up to.
    Synced {
        /// Applied zxid (raw form).
        zxid: u64,
        /// Whether this barrier rode an already-open proposal instead of
        /// paying for its own ZAB round (see [`ZkRequest::Sync`]).
        coalesced: bool,
    },
    /// Ping reply with the server's applied zxid.
    Pong {
        /// Applied zxid (raw form).
        zxid: u64,
        /// A staleness lease, when the serving replica holds fresh enough
        /// evidence of the leader's authority to grant one.
        lease: Option<LeaseGrant>,
    },
    /// TxnPrepare succeeded: the ops validated and their paths are fenced.
    Prepared,
    /// TxnCommit applied the prepared slice.
    Committed,
    /// TxnAbort discarded the prepared slice.
    Aborted,
    /// A decision arrived for a txn id this shard holds no prepared slice
    /// for: it was already decided here (or never prepared). Distinguishable
    /// from a real apply so recovery can tell "done" from "no-op".
    TxnUnknown,
    /// The request failed.
    Error(ZkError),
}

impl ZkResponse {
    /// Extract the error, if this is one.
    pub fn err(&self) -> Option<ZkError> {
        match self {
            ZkResponse::Error(e) => Some(*e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_classification() {
        assert!(ZkRequest::GetData { path: "/a".into(), watch: false }.is_read());
        assert!(ZkRequest::Exists { path: "/a".into(), watch: true }.is_read());
        assert!(ZkRequest::GetChildren { path: "/a".into(), watch: false }.is_read());
        assert!(ZkRequest::WarmChildren { path: "/a".into() }.is_read());
        assert!(ZkRequest::Ping.is_read());
        assert!(!ZkRequest::Sync { coalesce: false }.is_read(), "sync consults the leader");
        assert!(!ZkRequest::Sync { coalesce: true }.is_read(), "coalesced sync too");
        assert!(!ZkRequest::Create {
            path: "/a".into(),
            data: Bytes::new(),
            mode: CreateMode::Persistent
        }
        .is_read());
        assert!(!ZkRequest::Multi { ops: vec![] }.is_read());
    }

    #[test]
    fn watch_and_options_compose() {
        assert!(Watch::Set.is_set());
        assert!(!Watch::None.is_set());
        assert_eq!(Watch::from(true), Watch::Set);
        assert_eq!(Watch::default(), Watch::None);
        let opts =
            ClientOptions::at(2).with_failover().with_consistency(ReadConsistency::SyncThenLocal);
        assert_eq!(opts.server, 2);
        assert!(opts.failover);
        assert_eq!(opts.consistency, ReadConsistency::SyncThenLocal);
        assert_eq!(ClientOptions::default().consistency, ReadConsistency::Local);
    }

    #[test]
    fn response_err_extraction() {
        assert_eq!(ZkResponse::Error(ZkError::NoNode).err(), Some(ZkError::NoNode));
        assert_eq!(ZkResponse::Deleted.err(), None);
    }
}
