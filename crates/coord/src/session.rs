//! [`CoordService`] — the one session trait every client layer is written
//! against (`Dufs`, the `dufs-cache` wrapper, the live mdtest driver).
//!
//! A session is "send one [`ZkRequest`], get one [`ZkResponse`]" plus a
//! watch drain. Everything else on the trait is the **per-connection
//! freshness surface** the cache's lease protocol needs — how many server
//! connections sit behind the session, which one serves a given read, and
//! for each connection: has it moved, does it owe a barrier, can it grant a
//! lease. Every hook has a default describing *one connection that never
//! moves and grants nothing*, so an implementation that only writes
//! `request` (a test double, an in-process server) behaves exactly as a
//! plain request pipe and a cache in front of it issues no barrier, ping or
//! lease traffic of its own.
//!
//! Implementations: [`ZkClient`] over any [`ClientTransport`] (here),
//! [`crate::ShardedClient`] (one connection per shard, in
//! [`crate::sharded`]), `dufs_core::services::SoloCoord`, and
//! `dufs_cache::Cached<S>` (which consumes the hooks and keeps the
//! defaults for itself: it owns freshness).

use dufs_zkstore::ZkError;

use crate::api::{LeaseGrant, ReadConsistency, ZkRequest, ZkResponse};
use crate::runtime::{ClientTransport, ZkClient};
use crate::watch::WatchNotification;

/// The coordination-service connection a DUFS client holds.
pub trait CoordService {
    /// Issue one synchronous request. Reads are served at the session's
    /// [`ReadConsistency`]; `Sync` is a strict barrier on every connection
    /// (owed or not), after which none of them owes one.
    fn request(&mut self, req: ZkRequest) -> ZkResponse;

    /// Watch notifications that arrived since the last drain (used by the
    /// caching layer for invalidation). Default: none.
    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        Vec::new()
    }

    /// Number of server connections behind this session (one per shard).
    fn connections(&self) -> usize {
        1
    }

    /// Index of the connection that serves the read `req`: the one whose
    /// watches guard the reply and whose freshness licenses it. A listing
    /// whose connection differs from that of an `Exists` on the same path
    /// (a sharded directory: children on one shard, the node on another)
    /// may come back *empty on the node connection's word* — nothing was
    /// ever created under the directory, so only the node's own shard
    /// knows it. No single connection guards such a reply, so a cache
    /// licenses both connections and does not keep it.
    fn connection_of(&self, _req: &ZkRequest) -> usize {
        0
    }

    /// Monotone count of times connection `conn` switched or re-established
    /// its server link (see [`ClientTransport::reconnects`]).
    fn reconnects(&self, _conn: usize) -> u64 {
        0
    }

    /// Whether connection `conn` owes a barrier (see [`ZkClient::is_dirty`]).
    fn is_dirty(&self, _conn: usize) -> bool {
        false
    }

    /// The read-recency level this session provides.
    fn consistency(&self) -> ReadConsistency {
        ReadConsistency::Local
    }

    /// Change the read-recency level (a wrapper that takes over barriers
    /// downgrades the session to `Local`). Default: nothing to change.
    fn set_consistency(&mut self, _consistency: ReadConsistency) {}

    /// Newest lease grant the server pushed unsolicited on `conn`, if any.
    fn pushed_lease(&mut self, _conn: usize) -> Option<LeaseGrant> {
        None
    }

    /// Liveness ping on `conn` that collects the replica's staleness lease
    /// when it can grant one. Default: alive, grants nothing.
    fn ping_lease(&mut self, _conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
        Ok(None)
    }

    /// Barrier on `conn`, riding an in-flight no-op when that is safe
    /// (see [`ZkClient::sync_coalesced`]); returns whether it coalesced.
    fn sync_coalesced(&mut self, _conn: usize) -> Result<bool, ZkError> {
        Ok(false)
    }

    /// Routing epoch: moves when [`CoordService::connection_of`] may answer
    /// differently for the same path (a shard-layout change).
    fn epoch(&self) -> u64 {
        0
    }
}

impl<T: ClientTransport> CoordService for ZkClient<T> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        match req {
            // Through the barrier bookkeeping, so the session stops owing.
            ZkRequest::Sync { coalesce } => {
                let synced = if coalesce {
                    ZkClient::sync_coalesced(self)
                } else {
                    self.sync().map(|zxid| (zxid, false))
                };
                synced.map_or_else(ZkResponse::Error, |(zxid, coalesced)| ZkResponse::Synced {
                    zxid,
                    coalesced,
                })
            }
            ZkRequest::Ping => ZkClient::request(self, req),
            read if read.is_read() => self.read_request(read),
            other => ZkClient::request(self, other),
        }
    }

    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        std::iter::from_fn(|| self.take_watch()).collect()
    }

    fn reconnects(&self, _conn: usize) -> u64 {
        ZkClient::reconnects(self)
    }

    fn is_dirty(&self, _conn: usize) -> bool {
        ZkClient::is_dirty(self)
    }

    fn consistency(&self) -> ReadConsistency {
        ZkClient::consistency(self)
    }

    fn set_consistency(&mut self, consistency: ReadConsistency) {
        ZkClient::set_consistency(self, consistency);
    }

    fn pushed_lease(&mut self, _conn: usize) -> Option<LeaseGrant> {
        ZkClient::pushed_lease(self)
    }

    fn ping_lease(&mut self, _conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
        ZkClient::ping_lease(self).map(|(_, lease)| lease)
    }

    fn sync_coalesced(&mut self, _conn: usize) -> Result<bool, ZkError> {
        ZkClient::sync_coalesced(self).map(|(_, coalesced)| coalesced)
    }
}
