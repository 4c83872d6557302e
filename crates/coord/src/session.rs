//! [`CoordService`] — the one session trait every client layer is written
//! against (`Dufs`, the `dufs-cache` wrapper, the live mdtest driver).
//!
//! A session is "send one [`ZkRequest`], get one [`ZkResponse`]" plus a
//! watch drain. The typed `zoo_*` calls (`create`, `get_data`, `multi`, …)
//! are provided methods written once over `request`, so every session —
//! a test double that writes only `request` included — speaks the same
//! typed API with the same signatures. Everything else on the trait is the
//! **per-connection freshness surface** the cache's lease protocol needs —
//! how many server connections sit behind the session, which one serves a
//! given read, and for each connection: has it moved, does it owe a
//! barrier, can it grant a lease — and the session's clock, which stamps
//! the cache's entries and leases. Every hook has a default describing *one
//! connection that never moves and grants nothing* on the wall clock, so an
//! implementation that only writes `request` (a test double, an in-process
//! server) behaves exactly as a plain request pipe and a cache in front of
//! it issues no barrier, ping or lease traffic of its own.
//!
//! Implementations: [`ZkClient`] over any [`ClientTransport`] (here),
//! [`crate::ShardedClient`] (one connection per shard, in
//! [`crate::sharded`]), `dufs_core::services::SoloCoord`, and
//! `dufs_cache::Cached<S>` (which consumes the hooks and keeps the
//! defaults for itself: it owns freshness).

use std::future::Future;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use bytes::Bytes;
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::api::{LeaseGrant, ReadConsistency, Watch, ZkRequest, ZkResponse};
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

    /// Liveness ping on `conn` that collects the replica's staleness lease
    /// when it can grant one. Default: alive, grants nothing.
    fn ping_lease(&mut self, _conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
        Ok(None)
    }

    /// Strict barrier on `conn` alone (see [`ZkClient::sync`]): a no-op of
    /// its own through that connection's ensemble, after which `conn` owes
    /// nothing. Default: nothing to barrier.
    fn barrier(&mut self, _conn: usize) -> Result<(), ZkError> {
        Ok(())
    }

    /// The session's clock: what a cache stamps its entries and leases
    /// with. Default: the wall clock.
    fn now(&self) -> Instant {
        Instant::now()
    }

    /// `zoo_create`: returns the actual created path.
    fn create(&mut self, path: &str, data: Bytes, mode: CreateMode) -> Result<String, ZkError> {
        match self.request(ZkRequest::Create { path: path.into(), data, mode }) {
            ZkResponse::Created { path } => Ok(path),
            r => Err(failure(r)),
        }
    }

    /// Create with missing-ancestor materialization (`mkdir -p` for the
    /// parent chain) — the create a sharded session sends for every
    /// create, since a shard owns a path without necessarily owning its
    /// ancestors.
    fn create_path(
        &mut self,
        path: &str,
        data: Bytes,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        match self.request(ZkRequest::CreatePath { path: path.into(), data, mode }) {
            ZkResponse::Created { path } => Ok(path),
            r => Err(failure(r)),
        }
    }

    /// `zoo_delete` (optionally version-checked).
    fn delete(&mut self, path: &str, version: Option<u32>) -> Result<(), ZkError> {
        match self.request(ZkRequest::Delete { path: path.into(), version }) {
            ZkResponse::Deleted => Ok(()),
            r => Err(failure(r)),
        }
    }

    /// `zoo_set` (optionally version-checked).
    fn set_data(&mut self, path: &str, data: Bytes, version: Option<u32>) -> Result<Stat, ZkError> {
        match self.request(ZkRequest::SetData { path: path.into(), data, version }) {
            ZkResponse::Stat(stat) => Ok(stat),
            r => Err(failure(r)),
        }
    }

    /// `zoo_get`.
    fn get_data(&mut self, path: &str, watch: Watch) -> Result<(Bytes, Stat), ZkError> {
        match self.request(ZkRequest::GetData { path: path.into(), watch: watch.is_set() }) {
            ZkResponse::Data { data, stat } => Ok((data, stat)),
            r => Err(failure(r)),
        }
    }

    /// `zoo_exists`: the stat, `None` if absent.
    fn exists(&mut self, path: &str, watch: Watch) -> Result<Option<Stat>, ZkError> {
        match self.request(ZkRequest::Exists { path: path.into(), watch: watch.is_set() }) {
            ZkResponse::ExistsResult(stat) => Ok(stat),
            r => Err(failure(r)),
        }
    }

    /// `zoo_get_children`: the sorted names and the directory's stat.
    fn get_children(&mut self, path: &str, watch: Watch) -> Result<(Vec<String>, Stat), ZkError> {
        match self.request(ZkRequest::GetChildren { path: path.into(), watch: watch.is_set() }) {
            ZkResponse::Children { names, stat } => Ok((names, stat)),
            r => Err(failure(r)),
        }
    }

    /// Batched listing: children plus each child's data and stat in one
    /// round trip (the primitive behind DUFS `readdir_plus`).
    fn get_children_data(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        match self.request(ZkRequest::GetChildrenData { path: path.into() }) {
            ZkResponse::ChildrenData { entries } => Ok(entries),
            r => Err(failure(r)),
        }
    }

    /// Atomic multi-op transaction: one result per op, in order.
    fn multi(&mut self, ops: Vec<MultiOp>) -> Result<Vec<MultiResult>, ZkError> {
        match self.request(ZkRequest::Multi { ops }) {
            ZkResponse::MultiResults(results) => Ok(results),
            r => Err(failure(r)),
        }
    }

    /// Strict barrier on every connection; returns the barrier's zxid.
    fn sync(&mut self) -> Result<u64, ZkError> {
        match self.request(ZkRequest::Sync) {
            ZkResponse::Synced { zxid } => Ok(zxid),
            r => Err(failure(r)),
        }
    }
}

/// The error a reply of the wrong kind stands for: its own, or
/// `ConnectionLoss` when it carries none.
pub(crate) fn failure(resp: ZkResponse) -> ZkError {
    resp.err().unwrap_or(ZkError::ConnectionLoss)
}

/// Poll a protocol future (`sharded::route`, `dufs_core::plan::run`) once,
/// with a no-op waker: no io wakes a protocol, its host polls again once
/// the reply it waits for is in.
pub fn poll_once<F: Future + ?Sized>(fut: Pin<&mut F>) -> Poll<F::Output> {
    fut.poll(&mut Context::from_waker(Waker::noop()))
}

/// Run a protocol future over an io that answers every call at once — a
/// live session, a back-end set — to its output, in one poll.
///
/// # Panics
/// If the future is pending: its io waited, which a live io never does.
pub fn ready<F: Future>(fut: F) -> F::Output {
    match poll_once(pin!(fut)) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a live io left its protocol pending"),
    }
}

impl<T: ClientTransport> CoordService for ZkClient<T> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        match req {
            // Through the barrier bookkeeping, so the session stops owing.
            ZkRequest::Sync => ZkClient::sync(self)
                .map_or_else(ZkResponse::Error, |zxid| ZkResponse::Synced { zxid }),
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

    fn ping_lease(&mut self, _conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
        ZkClient::ping_lease(self).map(|(_, lease)| lease)
    }

    fn barrier(&mut self, _conn: usize) -> Result<(), ZkError> {
        ZkClient::sync(self).map(drop)
    }

    fn now(&self) -> Instant {
        self.transport().now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session that writes only `request`: answers each request kind
    /// with `reply`.
    struct Canned(fn(&ZkRequest) -> ZkResponse);

    impl CoordService for Canned {
        fn request(&mut self, req: ZkRequest) -> ZkResponse {
            (self.0)(&req)
        }
    }

    fn stat(version: u32) -> Stat {
        Stat { version, ..Stat::default() }
    }

    fn typed_answer(req: &ZkRequest) -> ZkResponse {
        match req {
            ZkRequest::Create { path, .. } | ZkRequest::CreatePath { path, .. } => {
                ZkResponse::Created { path: format!("{path}0001") }
            }
            ZkRequest::Delete { .. } => ZkResponse::Deleted,
            ZkRequest::SetData { .. } => ZkResponse::Stat(stat(2)),
            ZkRequest::GetData { watch, .. } => {
                ZkResponse::Data { data: Bytes::from_static(b"d"), stat: stat(u32::from(*watch)) }
            }
            ZkRequest::Exists { .. } => ZkResponse::ExistsResult(Some(stat(3))),
            ZkRequest::GetChildren { .. } => {
                ZkResponse::Children { names: vec!["a".into()], stat: stat(4) }
            }
            ZkRequest::GetChildrenData { .. } => {
                ZkResponse::ChildrenData { entries: vec![("a".into(), Bytes::new(), stat(5))] }
            }
            ZkRequest::Multi { ops } => {
                ZkResponse::MultiResults(ops.iter().map(|_| MultiResult::Deleted).collect())
            }
            ZkRequest::Sync => ZkResponse::Synced { zxid: 9 },
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn a_request_only_session_gets_every_typed_call() {
        let mut s = Canned(typed_answer);
        let mode = CreateMode::PersistentSequential;
        assert_eq!(s.create("/c", Bytes::new(), mode), Ok("/c0001".into()));
        assert_eq!(s.create_path("/a/b", Bytes::new(), mode), Ok("/a/b0001".into()));
        assert_eq!(s.delete("/c", None), Ok(()));
        assert_eq!(s.set_data("/c", Bytes::new(), Some(1)), Ok(stat(2)));
        assert_eq!(s.get_data("/c", Watch::Set), Ok((Bytes::from_static(b"d"), stat(1))));
        assert_eq!(s.exists("/c", Watch::None), Ok(Some(stat(3))));
        assert_eq!(s.get_children("/", Watch::None), Ok((vec!["a".into()], stat(4))));
        assert_eq!(s.get_children_data("/"), Ok(vec![("a".into(), Bytes::new(), stat(5))]));
        let ops = vec![MultiOp::Delete { path: "/c".into(), version: None }];
        assert_eq!(s.multi(ops), Ok(vec![MultiResult::Deleted]));
        assert_eq!(s.sync(), Ok(9));
    }

    #[test]
    fn an_error_reply_is_its_error_and_a_wrong_kind_is_connection_loss() {
        let mut s = Canned(|_| ZkResponse::Error(ZkError::NoNode));
        assert_eq!(s.get_data("/x", Watch::None), Err(ZkError::NoNode));
        assert_eq!(s.delete("/x", None), Err(ZkError::NoNode));
        let mut s = Canned(|_| ZkResponse::Deleted);
        assert_eq!(s.exists("/x", Watch::None), Err(ZkError::ConnectionLoss));
        assert_eq!(s.sync(), Err(ZkError::ConnectionLoss));
    }
}
