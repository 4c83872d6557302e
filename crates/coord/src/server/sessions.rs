//! Sessions whose clients are connected to this server.

use std::collections::HashMap;

use dufs_zab::PeerId;

use super::ClientId;
use crate::watch::WatchManager;

/// Session liveness window: a session silent for this long is expired and
/// its ephemerals deleted.
pub const SESSION_TIMEOUT_MS: u64 = 30_000;
/// How often each server sweeps its sessions for expiry.
pub const SESSION_SWEEP_MS: u64 = 5_000;

struct SessionInfo {
    client: ClientId,
    last_heard_ms: u64,
}

/// The sessions this server minted and still hears from.
///
/// Invariant: a session leaves the table once — closed by its replicated
/// `CloseSession`, or swept after [`SESSION_TIMEOUT_MS`] of silence — and
/// its client's watches leave with it ([`Sessions::remove`] is the only
/// way out short of a crash). Only a request refreshes `last_heard_ms`,
/// and only at the replica the session connected to.
pub(super) struct Sessions {
    sessions: HashMap<u64, SessionInfo>,
    next_session: u64,
}

impl Sessions {
    pub(super) fn new() -> Self {
        Sessions { sessions: HashMap::new(), next_session: 1 }
    }

    pub(super) fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Mint a session id (unique across the ensemble: the minting server's
    /// id rides in the high bits) for `client`, heard from now.
    pub(super) fn open(&mut self, me: PeerId, client: ClientId, now_ms: u64) -> u64 {
        let session = (u64::from(me.0) << 40) | self.next_session;
        self.next_session += 1;
        self.sessions.insert(session, SessionInfo { client, last_heard_ms: now_ms });
        session
    }

    /// `session` (if it is one of ours) just sent a request over `client`.
    pub(super) fn touch(&mut self, session: u64, client: ClientId, now_ms: u64) {
        if let Some(info) = self.sessions.get_mut(&session) {
            info.last_heard_ms = now_ms;
            info.client = client;
        }
    }

    /// The sessions silent for longer than [`SESSION_TIMEOUT_MS`].
    pub(super) fn expired(&self, now_ms: u64) -> Vec<u64> {
        self.sessions
            .iter()
            .filter(|(_, info)| now_ms.saturating_sub(info.last_heard_ms) > SESSION_TIMEOUT_MS)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Forget `session` and drop the watches its client left behind; a
    /// no-op for one already gone (swept here, closed by the log later).
    pub(super) fn remove(&mut self, session: u64, watches: &mut WatchManager<ClientId>) {
        if let Some(info) = self.sessions.remove(&session) {
            watches.drop_client(info.client);
        }
    }

    /// Crash: connections are gone. (The id counter survives with the
    /// in-memory log its ids are visible in.)
    pub(super) fn reset(&mut self) {
        self.sessions.clear();
    }

    /// Restart from a recovered log: never re-mint an id visible in it.
    pub(super) fn resume_from(&mut self, next_session: u64) {
        self.next_session = next_session;
    }
}

/// The per-server counter bits of a session id minted by `me`, or `None`
/// for another server's session.
pub(super) fn minted_by(me: PeerId, session: u64) -> Option<u64> {
    (session >> 40 == u64::from(me.0)).then_some(session & ((1 << 40) - 1))
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use dufs_zkstore::CreateMode;

    use super::super::tests::{req, single};
    use super::super::{CoordTimer, ServerIn, ServerOut};
    use super::*;
    use crate::api::{ZkRequest, ZkResponse};

    /// A swept session leaves the table once — one replicated close, not
    /// one per sweep — and its client's watches leave with it.
    #[test]
    fn a_swept_session_is_removed_once_and_its_watches_dropped() {
        let mut s = single();
        let ZkResponse::Connected { session } = req(&mut s, 0, ZkRequest::Connect) else {
            panic!()
        };
        let create = |path: &str| ZkRequest::Create {
            path: path.into(),
            data: Bytes::new(),
            mode: CreateMode::Persistent,
        };
        req(&mut s, session, create("/w"));
        req(&mut s, session, ZkRequest::GetData { path: "/w".into(), watch: true });
        let applied = s.applied_count();
        let later_ns = (SESSION_TIMEOUT_MS + SESSION_SWEEP_MS) * 1_000_000 + 1_000_000;
        let _ = s.handle(later_ns, ServerIn::Timer(CoordTimer::SessionSweep));
        assert_eq!(s.session_count(), 0);
        assert_eq!(s.applied_count(), applied + 1, "one close replicated for it");
        let _ = s.handle(2 * later_ns, ServerIn::Timer(CoordTimer::SessionSweep));
        assert_eq!(s.applied_count(), applied + 1, "the next sweep finds nothing to close");
        // The watch the session's client left on /w went with the session.
        let set = ZkRequest::SetData { path: "/w".into(), data: Bytes::new(), version: None };
        let out =
            s.handle(2 * later_ns, ServerIn::Client { client: 2, req_id: 1, session: 0, req: set });
        assert!(!out.iter().any(|o| matches!(o, ServerOut::Watch { .. })), "{out:?}");
    }

    #[test]
    fn only_silent_sessions_expire_and_removal_is_idempotent() {
        let mut watches = WatchManager::new();
        let mut t = Sessions::new();
        let quiet = t.open(PeerId(2), 7, 0);
        let busy = t.open(PeerId(2), 8, 0);
        assert_eq!(minted_by(PeerId(2), quiet), Some(1));
        assert_eq!(minted_by(PeerId(1), busy), None);
        t.touch(busy, 9, SESSION_TIMEOUT_MS);
        assert_eq!(t.expired(SESSION_TIMEOUT_MS), [], "exactly the timeout is not yet over it");
        assert_eq!(t.expired(SESSION_TIMEOUT_MS + 1), [quiet]);
        watches.register("/a", crate::watch::WatchKind::Data, 7);
        watches.register("/b", crate::watch::WatchKind::Data, 9);
        t.remove(quiet, &mut watches);
        assert_eq!((t.len(), watches.len()), (1, 1));
        t.remove(quiet, &mut watches);
        assert_eq!((t.len(), watches.len()), (1, 1), "a second removal touches nothing");
        // The watches follow the session to the connection it last used.
        t.remove(busy, &mut watches);
        assert_eq!((t.len(), watches.len()), (0, 0));
    }

    #[test]
    fn close_session_reaps_ephemerals() {
        let mut s = single();
        let ZkResponse::Connected { session } = req(&mut s, 0, ZkRequest::Connect) else {
            panic!()
        };
        req(
            &mut s,
            session,
            ZkRequest::Create {
                path: "/e".into(),
                data: Bytes::new(),
                mode: CreateMode::Ephemeral,
            },
        );
        assert!(matches!(
            req(&mut s, session, ZkRequest::Exists { path: "/e".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
        assert_eq!(req(&mut s, session, ZkRequest::CloseSession), ZkResponse::Closed);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/e".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
        assert_eq!(s.session_count(), 0);
    }

    #[test]
    fn session_expiry_sweep_closes_silent_sessions() {
        let mut s = single();
        let ZkResponse::Connected { session } = req(&mut s, 0, ZkRequest::Connect) else {
            panic!()
        };
        req(
            &mut s,
            session,
            ZkRequest::Create {
                path: "/e".into(),
                data: Bytes::new(),
                mode: CreateMode::Ephemeral,
            },
        );
        // Sweep long after the session timeout with no traffic.
        let later_ns = (SESSION_TIMEOUT_MS + 10_000) * 1_000_000 + 1_000_000;
        let _ = s.handle(later_ns, ServerIn::Timer(CoordTimer::SessionSweep));
        assert_eq!(s.session_count(), 0);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/e".into(), watch: false }),
            ZkResponse::ExistsResult(None),
            "expired session's ephemeral was deleted"
        );
    }
}
