//! The synchronous client API the DUFS prototype uses (paper §IV-D: "The
//! synchronous ZooKeeper API were used"): [`ZkClient`], a session with one
//! request in flight and its retry and barrier rules, over a
//! [`ClientTransport`] that moves its requests and events and keeps its
//! clock. The typed `zoo_*` calls are [`CoordService`]'s, written once over
//! `request`. The live transport is [`crate::tcp::TcpTransport`]; the
//! performance figures use the deterministic simulator in `dufs-mdtest`
//! instead (same [`crate::CoordServer`] state machine, different driver).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_zkstore::{MultiOp, MultiResult, Stat, ZkError};

use crate::api::{ReadConsistency, Watch, ZkRequest, ZkResponse};
use crate::session::{failure, CoordService};
use crate::watch::WatchNotification;

/// Events delivered to a client handle.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// Response to a request.
    Resp {
        /// Echo of the request id.
        req_id: u64,
        /// The response.
        resp: ZkResponse,
    },
    /// An asynchronous watch notification.
    Watch(WatchNotification),
}

/// Snapshot of one server's state (test/diagnostic probe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatus {
    /// Whether this server is the established leader.
    pub is_leader: bool,
    /// Raw zxid applied up to.
    pub last_applied: u64,
    /// Raw zxid the replication layer has committed up to (may run ahead
    /// of `last_applied` while deliveries drain).
    pub committed: u64,
    /// Number of znodes in the local replica.
    pub node_count: usize,
    /// Content digest of the local replica.
    pub digest: u64,
    /// Whether the server is up: `false` from a crash until its restart.
    pub alive: bool,
}

/// How a [`ZkClient`] session reaches its server — live, a TCP connection
/// ([`crate::tcp::TcpTransport`]). The client logic — request ids, retry
/// policy, barriers — is transport-agnostic. A transport carries any number
/// of frames; the session sends one request and awaits its reply.
pub trait ClientTransport {
    /// Queue one request. An error means the link is down *right now*
    /// (dead server / dropped socket); the request was not delivered.
    fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError>;

    /// Await the next event from the server, up to `timeout`. `None` means
    /// nothing arrived (timeout or a link failure — the next `send` will
    /// surface the error / trigger a reconnect).
    fn recv(&mut self, timeout: Duration) -> Option<ClientEvent>;

    /// Called by [`ZkClient::request`]'s retry loop after a transient
    /// failure, before the next attempt. Transports with a failover list
    /// move to another server here; pinned transports do nothing.
    fn on_retry(&mut self) {}

    /// Monotone count of times this transport has switched or
    /// re-established its server connection. A change means subsequent
    /// requests may reach a *different* (possibly lagging) replica —
    /// [`ReadConsistency::SyncThenLocal`] re-barriers on it.
    fn reconnects(&self) -> u64 {
        0
    }

    /// The client's clock: request deadlines and the session's backoffs are
    /// read from here. Default: the wall clock.
    fn now(&self) -> Instant {
        Instant::now()
    }

    /// Wait out a backoff of `d` on this transport's clock. Default: block
    /// the calling thread.
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// The error in `resp` if it is one [`ZkClient::request`] retries; a write
/// that ends on one has an unknown outcome (it may still commit).
fn transient_err(resp: &ZkResponse) -> Option<ZkError> {
    resp.err().filter(|e| matches!(e, ZkError::ConnectionLoss | ZkError::Net | ZkError::TxnBusy))
}

/// Synchronous client handle: `request`, barriers and watches, one request
/// in flight at a time; the typed `zoo_*` calls come from its
/// [`CoordService`] impl. Generic over its [`ClientTransport`];
/// [`crate::tcp::TcpZkClient`] is this client over a real socket.
pub struct ZkClient<T: ClientTransport> {
    transport: T,
    session: u64,
    next_req: u64,
    timeout: Duration,
    watches: VecDeque<WatchNotification>,
    consistency: ReadConsistency,
    /// A barrier is owed: some write's outcome is unknown (abandoned on a
    /// transient error, or retried across a reconnect), so the serving
    /// replica may not have applied it yet. An *acked* write owes nothing —
    /// the origin replica replies only after applying, on a FIFO link.
    dirty: bool,
    /// Transport reconnect count at the last barrier; a change means we may
    /// now be talking to a different (possibly lagging) replica.
    seen_reconnects: u64,
}

impl<T: ClientTransport> ZkClient<T> {
    /// Wrap a transport and establish a session, retrying through
    /// elections and reconnects. No attempt starts more than 30 s (on the
    /// transport's clock) after the first, so a server that accepts the
    /// connection but never answers costs at most 30 s plus one request
    /// timeout.
    pub fn establish(transport: T) -> Result<Self, ZkError> {
        let mut c = ZkClient {
            transport,
            session: 0,
            next_req: 1,
            timeout: Duration::from_secs(5),
            watches: VecDeque::new(),
            consistency: ReadConsistency::Local,
            dirty: false,
            seen_reconnects: 0,
        };
        let deadline = c.transport.now() + Duration::from_secs(30);
        while c.transport.now() < deadline {
            if let ZkResponse::Connected { session } = c.raw_request(ZkRequest::Connect) {
                c.session = session;
                c.seen_reconnects = c.transport.reconnects();
                return Ok(c);
            }
            c.transport.on_retry();
            c.transport.sleep(Duration::from_millis(100));
        }
        Err(ZkError::ConnectionLoss)
    }

    /// Change this session's read-recency level (see [`ReadConsistency`]).
    pub fn set_consistency(&mut self, consistency: ReadConsistency) {
        self.consistency = consistency;
    }

    /// The session's current read-recency level.
    pub fn consistency(&self) -> ReadConsistency {
        self.consistency
    }

    /// This client's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Adjust the per-request timeout (default 5 s).
    pub fn set_timeout(&mut self, t: Duration) {
        self.timeout = t;
    }

    /// The underlying transport (diagnostics — e.g. TCP counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    fn raw_request(&mut self, req: ZkRequest) -> ZkResponse {
        let req_id = self.next_req;
        self.next_req += 1;
        if let Err(e) = self.transport.send(req_id, self.session, req) {
            return ZkResponse::Error(e);
        }
        // Any other response is stale, from a timed-out request.
        self.recv_until(self.timeout, |ev| match ev {
            ClientEvent::Resp { req_id: rid, resp } if rid == req_id => Ok(resp),
            ev => Err(ev),
        })
        .unwrap_or(ZkResponse::Error(ZkError::ConnectionLoss))
    }

    /// Take events off the transport until `pick` takes one (`Ok`) or
    /// `timeout` runs out (`None`, as does a failed link). A watch note
    /// `pick` hands back is buffered for `take_watch`; a response it hands
    /// back is dropped.
    fn recv_until<R>(
        &mut self,
        timeout: Duration,
        mut pick: impl FnMut(ClientEvent) -> Result<R, ClientEvent>,
    ) -> Option<R> {
        let deadline = self.transport.now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(self.transport.now());
            if left.is_zero() {
                return None;
            }
            match pick(self.transport.recv(left)?) {
                Ok(r) => return Some(r),
                Err(ClientEvent::Watch(n)) => self.watches.push_back(n),
                Err(ClientEvent::Resp { .. }) => {}
            }
        }
    }

    /// Issue a request, retrying on the transient errors —
    /// `ConnectionLoss` (elections in progress), `Net` (a dropped socket;
    /// the transport reconnects underneath) and `TxnBusy` (the path is
    /// fenced by a prepared cross-shard transaction whose decision should
    /// land within a round trip or two). Idempotence caveats are the
    /// caller's concern, as with real ZooKeeper.
    pub fn request(&mut self, req: ZkRequest) -> ZkResponse {
        // A write whose ack is collected on the connection it went out on
        // owes no barrier: the origin replica replies only after applying
        // it, replies travel one FIFO link and the replica is
        // single-threaded, so any later read on that link already sees it
        // (a definitive error such as `NodeExists` is ordered the same way).
        // Giving up, or a retry that crossed a reconnect, leaves the outcome
        // unknown — the barrier is owed until the next `sync`.
        let write = !req.is_read();
        let sent_rc = self.transport.reconnects();
        let mut last = ZkError::ConnectionLoss;
        for attempt in 0..8 {
            let resp = self.raw_request(req.clone());
            let Some(e) = transient_err(&resp) else {
                self.dirty |= write && self.transport.reconnects() != sent_rc;
                return resp;
            };
            last = e;
            self.transport.on_retry();
            self.transport.sleep(Duration::from_millis(50 << attempt.min(4)));
        }
        self.dirty |= write;
        ZkResponse::Error(last)
    }

    /// Issue a read at this session's [`ReadConsistency`] level, inserting
    /// a [`ZkClient::sync`] barrier when the level requires one. If the
    /// transport fails over mid-read, the answer may have come from a
    /// replica the barrier never covered — re-barrier and re-read.
    pub(crate) fn read_request(&mut self, req: ZkRequest) -> ZkResponse {
        if self.consistency == ReadConsistency::Local {
            return self.request(req);
        }
        let mut resp = ZkResponse::Error(ZkError::ConnectionLoss);
        for _ in 0..4 {
            let need = match self.consistency {
                ReadConsistency::Linearizable => true,
                ReadConsistency::SyncThenLocal => {
                    self.dirty || self.transport.reconnects() != self.seen_reconnects
                }
                ReadConsistency::Local => false,
            };
            if need {
                if let Err(e) = self.sync() {
                    return ZkResponse::Error(e);
                }
            }
            let rc = self.transport.reconnects();
            resp = self.request(req.clone());
            if self.transport.reconnects() == rc {
                return resp;
            }
        }
        resp
    }

    /// `zoo_get` ([`CoordService::get_data`]).
    pub fn get_data(&mut self, path: &str, watch: Watch) -> Result<(Bytes, Stat), ZkError> {
        CoordService::get_data(self, path, watch)
    }

    /// `zoo_exists` ([`CoordService::exists`]).
    pub fn exists(&mut self, path: &str, watch: Watch) -> Result<Option<Stat>, ZkError> {
        CoordService::exists(self, path, watch)
    }

    /// `zoo_get_children` ([`CoordService::get_children`]).
    pub fn get_children(
        &mut self,
        path: &str,
        watch: Watch,
    ) -> Result<(Vec<String>, Stat), ZkError> {
        CoordService::get_children(self, path, watch)
    }

    /// Batched listing ([`CoordService::get_children_data`]).
    pub fn get_children_data(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        CoordService::get_children_data(self, path)
    }

    /// READDIRPLUS bulk warm: the [`ZkClient::get_children_data`] listing
    /// plus the parent's stat, with one-shot watches installed server-side —
    /// a child watch on the parent and a data watch on every returned child
    /// — all in a single round trip. The caching layer builds its
    /// `warm_children` on this instead of the N+1 list-then-get loop.
    pub fn warm_children(&mut self, path: &str) -> Result<crate::WarmedDir, ZkError> {
        match self.read_request(ZkRequest::WarmChildren { path: path.into() }) {
            ZkResponse::WarmedChildren { entries, stat } => Ok((entries, stat)),
            r => Err(failure(r)),
        }
    }

    /// Atomic multi-op transaction ([`CoordService::multi`]).
    pub fn multi(&mut self, ops: Vec<MultiOp>) -> Result<Vec<MultiResult>, ZkError> {
        CoordService::multi(self, ops)
    }

    /// Barrier: propose a no-op of its own through ZAB and wait for the
    /// serving replica to apply it. When it returns, that replica has
    /// applied every write committed before the barrier was issued (total
    /// order), so subsequent local reads observe them all.
    pub fn sync(&mut self) -> Result<u64, ZkError> {
        match self.request(ZkRequest::Sync) {
            ZkResponse::Synced { zxid } => {
                // Reconnects only advance on send/on_retry, so reading the
                // counter after the response still describes the replica
                // that served it.
                self.dirty = false;
                self.seen_reconnects = self.transport.reconnects();
                Ok(zxid)
            }
            r => Err(failure(r)),
        }
    }

    /// Whether this session owes a barrier — the next `SyncThenLocal` read
    /// will be preceded by one. True while a write's outcome is unknown; an
    /// acked write owes nothing. The sharded client uses this to barrier
    /// only the shards that need it.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Liveness ping; returns the server's applied zxid.
    pub fn ping(&mut self) -> Result<u64, ZkError> {
        self.ping_lease().map(|(zxid, _)| zxid)
    }

    /// Liveness ping that also collects the replica's staleness lease, if
    /// it can grant one right now (see [`crate::api::LeaseGrant`]). The
    /// cache layer renews its lease through this.
    pub fn ping_lease(&mut self) -> Result<(u64, Option<crate::api::LeaseGrant>), ZkError> {
        match self.request(ZkRequest::Ping) {
            ZkResponse::Pong { zxid, lease } => Ok((zxid, lease)),
            r => Err(failure(r)),
        }
    }

    /// Monotone transport reconnect counter (see
    /// [`ClientTransport::reconnects`]); the cache layer invalidates
    /// wholesale whenever it moves.
    pub fn reconnects(&self) -> u64 {
        self.transport.reconnects()
    }

    /// Close the session (deleting its ephemerals).
    pub fn close(mut self) -> Result<(), ZkError> {
        match self.request(ZkRequest::CloseSession) {
            ZkResponse::Closed => Ok(()),
            r => Err(failure(r)),
        }
    }

    /// Pop a pending watch notification, if one arrived.
    pub fn take_watch(&mut self) -> Option<WatchNotification> {
        // Drain anything sitting in the transport first.
        while let Some(ev) = self.transport.recv(Duration::ZERO) {
            match ev {
                ClientEvent::Watch(n) => self.watches.push_back(n),
                ClientEvent::Resp { .. } => {}
            }
        }
        self.watches.pop_front()
    }

    /// Block up to `timeout` for a watch notification.
    pub fn await_watch(&mut self, timeout: Duration) -> Option<WatchNotification> {
        if let Some(n) = self.take_watch() {
            return Some(n);
        }
        self.recv_until(timeout, |ev| match ev {
            ClientEvent::Watch(n) => Ok(n),
            ev => Err(ev),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;

    /// A transport on a manual clock: `recv` waits out its whole timeout
    /// in virtual time and `sleep` advances it; `elapsed` is shared with
    /// the test. Nothing ever answers except, when `connects`, the session
    /// handshake — after which every send fails at once.
    struct ManualClock {
        start: Instant,
        elapsed: Rc<Cell<Duration>>,
        connects: bool,
        events: VecDeque<ClientEvent>,
    }

    fn manual_clock(connects: bool) -> (ManualClock, Rc<Cell<Duration>>) {
        let elapsed = Rc::new(Cell::new(Duration::ZERO));
        let t = ManualClock {
            start: Instant::now(),
            elapsed: elapsed.clone(),
            connects,
            events: VecDeque::new(),
        };
        (t, elapsed)
    }

    impl ClientTransport for ManualClock {
        fn send(&mut self, req_id: u64, _session: u64, req: ZkRequest) -> Result<(), ZkError> {
            match (self.connects, req) {
                (true, ZkRequest::Connect) => {
                    let resp = ZkResponse::Connected { session: 1 };
                    self.events.push_back(ClientEvent::Resp { req_id, resp });
                    Ok(())
                }
                (true, _) => Err(ZkError::ConnectionLoss),
                (false, _) => Ok(()),
            }
        }

        fn recv(&mut self, timeout: Duration) -> Option<ClientEvent> {
            let ev = self.events.pop_front();
            if ev.is_none() {
                self.sleep(timeout);
            }
            ev
        }

        fn now(&self) -> Instant {
            self.start + self.elapsed.get()
        }

        fn sleep(&mut self, d: Duration) {
            self.elapsed.set(self.elapsed.get() + d);
        }
    }

    #[test]
    fn establish_gives_up_on_a_silent_server_within_its_deadline() {
        let wall = Instant::now();
        let (t, elapsed) = manual_clock(false);
        let err = ZkClient::establish(t).err().expect("a silent server grants no session");
        assert_eq!(err, ZkError::ConnectionLoss);
        // The last attempt starts before the 30 s deadline and waits out
        // one 5 s request timeout plus one 100 ms backoff.
        let virtual_s = elapsed.get().as_secs_f64();
        assert!((30.0..=35.1).contains(&virtual_s), "gave up after {virtual_s} s");
        assert!(wall.elapsed() < Duration::from_secs(1), "establish waited on the wall clock");
    }

    #[test]
    fn a_request_backs_off_eight_times_on_the_transport_clock() {
        let (t, elapsed) = manual_clock(true);
        let mut c = ZkClient::establish(t).expect("session");
        let before = elapsed.get();
        let resp = c.request(ZkRequest::Exists { path: "/".into(), watch: false });
        assert_eq!(resp.err(), Some(ZkError::ConnectionLoss));
        // 50, 100, 200, 400, then 800 ms for each of the last four attempts.
        assert_eq!(elapsed.get() - before, Duration::from_millis(3_950));
    }
}
