//! Threaded runtime: hosts a coordination ensemble on OS threads with
//! channel "networking", and exposes the synchronous client API the DUFS
//! prototype uses (paper §IV-D: "The synchronous ZooKeeper API were used").
//!
//! This is the runtime used by the library examples and the functional
//! integration tests; the performance figures use the deterministic
//! simulator in `dufs-mdtest` instead (same [`crate::CoordServer`] state
//! machine, different driver).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::api::{ClientOptions, ReadConsistency, Watch, ZkRequest, ZkResponse};
use crate::event_loop::{self, Host, Input};
use crate::server::{ClientId, CoordMsg, ServerIn};
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
    /// Whether the simulated process is up.
    pub alive: bool,
}

/// What travels a [`ThreadCluster`] server's inbox: loop inputs as they
/// are (a status probe carries its reply channel), plus the one message the
/// host consumes itself.
enum Envelope {
    Register { client: ClientId, events: Sender<ClientEvent> },
    In(Input<Sender<ServerStatus>>),
}

/// How a [`ZkClient`] session reaches its server: an in-process channel
/// ([`ChannelTransport`], the [`ThreadCluster`] runtime) or a TCP
/// connection ([`crate::tcp::TcpTransport`]). The client logic — request
/// ids, pipelining, retry policy — is transport-agnostic.
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

    /// Take the newest unsolicited lease grant the server pushed on this
    /// connection (TCP piggybacks grants on idle heartbeat slots), with its
    /// ttl already decayed to the call instant. Default: never (transports
    /// without a push path renew via explicit [`ZkClient::ping_lease`]).
    fn pushed_lease(&mut self) -> Option<crate::api::LeaseGrant> {
        None
    }
}

/// In-process transport: crossbeam channels to [`ThreadCluster`] server
/// threads. Holds every member's inbox; with failover enabled, a failed
/// request re-registers the session's event channel at the next member.
pub struct ChannelTransport {
    client: ClientId,
    servers: Vec<Sender<Envelope>>,
    cursor: usize,
    failover: bool,
    events_tx: Sender<ClientEvent>,
    events: Receiver<ClientEvent>,
    reconnects: u64,
}

impl ChannelTransport {
    fn register(&self) {
        let _ = self.servers[self.cursor]
            .send(Envelope::Register { client: self.client, events: self.events_tx.clone() });
    }

    /// Index of the ensemble member this session currently sends to (the
    /// channel-transport analogue of [`crate::tcp::TcpTransport::connected_addr`]).
    /// Failover tests use it to kill the member actually serving a session.
    pub fn connected_index(&self) -> usize {
        self.cursor
    }
}

impl ClientTransport for ChannelTransport {
    fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError> {
        let input = ServerIn::Client { client: self.client, req_id, session, req };
        self.servers[self.cursor]
            .send(Envelope::In(Input::Server(input)))
            .map_err(|_| ZkError::ConnectionLoss)
    }

    fn recv(&mut self, timeout: Duration) -> Option<ClientEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    fn on_retry(&mut self) {
        // A crashed thread-cluster server silently swallows requests (the
        // channel stays open), so the only failover signal is the timeout
        // that brought us here: move to the next member and re-register.
        if self.failover && self.servers.len() > 1 {
            self.cursor = (self.cursor + 1) % self.servers.len();
            self.reconnects += 1;
            self.register();
        }
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

/// A coordination ensemble running on OS threads.
pub struct ThreadCluster {
    senders: Vec<Sender<Envelope>>,
    handles: Vec<JoinHandle<()>>,
    next_client: AtomicU64,
    epoch: Instant,
}

impl ThreadCluster {
    pub(crate) fn start_inner(
        voters: usize,
        observers: usize,
        zab: ZabConfig,
        wal_dir: Option<PathBuf>,
    ) -> Self {
        let n = voters + observers;
        let config = EnsembleConfig::with_observers(voters, observers);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }
        let epoch = Instant::now();
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in receivers.into_iter().enumerate() {
            let cfg = config.clone();
            let me = PeerId(i as u32);
            let dir = wal_dir.as_ref().map(|d| d.join(format!("server-{i}")));
            let host = ChannelHost { me, rx, peers: senders.clone(), clients: HashMap::new() };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("coord-{i}"))
                    .spawn(move || event_loop::run(me, cfg, zab, dir, epoch, host))
                    .expect("spawn server thread"),
            );
        }
        ThreadCluster { senders, handles, next_client: AtomicU64::new(1), epoch }
    }

    /// Ensemble size.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Time since cluster start (the clock fed to servers).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a session per `opts`: first connects to member `opts.server`,
    /// optionally failing over across the ensemble, with reads served at
    /// `opts.consistency`. Retries while the ensemble elects.
    pub fn client(&self, opts: ClientOptions) -> Result<ZkClient, ZkError> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        let transport = ChannelTransport {
            client: id,
            servers: self.senders.clone(),
            cursor: opts.server % self.senders.len(),
            failover: opts.failover,
            events_tx: tx,
            events: rx,
            reconnects: 0,
        };
        transport.register();
        let mut c = ZkClient::establish(transport)?;
        c.set_consistency(opts.consistency);
        Ok(c)
    }

    /// Probe one server's status.
    pub fn status(&self, server_idx: usize) -> ServerStatus {
        let (tx, rx) = bounded(1);
        self.senders[server_idx].send(Envelope::In(Input::Inspect(tx))).expect("server alive");
        rx.recv_timeout(Duration::from_secs(5)).expect("status reply")
    }

    /// Index of the established leader, if any.
    pub fn leader_index(&self) -> Option<usize> {
        (0..self.len()).find(|&i| self.status(i).is_leader)
    }

    /// Wait (up to `timeout`) for a leader to be established.
    pub fn await_leader(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Some(l) = self.leader_index() {
                return Some(l);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        None
    }

    /// Crash a server (drops its volatile state; the log survives).
    pub fn crash(&self, server_idx: usize) {
        let _ = self.senders[server_idx].send(Envelope::In(Input::Crash));
    }

    /// Restart a crashed server.
    pub fn restart(&self, server_idx: usize) {
        let _ = self.senders[server_idx].send(Envelope::In(Input::Restart));
    }

    /// Stop all server threads and join them.
    pub fn shutdown(self) {
        for s in &self.senders {
            let _ = s.send(Envelope::In(Input::Stop));
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// The channel half of a [`ThreadCluster`] server: one inbox, every
/// member's inbox to send to, and the event channels of the clients that
/// registered here.
struct ChannelHost {
    me: PeerId,
    rx: Receiver<Envelope>,
    peers: Vec<Sender<Envelope>>,
    clients: HashMap<ClientId, Sender<ClientEvent>>,
}

impl Host for ChannelHost {
    type Probe = Sender<ServerStatus>;

    fn next(&mut self, wait: Duration) -> Input<Self::Probe> {
        match self.rx.recv_timeout(wait) {
            Ok(Envelope::In(input)) => input,
            Ok(Envelope::Register { client, events }) => {
                self.clients.insert(client, events);
                Input::Idle
            }
            Err(RecvTimeoutError::Timeout) => Input::Idle,
            Err(RecvTimeoutError::Disconnected) => Input::Stop,
        }
    }

    fn deliver(&mut self, to: ClientId, ev: ClientEvent) {
        if let Some(tx) = self.clients.get(&to) {
            let _ = tx.send(ev);
        }
    }

    fn send_peer(&mut self, to: PeerId, msg: CoordMsg) {
        if let Some(tx) = self.peers.get(to.0 as usize) {
            let _ = tx.send(Envelope::In(Input::Server(ServerIn::Peer { from: self.me, msg })));
        }
    }

    fn report(&mut self, probe: Self::Probe, status: ServerStatus) {
        let _ = probe.send(status);
    }
}

/// The error in `resp` if it is one [`ZkClient::request`] retries; a write
/// that ends on one has an unknown outcome (it may still commit).
fn transient_err(resp: &ZkResponse) -> Option<ZkError> {
    resp.err().filter(|e| matches!(e, ZkError::ConnectionLoss | ZkError::Net | ZkError::TxnBusy))
}

/// Synchronous client handle — the `zoo_*` API surface. Generic over its
/// [`ClientTransport`]: the default reaches a [`ThreadCluster`] server over
/// an in-process channel; [`crate::tcp::TcpZkClient`] is the same client
/// over a real socket.
pub struct ZkClient<T: ClientTransport = ChannelTransport> {
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
    /// Pipelined writes whose replies have not been collected yet, each with
    /// the reconnect count it was sent under.
    inflight_writes: Vec<(u64, u64)>,
    /// Transport reconnect count at the last barrier; a change means we may
    /// now be talking to a different (possibly lagging) replica.
    seen_reconnects: u64,
}

impl<T: ClientTransport> ZkClient<T> {
    /// Wrap a transport and establish a session, retrying through
    /// elections and reconnects (up to ~30 s).
    pub fn establish(transport: T) -> Result<Self, ZkError> {
        let mut c = ZkClient {
            transport,
            session: 0,
            next_req: 1,
            timeout: Duration::from_secs(5),
            watches: VecDeque::new(),
            consistency: ReadConsistency::Local,
            dirty: false,
            inflight_writes: Vec::new(),
            seen_reconnects: 0,
        };
        for _ in 0..300 {
            match c.raw_request(ZkRequest::Connect) {
                ZkResponse::Connected { session } => {
                    c.session = session;
                    c.seen_reconnects = c.transport.reconnects();
                    return Ok(c);
                }
                _ => {
                    c.transport.on_retry();
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
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
        let deadline = Instant::now() + self.timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return ZkResponse::Error(ZkError::ConnectionLoss);
            }
            match self.recv(left) {
                Some(ClientEvent::Resp { req_id: rid, resp }) if rid == req_id => return resp,
                Some(ClientEvent::Resp { .. }) => {} // stale response from a timed-out request
                Some(ClientEvent::Watch(n)) => self.watches.push_back(n),
                None => return ZkResponse::Error(ZkError::ConnectionLoss),
            }
        }
    }

    /// Submit a request WITHOUT waiting for its response — the
    /// `zoo_acreate`-style asynchronous API. Returns the request id; the
    /// response arrives later via [`ZkClient::next_completion`].
    ///
    /// Per-session FIFO is preserved end to end: requests travel one
    /// ordered channel to one server, which processes a session's requests
    /// in arrival order, and responses come back on one ordered channel.
    /// A session may keep any number of submissions outstanding
    /// (pipelining); callers bound the depth themselves.
    pub fn submit(&mut self, req: ZkRequest) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        if !req.is_read() {
            // Owes a barrier until its reply is collected (see `recv`).
            self.inflight_writes.push((req_id, self.transport.reconnects()));
        }
        let _ = self.transport.send(req_id, self.session, req);
        req_id
    }

    /// Take the next event off the transport. Every receive path goes
    /// through here, so a pipelined write stops owing a barrier as soon as
    /// its reply is collected, whoever collects it — unless the reply leaves
    /// its outcome unknown or did not travel the connection it was sent on.
    fn recv(&mut self, timeout: Duration) -> Option<ClientEvent> {
        let ev = self.transport.recv(timeout)?;
        if let ClientEvent::Resp { req_id, resp } = &ev {
            if let Some(i) = self.inflight_writes.iter().position(|&(id, _)| id == *req_id) {
                let (_, sent_rc) = self.inflight_writes.swap_remove(i);
                if transient_err(resp).is_some() || self.transport.reconnects() != sent_rc {
                    self.dirty = true;
                }
            }
        }
        Some(ev)
    }

    /// Await the next pipelined response, in submission order. Watch
    /// notifications encountered on the way are buffered for `take_watch`.
    /// `None` means timeout or a dead server (treat as connection loss).
    pub fn next_completion(&mut self) -> Option<(u64, ZkResponse)> {
        let deadline = Instant::now() + self.timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.recv(left) {
                Some(ClientEvent::Resp { req_id, resp }) => return Some((req_id, resp)),
                Some(ClientEvent::Watch(n)) => self.watches.push_back(n),
                None => return None,
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
            std::thread::sleep(Duration::from_millis(50 << attempt.min(4)));
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
                    self.is_dirty() || self.transport.reconnects() != self.seen_reconnects
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

    /// `zoo_create`: returns the actual created path.
    pub fn create(&mut self, path: &str, data: Bytes, mode: CreateMode) -> Result<String, ZkError> {
        match self.request(ZkRequest::Create { path: path.into(), data, mode }) {
            ZkResponse::Created { path } => Ok(path),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// `zoo_delete`.
    pub fn delete(&mut self, path: &str, version: Option<u32>) -> Result<(), ZkError> {
        match self.request(ZkRequest::Delete { path: path.into(), version }) {
            ZkResponse::Deleted => Ok(()),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// `zoo_set`.
    pub fn set_data(
        &mut self,
        path: &str,
        data: Bytes,
        version: Option<u32>,
    ) -> Result<Stat, ZkError> {
        match self.request(ZkRequest::SetData { path: path.into(), data, version }) {
            ZkResponse::Stat(s) => Ok(s),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// `zoo_get`.
    pub fn get_data(&mut self, path: &str, watch: Watch) -> Result<(Bytes, Stat), ZkError> {
        match self.read_request(ZkRequest::GetData { path: path.into(), watch: watch.is_set() }) {
            ZkResponse::Data { data, stat } => Ok((data, stat)),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// `zoo_exists`.
    pub fn exists(&mut self, path: &str, watch: Watch) -> Result<Option<Stat>, ZkError> {
        match self.read_request(ZkRequest::Exists { path: path.into(), watch: watch.is_set() }) {
            ZkResponse::ExistsResult(s) => Ok(s),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// `zoo_get_children`.
    pub fn get_children(
        &mut self,
        path: &str,
        watch: Watch,
    ) -> Result<(Vec<String>, Stat), ZkError> {
        match self.read_request(ZkRequest::GetChildren { path: path.into(), watch: watch.is_set() })
        {
            ZkResponse::Children { names, stat } => Ok((names, stat)),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Batched listing: children plus each child's data and stat in one
    /// round trip (the primitive behind DUFS `readdir_plus`).
    pub fn get_children_data(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        match self.read_request(ZkRequest::GetChildrenData { path: path.into() }) {
            ZkResponse::ChildrenData { entries } => Ok(entries),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// READDIRPLUS bulk warm: the [`ZkClient::get_children_data`] listing
    /// plus the parent's stat, with one-shot watches installed server-side —
    /// a child watch on the parent and a data watch on every returned child
    /// — all in a single round trip. The caching layer builds its
    /// `warm_children` on this instead of the N+1 list-then-get loop.
    pub fn warm_children(&mut self, path: &str) -> Result<crate::WarmedDir, ZkError> {
        match self.read_request(ZkRequest::WarmChildren { path: path.into() }) {
            ZkResponse::WarmedChildren { entries, stat } => Ok((entries, stat)),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Atomic multi-op transaction.
    pub fn multi(&mut self, ops: Vec<MultiOp>) -> Result<Vec<MultiResult>, ZkError> {
        match self.request(ZkRequest::Multi { ops }) {
            ZkResponse::MultiResults(r) => Ok(r),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Create with missing-ancestor materialization (`mkdir -p` for the
    /// parent chain) — the create the sharded client routes everywhere,
    /// since a shard owns a path without necessarily owning its ancestors.
    pub fn create_path(
        &mut self,
        path: &str,
        data: Bytes,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        match self.request(ZkRequest::CreatePath { path: path.into(), data, mode }) {
            ZkResponse::Created { path } => Ok(path),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// 2PC phase one: validate and fence this shard's slice of transaction
    /// `txn_id`, parking the ops (and the full participant list, for
    /// recovery) durably until a decision.
    pub fn txn_prepare(
        &mut self,
        txn_id: u64,
        ops: Vec<MultiOp>,
        participants: Vec<u32>,
    ) -> Result<(), ZkError> {
        match self.request(ZkRequest::TxnPrepare { txn_id, ops, participants }) {
            ZkResponse::Prepared => Ok(()),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// 2PC decision: commit the prepared slice of `txn_id`. `Ok(true)`
    /// means the slice applied now; `Ok(false)` means the shard held no
    /// prepared slice under the id (already decided here). Safe to retry.
    pub fn txn_commit(&mut self, txn_id: u64) -> Result<bool, ZkError> {
        match self.request(ZkRequest::TxnCommit { txn_id }) {
            ZkResponse::Committed => Ok(true),
            ZkResponse::TxnUnknown => Ok(false),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// 2PC decision: abort the prepared slice of `txn_id`. `Ok(true)`
    /// means a slice was discarded now; `Ok(false)` means nothing was
    /// prepared under the id. Safe to retry.
    pub fn txn_abort(&mut self, txn_id: u64) -> Result<bool, ZkError> {
        match self.request(ZkRequest::TxnAbort { txn_id }) {
            ZkResponse::Aborted => Ok(true),
            ZkResponse::TxnUnknown => Ok(false),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Barrier: propose a no-op through ZAB and wait for the serving
    /// replica to apply it. When it returns, that replica has applied every
    /// write committed before the barrier was issued (total order), so
    /// subsequent local reads observe them all.
    pub fn sync(&mut self) -> Result<u64, ZkError> {
        self.sync_with(false).map(|(zxid, _)| zxid)
    }

    /// Barrier that may ride another session's no-op proposal already in
    /// flight at the serving replica (one ZAB round answers every rider).
    /// Returns `(zxid, coalesced)`. Safe only on an unchanged connection —
    /// this method enforces that: if the transport reconnected while a
    /// coalesced barrier was in flight, the open barrier it rode may have
    /// been proposed *before* this session's pre-reconnect writes
    /// committed, so it silently re-issues a strict (uncoalesced) barrier
    /// before trusting the result.
    pub fn sync_coalesced(&mut self) -> Result<(u64, bool), ZkError> {
        self.sync_with(self.transport.reconnects() == self.seen_reconnects)
    }

    fn sync_with(&mut self, coalesce: bool) -> Result<(u64, bool), ZkError> {
        let before = self.transport.reconnects();
        match self.request(ZkRequest::Sync { coalesce }) {
            ZkResponse::Synced { zxid, coalesced } => {
                // Reconnects only advance on send/on_retry, so reading the
                // counter after the response still describes the replica
                // that served it.
                if coalesce && self.transport.reconnects() != before {
                    // Mid-request reconnect: the ride is not trustworthy.
                    return self.sync_with(false);
                }
                self.dirty = false;
                if !coalesced {
                    // Our own no-op followed every pipelined write down this
                    // link, so it is ordered after them; a barrier we merely
                    // rode may have been proposed before them.
                    self.inflight_writes.clear();
                }
                self.seen_reconnects = self.transport.reconnects();
                Ok((zxid, coalesced))
            }
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Whether this session owes a barrier — the next `SyncThenLocal` read
    /// will be preceded by one. True while a write's outcome is unknown or
    /// pipelined writes are outstanding; an acked write owes nothing. The
    /// sharded client uses this to barrier only the shards that need it.
    pub fn is_dirty(&self) -> bool {
        self.dirty || !self.inflight_writes.is_empty()
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
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Take the newest lease grant the server pushed unsolicited on this
    /// session's connection (TCP heartbeat piggyback), if any.
    pub fn pushed_lease(&mut self) -> Option<crate::api::LeaseGrant> {
        self.transport.pushed_lease()
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
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Pop a pending watch notification, if one arrived.
    pub fn take_watch(&mut self) -> Option<WatchNotification> {
        // Drain anything sitting in the transport first.
        while let Some(ev) = self.recv(Duration::ZERO) {
            match ev {
                ClientEvent::Watch(n) => self.watches.push_back(n),
                ClientEvent::Resp { .. } => {}
            }
        }
        self.watches.pop_front()
    }

    /// Block up to `timeout` for a watch notification.
    pub fn await_watch(&mut self, timeout: Duration) -> Option<WatchNotification> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(n) = self.take_watch() {
                return Some(n);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.recv(left) {
                Some(ClientEvent::Watch(n)) => return Some(n),
                Some(ClientEvent::Resp { .. }) => {}
                None => return None,
            }
        }
    }
}
