//! TCP runtime: socket-backed ensembles and client sessions.
//!
//! The same [`CoordServer`] state machine that [`crate::runtime`] hosts on
//! crossbeam channels, hosted here on real sockets via `dufs-net`:
//!
//! * [`TcpServer`] — one coordination server listening on a TCP address:
//!   an accept thread and one loop thread running the shared server event
//!   loop (`event_loop::run`, the same one the threaded runtime runs) over
//!   a single [`ConnEvent`] stream. Inbound connections are told apart by
//!   their handshake [`Hello::kind`]: peers feed [`CoordMsg`] frames into
//!   the loop, clients speak [`ClientFrame`]/[`ServerFrame`], admin
//!   connections may probe [`ClientFrame::Status`]. Outbound peer traffic
//!   rides per-peer dial-out connections the loop thread sends on itself;
//!   a dead or unreachable peer is redialed off-thread with exponential
//!   backoff and messages to it are *dropped* meanwhile — ZAB's sync
//!   protocol is built to recover from exactly that.
//! * [`TcpCluster`] — a whole loopback ensemble of [`TcpServer`]s, a
//!   drop-in sibling of [`crate::runtime::ThreadCluster`] for tests.
//! * [`TcpTransport`] / [`TcpZkClient`] — the [`ZkClient`] session API over
//!   a socket, with failover across server addresses and [`ZkError::Net`]
//!   surfaced to the retry layer.
//! * [`remote_status`] — a one-shot out-of-process status probe, used by
//!   the kill-9 recovery harness to interrogate `coord_server` processes.
//!
//! Unlike the threaded runtime there are no `Crash`/`Restart` envelopes:
//! the failure model here is the real one (kill the process; the WAL
//! directory is the durable identity, the socket address is not).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use dufs_net::{
    connect, connect_demux, AcceptHandle, Backoff, Conn, ConnEvent, EndpointKind, Hello, Listener,
    NetConfig, NetStats, NetStatsSnapshot, Wire,
};
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};
use dufs_zkstore::ZkError;

use crate::api::{ClientOptions, LeaseGrant, ZkRequest};
use crate::event_loop::{self, Host, Input};
use crate::runtime::{ClientEvent, ClientTransport, ServerStatus, ZkClient};
use crate::server::{ClientId, CoordMsg, CoordServer, ServerIn};
use crate::wire::{ClientFrame, ServerFrame};

/// Everything a [`TcpServer`] needs to know at spawn time.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// This server's peer id (an index into `peer_addrs`).
    pub me: PeerId,
    /// Every ensemble member's address, indexed by peer id.
    pub peer_addrs: Vec<SocketAddr>,
    /// The first `voters` members vote; the rest are observers.
    pub voters: usize,
    /// Group-commit / snapshot-chunk tuning.
    pub zab: ZabConfig,
    /// Transport tuning (heartbeats, reconnect backoff).
    pub net: NetConfig,
    /// When set, run durably: WAL + checkpoints under this directory.
    pub wal_dir: Option<PathBuf>,
}

impl TcpServerConfig {
    /// A volatile (non-durable) member `me` of the ensemble at
    /// `peer_addrs`, all voting, default tuning.
    pub fn new(me: PeerId, peer_addrs: Vec<SocketAddr>) -> Self {
        let voters = peer_addrs.len();
        TcpServerConfig {
            me,
            peer_addrs,
            voters,
            zab: ZabConfig::default(),
            net: NetConfig::default(),
            wal_dir: None,
        }
    }
}

/// One coordination server bound to a TCP address. Used in-process by
/// [`TcpCluster`] and as the whole body of the `coord_server` binary.
pub struct TcpServer {
    stop: Arc<AtomicBool>,
    accept: Option<AcceptHandle>,
    join: Option<JoinHandle<()>>,
    addr: SocketAddr,
    stats: NetStats,
}

impl TcpServer {
    /// Start serving on `listener` (already bound — bind to port 0 first
    /// when the ensemble's addresses must be known before any member
    /// starts). Panics on WAL recovery failure, like the threaded runtime.
    pub fn spawn(listener: Listener, cfg: TcpServerConfig) -> TcpServer {
        let addr = listener.local_addr();
        let n = cfg.peer_addrs.len();
        assert!(cfg.voters >= 1 && cfg.voters <= n, "voters out of range");
        assert!((cfg.me.0 as usize) < n, "me out of range");
        let stats = NetStats::new();
        let stop = Arc::new(AtomicBool::new(false));

        // One event stream carries everything the loop reacts to: accepted
        // connections (any count, any kind), the dial-out peer links, and
        // their frames. No per-connection threads exist anywhere on this
        // path — the reactor pool carries the sockets.
        let (events_tx, events) = unbounded::<ConnEvent>();
        let my_hello = Hello { kind: EndpointKind::Server, id: cfg.me.0 as u64 };
        let accept =
            listener.spawn_accept_into(my_hello, cfg.net, stats.clone(), events_tx.clone());
        let mut host = TcpHost {
            events,
            events_tx,
            stop: stop.clone(),
            me: cfg.me,
            net: cfg.net,
            stats: stats.clone(),
            clients: HashMap::new(),
            peers_in: HashMap::new(),
            links: (0..n as u32)
                .map(|i| {
                    let addr = cfg.peer_addrs[i as usize];
                    (PeerId(i) != cfg.me).then(|| Link { addr, id: 0, conn: None, backlog: vec![] })
                })
                .collect(),
            next_link_id: u64::MAX,
            lease_slot: Arc::new(StdMutex::new(None)),
        };
        (0..n).for_each(|to| host.dial(to, false));

        let ensemble = EnsembleConfig::with_observers(cfg.voters, n - cfg.voters);
        let (me, zab, wal_dir) = (cfg.me, cfg.zab, cfg.wal_dir);
        let join = std::thread::Builder::new()
            .name(format!("tcp-coord-{}", me.0))
            .spawn(move || event_loop::run(me, ensemble, zab, wal_dir, Instant::now(), host))
            .expect("spawn tcp server loop");

        TcpServer { stop, accept: Some(accept), join: Some(join), addr, stats }
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's transport counters (all its connections share them).
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// Block the calling thread until the event loop exits (the
    /// `coord_server` binary's main thread parks here).
    pub fn run(mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Stop accepting, stop the event loop, join it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            accept.stop();
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The dial-out link to one ensemble peer. Replication traffic to a peer
/// travels only this link — one connection at a time, so per-peer FIFO —
/// and the peer answers on its own dial-out link, never on this one.
struct Link {
    addr: SocketAddr,
    /// Event-stream id of the current dial and of the connection it yields.
    /// Every dial takes a fresh one, so events of an earlier generation
    /// match nothing.
    id: u64,
    /// `None` while a dial is in flight.
    conn: Option<Conn>,
    /// Encoded messages waiting for the dial in flight. A failed attempt
    /// discards them: the peer is down, and ZAB resynchronizes through
    /// lossy links by design.
    backlog: Vec<Vec<u8>>,
}

/// The socket half of a [`TcpServer`]: everything arrives on one
/// [`ConnEvent`] stream, and the loop thread owns every [`Conn`] it sends on.
struct TcpHost {
    events: Receiver<ConnEvent>,
    /// Handed to dial threads, which report on the same stream.
    events_tx: Sender<ConnEvent>,
    stop: Arc<AtomicBool>,
    me: PeerId,
    net: NetConfig,
    stats: NetStats,
    /// Accepted client and admin connections; the stream id doubles as the
    /// [`ClientId`].
    clients: HashMap<ClientId, Conn>,
    /// Accepted peer connections (the far ends of the peers' links). Only
    /// read from; the write half is parked so heartbeats keep flowing.
    peers_in: HashMap<u64, (PeerId, Conn)>,
    /// Indexed by peer id; `None` at `me`.
    links: Vec<Option<Link>>,
    /// Counts down from `u64::MAX`; accepted ids count up from 1.
    next_link_id: u64,
    /// The freshest lease this server can grant, refreshed every loop pass
    /// and shared with each client connection's idle source: when a conn's
    /// heartbeat slot comes up empty, the reactor piggybacks a Lease frame
    /// (ttl decayed by the slot's age) instead of the empty keepalive. A
    /// quiet cached client thus renews without spending a Ping round trip.
    lease_slot: Arc<StdMutex<Option<(Instant, LeaseGrant)>>>,
}

impl TcpHost {
    /// (Re)dial peer `to` off-thread — a dial blocks for up to
    /// `connect_timeout_ms`, which would stall this server's timers and
    /// every other connection — retrying with backoff until it connects.
    /// The thread reports on the event stream under the link's new id:
    /// `Closed` for each failed attempt, `Opened` with the connection at
    /// the end. It gives up when the loop is gone.
    fn dial(&mut self, to: usize, redial: bool) {
        let Some(link) = self.links.get_mut(to).and_then(Option::as_mut) else { return };
        self.next_link_id -= 1;
        link.id = self.next_link_id;
        link.conn = None;
        let (id, addr, net) = (link.id, link.addr, self.net);
        let (stats, events) = (self.stats.clone(), self.events_tx.clone());
        let hello = Hello { kind: EndpointKind::Peer, id: self.me.0 as u64 };
        std::thread::Builder::new()
            .name(format!("tcp-dial-{}-{to}", self.me.0))
            .spawn(move || {
                let mut backoff = Backoff::new(&net);
                loop {
                    match connect_demux(addr, hello, &net, &stats, id, events.clone()) {
                        Ok(conn) => {
                            if redial {
                                stats.on_reconnect();
                            }
                            let _ = events.send(ConnEvent::Opened { id, conn });
                            return;
                        }
                        Err(_) if events.send(ConnEvent::Closed { id }).is_err() => return,
                        Err(_) => std::thread::sleep(backoff.next_delay()),
                    }
                }
            })
            .expect("spawn dial thread");
    }

    fn link_mut(&mut self, id: u64) -> Option<(usize, &mut Link)> {
        self.links
            .iter_mut()
            .enumerate()
            .find_map(|(to, l)| l.as_mut().filter(|l| l.id == id).map(|l| (to, l)))
    }

    fn on_opened(&mut self, id: u64, conn: Conn) {
        if let Some((_, link)) = self.link_mut(id) {
            for payload in link.backlog.drain(..) {
                let _ = conn.send(payload);
            }
            link.conn = Some(conn);
            return;
        }
        match conn.remote().kind {
            EndpointKind::Peer => {
                let from = PeerId(conn.remote().id as u32);
                self.peers_in.insert(id, (from, conn));
            }
            EndpointKind::Client | EndpointKind::Admin => {
                let slot = self.lease_slot.clone();
                conn.set_idle_source(move || {
                    let (at, g) = (*slot.lock().unwrap())?;
                    let elapsed = at.elapsed().as_millis() as u64;
                    (u64::from(g.ttl_ms) > elapsed).then(|| {
                        ServerFrame::Lease(LeaseGrant {
                            ttl_ms: g.ttl_ms - elapsed as u32,
                            epoch: g.epoch,
                        })
                        .to_wire()
                    })
                });
                self.clients.insert(id, conn);
            }
            EndpointKind::Server => {} // nobody dials in as a server; the drop hangs up
        }
    }

    fn on_closed(&mut self, id: u64) {
        match self.link_mut(id) {
            // The link died: redial now, so it is back before it is needed.
            Some((to, Link { conn: Some(_), .. })) => self.dial(to, true),
            // A dial attempt failed: the peer is down.
            Some((_, link)) => link.backlog.clear(),
            None => {
                if self.clients.remove(&id).is_none() {
                    self.peers_in.remove(&id);
                }
            }
        }
    }

    /// Decode one inbound frame in place. A frame that passed the CRC but
    /// not the codec means the other end speaks something else: hang up (a
    /// peer redials; a client's retry layer reconnects).
    fn on_frame(&mut self, id: u64, payload: &[u8]) -> Input<(ClientId, u64)> {
        let decoded = if self.clients.contains_key(&id) {
            ClientFrame::from_wire(payload).map(|frame| match frame {
                ClientFrame::Request { req_id, session, req } => {
                    Input::Server(ServerIn::Client { client: id, req_id, session, req })
                }
                ClientFrame::Status { req_id } => Input::Inspect((id, req_id)),
            })
        } else if let Some(&(from, _)) = self.peers_in.get(&id) {
            CoordMsg::from_wire(payload).map(|msg| Input::Server(ServerIn::Peer { from, msg }))
        } else {
            // A dial-out link (peers answer on their own), or a connection
            // already hung up on.
            return Input::Idle;
        };
        decoded.unwrap_or_else(|_| {
            self.clients.remove(&id);
            self.peers_in.remove(&id);
            Input::Idle
        })
    }

    fn send_client(&self, to: ClientId, frame: ServerFrame) {
        if let Some(conn) = self.clients.get(&to) {
            let _ = conn.send(frame.to_wire());
        }
    }
}

impl Host for TcpHost {
    /// The connection a [`ClientFrame::Status`] arrived on, and its request id.
    type Probe = (ClientId, u64);

    fn next(&mut self, wait: Duration) -> Input<Self::Probe> {
        // The stream itself never closes while this loop holds connections
        // (each one's reactor state holds a sender), so stopping is a flag.
        if self.stop.load(Ordering::SeqCst) {
            return Input::Stop;
        }
        match self.events.recv_timeout(wait) {
            Ok(ConnEvent::Frame { id, payload }) => return self.on_frame(id, &payload),
            Ok(ConnEvent::Opened { id, conn }) => self.on_opened(id, conn),
            Ok(ConnEvent::Closed { id }) => self.on_closed(id),
            Err(_) => {}
        }
        Input::Idle
    }

    fn deliver(&mut self, to: ClientId, ev: ClientEvent) {
        self.send_client(
            to,
            match ev {
                ClientEvent::Resp { req_id, resp } => ServerFrame::Resp { req_id, resp },
                ClientEvent::Watch(note) => ServerFrame::Watch(note),
            },
        );
    }

    fn send_peer(&mut self, to: PeerId, msg: CoordMsg) {
        let to = to.0 as usize;
        let Some(link) = self.links.get_mut(to).and_then(Option::as_mut) else { return };
        match &link.conn {
            Some(conn) => {
                if conn.send(msg.to_wire()).is_err() {
                    self.dial(to, true);
                }
            }
            None => link.backlog.push(msg.to_wire()),
        }
    }

    fn report(&mut self, (to, req_id): Self::Probe, status: ServerStatus) {
        self.send_client(to, ServerFrame::Status { req_id, status });
    }

    /// Refresh the shared grant for the idle-piggyback sources. Only while
    /// clients are connected — `lease_grant` counts what it issues.
    fn after_pass(&mut self, server: &mut CoordServer, now_ns: u64) {
        let grant = if self.clients.is_empty() {
            None
        } else {
            server.lease_grant(now_ns).map(|g| (Instant::now(), g))
        };
        *self.lease_slot.lock().unwrap() = grant;
    }
}

/// A whole coordination ensemble on loopback sockets — the TCP sibling of
/// [`crate::runtime::ThreadCluster`], same probe/client surface. Members
/// can be individually [`TcpCluster::stop`]ped (the real failure model:
/// the process goes away, the address stays in everyone's member list).
pub struct TcpCluster {
    servers: Vec<Option<TcpServer>>,
    addrs: Vec<SocketAddr>,
}

impl TcpCluster {
    pub(crate) fn start_inner(
        voters: usize,
        observers: usize,
        zab: ZabConfig,
        net: NetConfig,
        wal_dir: Option<PathBuf>,
    ) -> Self {
        let n = voters + observers;
        // Bind every listener first so each member knows the full address
        // list before any of them starts dialing.
        let listeners: Vec<Listener> = (0..n)
            .map(|_| Listener::bind("127.0.0.1:0".parse().unwrap()).expect("bind loopback"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr()).collect();
        let servers = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                Some(TcpServer::spawn(
                    l,
                    TcpServerConfig {
                        me: PeerId(i as u32),
                        peer_addrs: addrs.clone(),
                        voters,
                        zab,
                        net,
                        wal_dir: wal_dir.as_ref().map(|d| d.join(format!("server-{i}"))),
                    },
                ))
            })
            .collect();
        TcpCluster { servers, addrs }
    }

    /// Ensemble size (stopped members included).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The members' socket addresses, indexed by peer id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stop one member — close its listener and join its threads, leaving
    /// its address dead. Clients pinned to it see `ConnectionLoss`;
    /// failover clients move on. Idempotent.
    pub fn stop(&mut self, server_idx: usize) {
        if let Some(s) = self.servers[server_idx].take() {
            s.shutdown();
        }
    }

    /// Open a session per `opts`: first connects to member `opts.server`,
    /// optionally failing over across the whole address list, with reads
    /// served at `opts.consistency`.
    pub fn client(&self, opts: ClientOptions) -> Result<TcpZkClient, ZkError> {
        let mut addrs = self.addrs.clone();
        addrs.rotate_left(opts.server % self.addrs.len());
        if !opts.failover {
            addrs.truncate(1);
        }
        let mut c = ZkClient::establish(TcpTransport::new(addrs))?;
        c.set_consistency(opts.consistency);
        Ok(c)
    }

    /// Probe one server's status over an admin connection. Panics if it
    /// never answers (use [`TcpCluster::try_status`] for stopped members).
    pub fn status(&self, server_idx: usize) -> ServerStatus {
        for _ in 0..3 {
            if let Some(s) = self.try_status(server_idx) {
                return s;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("server {server_idx} did not answer a status probe");
    }

    /// [`TcpCluster::status`], but `None` when the member doesn't answer
    /// (e.g. it was [`TcpCluster::stop`]ped).
    pub fn try_status(&self, server_idx: usize) -> Option<ServerStatus> {
        self.servers[server_idx].as_ref()?;
        remote_status(self.addrs[server_idx], Duration::from_secs(5))
    }

    /// This server's transport counters. Panics if the member was stopped.
    pub fn net_stats(&self, server_idx: usize) -> NetStatsSnapshot {
        self.servers[server_idx].as_ref().expect("member stopped").stats()
    }

    /// Index of the established leader, if any. Stopped / unresponsive
    /// members are skipped.
    pub fn leader_index(&self) -> Option<usize> {
        (0..self.len()).find(|&i| self.try_status(i).is_some_and(|s| s.is_leader))
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

    /// Stop every server and join their threads.
    pub fn shutdown(self) {
        for s in self.servers.into_iter().flatten() {
            s.shutdown();
        }
    }
}

/// One-shot status probe of a (possibly out-of-process) server: dial as an
/// admin endpoint, ask, hang up. `None` on dial failure, timeout, or a
/// garbled reply — the caller treats all three as "not answering".
pub fn remote_status(addr: SocketAddr, timeout: Duration) -> Option<ServerStatus> {
    let stats = NetStats::new();
    let net = NetConfig::default();
    let hello = Hello { kind: EndpointKind::Admin, id: 0 };
    let (conn, rx) = connect(addr, hello, &net, &stats).ok()?;
    conn.send(ClientFrame::Status { req_id: 1 }.to_wire()).ok()?;
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.checked_duration_since(Instant::now())?;
        let payload = rx.recv_timeout(left).ok()?;
        if let Ok(ServerFrame::Status { status, .. }) = ServerFrame::from_wire(&payload) {
            return Some(status);
        }
    }
}

/// TCP client transport: one live connection at a time, chosen from a
/// failover list. A send on a dead link fails with [`ZkError::Net`] and the
/// next send redials (possibly a different address);
/// [`ZkClient::request`]'s retry loop turns that into the same
/// at-least-once semantics the channel transport has through elections.
pub struct TcpTransport {
    addrs: Vec<SocketAddr>,
    cursor: usize,
    net: NetConfig,
    stats: NetStats,
    link: Option<(Conn, Receiver<Vec<u8>>)>,
    ever_connected: bool,
    /// Newest unsolicited lease grant pushed by the server on the live
    /// connection (heartbeat piggyback), with its receipt instant so the
    /// ttl can be decayed when the client collects it.
    pushed_lease: Option<(Instant, LeaseGrant)>,
}

impl TcpTransport {
    /// A transport failing over across `addrs` (tried in order), default
    /// tuning. Panics if `addrs` is empty.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        Self::with_config(addrs, NetConfig::default())
    }

    /// [`TcpTransport::new`] with explicit transport tuning.
    pub fn with_config(addrs: Vec<SocketAddr>, net: NetConfig) -> Self {
        assert!(!addrs.is_empty(), "need at least one server address");
        TcpTransport {
            addrs,
            cursor: 0,
            net,
            stats: NetStats::new(),
            link: None,
            ever_connected: false,
            pushed_lease: None,
        }
    }

    /// This session's transport counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// The address of the live connection, if any.
    pub fn connected_addr(&self) -> Option<SocketAddr> {
        self.link.as_ref().and_then(|(c, _)| c.peer_addr())
    }

    fn ensure_link(&mut self) -> Result<(), ZkError> {
        if self.link.is_some() {
            return Ok(());
        }
        let hello = Hello { kind: EndpointKind::Client, id: 0 };
        for _ in 0..self.addrs.len() {
            let addr = self.addrs[self.cursor % self.addrs.len()];
            match connect(addr, hello, &self.net, &self.stats) {
                Ok(pair) => {
                    if self.ever_connected {
                        self.stats.on_reconnect();
                    }
                    self.ever_connected = true;
                    self.link = Some(pair);
                    // A grant pushed on the previous connection says nothing
                    // about the replica behind this one.
                    self.pushed_lease = None;
                    return Ok(());
                }
                Err(_) => self.cursor = (self.cursor + 1) % self.addrs.len(),
            }
        }
        Err(ZkError::Net)
    }
}

impl ClientTransport for TcpTransport {
    fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError> {
        self.ensure_link()?;
        let payload = ClientFrame::Request { req_id, session, req }.to_wire();
        let (conn, _) = self.link.as_ref().expect("link just ensured");
        if conn.send(payload).is_err() {
            // Dead socket: drop it and advance the failover cursor so the
            // retry doesn't hammer the same dead address first.
            self.link = None;
            self.pushed_lease = None;
            self.cursor = (self.cursor + 1) % self.addrs.len();
            return Err(ZkError::Net);
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Option<ClientEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            let (_, rx) = self.link.as_ref()?;
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(payload) => match ServerFrame::from_wire(&payload) {
                    Ok(ServerFrame::Resp { req_id, resp }) => {
                        return Some(ClientEvent::Resp { req_id, resp })
                    }
                    Ok(ServerFrame::Watch(n)) => return Some(ClientEvent::Watch(n)),
                    Ok(ServerFrame::Lease(g)) => {
                        // Unsolicited lease push (heartbeat piggyback): park
                        // it for `pushed_lease` and keep waiting for a real
                        // event — it answers no request.
                        self.pushed_lease = Some((Instant::now(), g));
                    }
                    Ok(ServerFrame::Status { .. }) => {} // admin frame on a session: skip
                    Err(_) => {
                        // CRC-valid but undecodable: protocol confusion,
                        // the link is not trustworthy.
                        self.link = None;
                        self.pushed_lease = None;
                        return None;
                    }
                },
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => {
                    self.link = None;
                    self.pushed_lease = None;
                    return None;
                }
            }
        }
    }

    fn on_retry(&mut self) {
        // A server that accepted our dial but stopped answering (e.g. it is
        // partitioned from the leader) never breaks the socket, so the only
        // failover signal is the timeout that brought us here. Pinned
        // clients keep their link — redialing the same address buys
        // nothing.
        if self.addrs.len() > 1 {
            self.link = None;
            self.pushed_lease = None;
            self.cursor = (self.cursor + 1) % self.addrs.len();
        }
    }

    fn reconnects(&self) -> u64 {
        self.stats.snapshot().reconnects
    }

    fn pushed_lease(&mut self) -> Option<LeaseGrant> {
        // Decay the parked grant's ttl by its time on the shelf, so the
        // caller can treat receipt as "now". Taken, not peeked: the cache
        // layer owns lease state; this is just the mailbox.
        let (taken_at, mut g) = self.pushed_lease.take()?;
        let elapsed = taken_at.elapsed().as_millis() as u64;
        if u64::from(g.ttl_ms) <= elapsed {
            return None;
        }
        g.ttl_ms -= elapsed as u32;
        Some(g)
    }
}

/// The synchronous ZooKeeper-style client over a real socket.
pub type TcpZkClient = ZkClient<TcpTransport>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Watch;
    use crate::cluster::ClusterBuilder;
    use bytes::Bytes;
    use dufs_zkstore::CreateMode;

    #[test]
    fn tcp_ensemble_elects_and_serves() {
        let cluster = ClusterBuilder::new().voters(3).tcp();
        let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let mut c = cluster.client(ClientOptions::at(leader)).unwrap();
        c.create("/tcp", Bytes::from_static(b"hello"), CreateMode::Persistent).unwrap();
        let (data, _) = c.get_data("/tcp", Watch::None).unwrap();
        assert_eq!(&data[..], b"hello");
        // A follower serves the same data after sync.
        let follower = (0..3).find(|&i| i != leader).unwrap();
        let mut f = cluster.client(ClientOptions::at(follower)).unwrap();
        f.sync().unwrap();
        let (data, _) = f.get_data("/tcp", Watch::None).unwrap();
        assert_eq!(&data[..], b"hello");
        // Sockets actually carried traffic.
        assert!(cluster.net_stats(leader).frames_recv > 0);
        cluster.shutdown();
    }

    #[test]
    fn remote_status_probe_answers() {
        let cluster = ClusterBuilder::new().voters(1).tcp();
        cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let s = remote_status(cluster.addrs()[0], Duration::from_secs(5)).expect("status");
        assert!(s.alive);
        assert!(s.is_leader);
        assert!(s.committed >= s.last_applied, "commit point can't trail the applied point");
        cluster.shutdown();
    }

    #[test]
    fn client_fails_over_when_its_server_dies() {
        let mut cluster = ClusterBuilder::new().voters(3).tcp();
        cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        c.create("/f", Bytes::new(), CreateMode::Persistent).unwrap();
        // Kill the member the client is talking to; the session must carry
        // on against another member.
        cluster.stop(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match c.exists("/f", Watch::None) {
                Ok(Some(_)) => break,
                _ => assert!(Instant::now() < deadline, "failover never succeeded"),
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(c.transport().stats().conns_opened >= 2, "must have redialed");
        cluster.shutdown();
    }
}
