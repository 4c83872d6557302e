//! The live runtime: socket-backed ensembles and client sessions.
//!
//! The [`CoordServer`](crate::server::CoordServer) state machine hosted on
//! real sockets via `dufs-net`:
//!
//! * [`TcpServer`] — one coordination server listening on a TCP address:
//!   an accept thread and one loop thread that drives a
//!   [`Member`] from a single [`ConnEvent`] stream. Inbound
//!   connections are told apart by their handshake [`Hello::kind`]: peers
//!   feed [`CoordMsg`] frames into the loop, clients speak
//!   [`ClientFrame`]/[`ServerFrame`], admin connections may probe
//!   [`ClientFrame::Status`]. Outbound peer traffic
//!   rides per-peer dial-out connections the loop thread sends on itself;
//!   a dead or unreachable peer is redialed off-thread with exponential
//!   backoff and messages to it are *dropped* meanwhile — ZAB's sync
//!   protocol is built to recover from exactly that. Each pass of the loop
//!   takes every event that is ready (up to 1 000), sends the leader's
//!   proposals among their outputs, takes one durability point for all of
//!   them, and only then sends the other replies, watch events and peer
//!   messages.
//!   Frames are queued as a pass produces them and written on the loop
//!   thread ([`Conn::flush`]), so no frame wakes a reactor.
//! * [`TcpCluster`] — a whole loopback ensemble of [`TcpServer`]s, for
//!   tests, examples and benchmarks.
//! * [`TcpTransport`] / [`TcpZkClient`] — the [`ZkClient`] session API over
//!   a socket, with failover across server addresses and [`ZkError::Net`]
//!   surfaced to the retry layer. Requests are queued on `send` and leave
//!   on the caller's thread when it waits in `recv`.
//! * [`remote_status`] — a one-shot out-of-process status probe, used by
//!   the kill-9 recovery harness to interrogate `coord_server` processes.
//!
//! Two failure models. The real one is to kill the process (or
//! [`TcpCluster::stop`] a member): the WAL directory is the durable
//! identity, the socket address is not. The in-process one is
//! [`TcpCluster::crash`] and [`TcpCluster::restart`]: the member drops its
//! volatile state and goes silent, but keeps its listener and every
//! connection open, so a client notices only by timing out — the failure a
//! closed socket never shows.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use dufs_net::{
    connect, connect_demux, AcceptHandle, Backoff, Conn, ConnEvent, EndpointKind, Hello, Listener,
    NetConfig, NetStats, NetStatsSnapshot, Wire,
};
use dufs_wal::FileStorage;
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};
use dufs_zkstore::ZkError;

use crate::api::{ClientOptions, ZkRequest};
use crate::event_loop::{Host, Member};
use crate::runtime::{ClientEvent, ClientTransport, ServerStatus, ZkClient};
use crate::server::{ClientId, CoordMsg, ServerIn, ServerOut};
use crate::wire::{ClientFrame, ServerFrame};

/// Multiplier applied to every protocol timer by the live runtime. The
/// state machines are tuned for a quiet network; on a loaded CI machine,
/// scheduling jitter of hundreds of ms would otherwise trip watchdogs and
/// flap elections. Relative timing is preserved.
const TIME_DILATION: u64 = 3;

/// Longest the loop sleeps when no timer is due sooner.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// Most events one pass of the loop takes before its durability point —
/// ZooKeeper's bound on one group fsync, too (`SyncRequestProcessor` flushes
/// after 1 000 requests). A pass takes what is ready, never waits for more.
const PASS_EVENTS: usize = 1_000;

/// Everything a [`TcpServer`] needs to know at spawn time.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// This server's peer id (an index into `peer_addrs`).
    pub me: PeerId,
    /// Every ensemble member's address, indexed by peer id.
    pub peer_addrs: Vec<SocketAddr>,
    /// The first `voters` members vote; the rest are observers.
    pub voters: usize,
    /// When set, run durably: WAL + checkpoints under this directory.
    pub wal_dir: Option<PathBuf>,
}

impl TcpServerConfig {
    /// A volatile (non-durable) member `me` of the ensemble at
    /// `peer_addrs`, all voting.
    pub fn new(me: PeerId, peer_addrs: Vec<SocketAddr>) -> Self {
        let voters = peer_addrs.len();
        TcpServerConfig { me, peer_addrs, voters, wal_dir: None }
    }
}

// What a `TcpServer`'s control cell asks of its loop, which loads it once
// a pass.
const RUNNING: u8 = 0;
const CRASHED: u8 = 1;
const STOPPED: u8 = 2;

/// One coordination server bound to a TCP address. Used in-process by
/// [`TcpCluster`] and as the whole body of the `coord_server` binary.
pub struct TcpServer {
    /// [`RUNNING`], [`CRASHED`] or [`STOPPED`].
    control: Arc<AtomicU8>,
    accept: Option<AcceptHandle>,
    join: Option<JoinHandle<()>>,
    addr: SocketAddr,
    stats: NetStats,
    /// The member's WAL fsyncs, stored at each durability point.
    wal_syncs: Arc<AtomicU64>,
}

impl TcpServer {
    /// Start serving on `listener` (already bound — bind to port 0 first
    /// when the ensemble's addresses must be known before any member
    /// starts). Panics on WAL recovery failure.
    pub fn spawn(listener: Listener, cfg: TcpServerConfig) -> TcpServer {
        let addr = listener.local_addr();
        let n = cfg.peer_addrs.len();
        assert!(cfg.voters >= 1 && cfg.voters <= n, "voters out of range");
        assert!((cfg.me.0 as usize) < n, "me out of range");
        let stats = NetStats::new();
        let control = Arc::new(AtomicU8::new(RUNNING));
        let wal_syncs = Arc::new(AtomicU64::new(0));

        // One event stream carries everything the loop reacts to: accepted
        // connections (any count, any kind), the dial-out peer links, and
        // their frames. No per-connection threads exist anywhere on this
        // path — the reactor pool carries the sockets.
        let (events_tx, events) = unbounded::<ConnEvent>();
        let my_hello = Hello { kind: EndpointKind::Server, id: cfg.me.0 as u64 };
        let accept = listener.spawn_accept_into(
            my_hello,
            NetConfig::default(),
            stats.clone(),
            events_tx.clone(),
        );
        let mut host = TcpHost {
            events,
            events_tx,
            control: control.clone(),
            me: cfg.me,
            stats: stats.clone(),
            wal_syncs: wal_syncs.clone(),
            clients: HashMap::new(),
            peers_in: HashMap::new(),
            links: (0..n as u32)
                .map(|i| {
                    let addr = cfg.peer_addrs[i as usize];
                    (PeerId(i) != cfg.me).then(|| Link { addr, id: 0, conn: None, backlog: vec![] })
                })
                .collect(),
            next_link_id: u64::MAX,
            written: Vec::new(),
            timers: Vec::new(),
        };
        (0..n).for_each(|to| host.dial(to, false));

        let ensemble = EnsembleConfig::with_observers(cfg.voters, n - cfg.voters);
        let (me, wal_dir) = (cfg.me, cfg.wal_dir);
        let join = std::thread::Builder::new()
            .name(format!("tcp-coord-{}", me.0))
            .spawn(move || {
                let epoch = Instant::now();
                // Built here, on the loop thread: a durable member holds a
                // `Box<dyn LogStorage>`, which is not `Send`.
                let log = wal_dir.map(|d| Box::new(FileStorage::new(&d).expect("open WAL")) as _);
                let (member, startup) = Member::new(me, ensemble, ZabConfig::default(), log);
                host.serve(member, startup, epoch)
            })
            .expect("spawn tcp server loop");

        TcpServer { control, accept: Some(accept), join: Some(join), addr, stats, wal_syncs }
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's transport counters (all its connections share them).
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// WAL fsyncs this member has issued (0 for a volatile one), as of its
    /// last durability point.
    pub fn wal_syncs(&self) -> u64 {
        self.wal_syncs.load(Ordering::Relaxed)
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
        self.control.store(STOPPED, Ordering::SeqCst);
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
    /// The [`TcpServer`]'s control cell.
    control: Arc<AtomicU8>,
    me: PeerId,
    stats: NetStats,
    /// The [`TcpServer`]'s copy of the member's WAL fsync count.
    wal_syncs: Arc<AtomicU64>,
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
    /// Event-stream ids of the client connections and dial-out links
    /// queued on since the last wait; the wait flushes exactly these.
    written: Vec<u64>,
    /// Armed timer tokens and when they come due. A token a crash voided
    /// stays until then, and fires nothing.
    timers: Vec<(Instant, u64)>,
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
        let (id, addr, net) = (link.id, link.addr, NetConfig::default());
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
                let _ = conn.queue(payload);
            }
            link.conn = Some(conn);
            self.wrote(id);
            return;
        }
        match conn.remote().kind {
            EndpointKind::Peer => {
                let from = PeerId(conn.remote().id as u32);
                self.peers_in.insert(id, (from, conn));
            }
            EndpointKind::Client | EndpointKind::Admin => {
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

    /// Decode one inbound frame in place into the member's next input, or
    /// answer it here if it is a status probe. A frame that passed the CRC
    /// but not the codec means the other end speaks something else: hang
    /// up (a peer redials; a client's retry layer reconnects).
    fn on_frame(&mut self, id: u64, payload: &[u8], member: &Member) -> Option<ServerIn> {
        let decoded = if self.clients.contains_key(&id) {
            ClientFrame::from_wire(payload).map(|frame| match frame {
                ClientFrame::Request { req_id, session, req } => {
                    Some(ServerIn::Client { client: id, req_id, session, req })
                }
                ClientFrame::Status { req_id } => {
                    self.send_client(id, ServerFrame::Status { req_id, status: member.status() });
                    None
                }
            })
        } else if let Some(&(from, _)) = self.peers_in.get(&id) {
            CoordMsg::from_wire(payload).map(|msg| Some(ServerIn::Peer { from, msg }))
        } else {
            // A dial-out link (peers answer on their own), or a connection
            // already hung up on.
            return None;
        };
        decoded.unwrap_or_else(|_| {
            self.clients.remove(&id);
            self.peers_in.remove(&id);
            None
        })
    }

    fn send_client(&mut self, to: ClientId, frame: ServerFrame) {
        if self.clients.get(&to).is_some_and(|conn| conn.queue(frame.to_wire()).is_ok()) {
            self.wrote(to);
        }
    }

    /// Note that connection `id` has frames queued for the next flush.
    fn wrote(&mut self, id: u64) {
        if !self.written.contains(&id) {
            self.written.push(id);
        }
    }

    /// Write out everything queued since the last wait, on this thread. A
    /// connection that fails here is reported dead on the event stream,
    /// where `on_closed` deals with it.
    fn flush_written(&mut self) {
        for id in self.written.drain(..) {
            let conn = match self.clients.get(&id) {
                Some(conn) => Some(conn),
                None => {
                    self.links.iter().flatten().find(|l| l.id == id).and_then(|l| l.conn.as_ref())
                }
            };
            if let Some(conn) = conn {
                let _ = conn.flush();
            }
        }
    }

    /// The loop thread's body, until the control cell says [`STOPPED`].
    /// Each pass reads the control cell, fires due timers and feeds the
    /// member every event the last wait took in; sends the leader's
    /// proposals among their outputs and flushes them; takes one durability
    /// point for the whole pass; routes and flushes the rest; then waits
    /// for the next events. `epoch` is the zero of the member's clock.
    fn serve(mut self, mut member: Member, startup: Vec<ServerOut>, epoch: Instant) {
        let now_ns = || epoch.elapsed().as_nanos() as u64;
        let mut outs = startup;
        let mut ready = Vec::new();
        loop {
            // The stream itself never closes while this loop holds
            // connections (each one's reactor state holds a sender), so
            // stopping is a flag — and so are crashing and restarting, which
            // leave every connection open: the member drops the traffic.
            match self.control.load(Ordering::SeqCst) {
                STOPPED => return,
                CRASHED => member.crash(),
                _ => outs.extend(member.restart(now_ns())),
            }
            let now = Instant::now();
            for (_, token) in self.timers.extract_if(.., |&mut (at, _)| at <= now) {
                outs.extend(member.fire(now_ns(), token).into_iter().flatten());
            }
            for event in ready.drain(..) {
                match event {
                    ConnEvent::Frame { id, payload } => {
                        if let Some(input) = self.on_frame(id, &payload, &member) {
                            outs.extend(member.handle(now_ns(), input));
                        }
                    }
                    ConnEvent::Opened { id, conn } => self.on_opened(id, conn),
                    ConnEvent::Closed { id } => self.on_closed(id),
                }
            }
            // The proposals leave first, so the followers log them while
            // this member syncs its own copy.
            member.route_proposals(&mut outs, &mut self);
            self.flush_written();
            if member.sync() {
                member.route(std::mem::take(&mut outs), &mut self);
            } else {
                outs.clear();
            }
            self.wal_syncs.store(member.server().wal_sync_count(), Ordering::Relaxed);
            // Everything the pass produced leaves before this thread waits.
            self.flush_written();
            let wait = self
                .timers
                .iter()
                .map(|&(at, _)| at.saturating_duration_since(Instant::now()))
                .min()
                .map_or(MAX_WAIT, |d| d.min(MAX_WAIT));
            if let Ok(event) = self.events.recv_timeout(wait) {
                ready.push(event);
                ready.extend(
                    std::iter::from_fn(|| self.events.try_recv().ok()).take(PASS_EVENTS - 1),
                );
            }
        }
    }
}

impl Host for TcpHost {
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
                if conn.queue(msg.to_wire()).is_ok() {
                    let id = link.id;
                    self.wrote(id);
                } else {
                    self.dial(to, true);
                }
            }
            None => link.backlog.push(msg.to_wire()),
        }
    }

    fn arm(&mut self, token: u64, after_ms: u64) {
        let at = Instant::now() + Duration::from_millis(after_ms * TIME_DILATION);
        self.timers.push((at, token));
    }
}

/// A whole coordination ensemble on loopback sockets. Members can be
/// individually [`TcpCluster::stop`]ped (the real failure model: the
/// process goes away, the address stays in everyone's member list), or
/// [`TcpCluster::crash`]ed and [`TcpCluster::restart`]ed in place.
pub struct TcpCluster {
    servers: Vec<Option<TcpServer>>,
    addrs: Vec<SocketAddr>,
}

impl TcpCluster {
    pub(crate) fn start_inner(voters: usize, observers: usize, wal_dir: Option<PathBuf>) -> Self {
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

    /// Crash one member: it drops its volatile state (a durable member keeps
    /// its log) and stops reacting, but keeps its listener and connections
    /// open. While down it answers no request or peer message and reports
    /// `alive: false` to status probes. Returns once the member's status
    /// says so, so a request sent after this returns is never served.
    /// Panics if the member was stopped.
    pub fn crash(&self, server_idx: usize) {
        self.control(server_idx, CRASHED);
    }

    /// Bring a [`TcpCluster::crash`]ed member back: it recovers from its log
    /// and rejoins. Returns once its status reports it alive.
    pub fn restart(&self, server_idx: usize) {
        self.control(server_idx, RUNNING);
    }

    fn control(&self, server_idx: usize, state: u8) {
        let server = self.servers[server_idx].as_ref().expect("member stopped");
        server.control.store(state, Ordering::SeqCst);
        while self.status(server_idx).alive != (state == RUNNING) {
            std::thread::sleep(Duration::from_millis(5));
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

    /// WAL fsyncs this member has issued, as of its last durability point
    /// (0 for a volatile ensemble). Panics if the member was stopped.
    pub fn wal_syncs(&self, server_idx: usize) -> u64 {
        self.servers[server_idx].as_ref().expect("member stopped").wal_syncs()
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

    /// Poll until every member reports one `digest` at one `last_applied`,
    /// and return that status; `None` if they still differ after `timeout`.
    pub fn converged(&self, timeout: Duration) -> Option<ServerStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let first = self.status(0);
            let same =
                |s: ServerStatus| s.digest == first.digest && s.last_applied == first.last_applied;
            if (1..self.len()).all(|i| same(self.status(i))) {
                return Some(first);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
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
/// [`ZkClient::request`]'s retry loop turns that into at-least-once
/// semantics through elections and failovers.
pub struct TcpTransport {
    addrs: Vec<SocketAddr>,
    cursor: usize,
    stats: NetStats,
    link: Option<(Conn, Receiver<Vec<u8>>)>,
    ever_connected: bool,
}

impl TcpTransport {
    /// A transport failing over across `addrs` (tried in order). Panics if
    /// `addrs` is empty.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        assert!(!addrs.is_empty(), "need at least one server address");
        TcpTransport { addrs, cursor: 0, stats: NetStats::new(), link: None, ever_connected: false }
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
            match connect(addr, hello, &NetConfig::default(), &self.stats) {
                Ok(pair) => {
                    if self.ever_connected {
                        self.stats.on_reconnect();
                    }
                    self.ever_connected = true;
                    self.link = Some(pair);
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
        // Leaves when the caller waits (`recv`), with whatever else was
        // sent before it: a burst of frames is one write.
        if conn.queue(payload).is_err() {
            // Dead socket: drop it and advance the failover cursor so the
            // retry doesn't hammer the same dead address first.
            self.link = None;
            self.cursor = (self.cursor + 1) % self.addrs.len();
            return Err(ZkError::Net);
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Option<ClientEvent> {
        // Our queued requests go out on this thread before it waits. A dead
        // link fails here and disconnects `rx`, which the loop sees.
        let _ = self.link.as_ref()?.0.flush();
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
                    Ok(ServerFrame::Status { .. }) => {} // admin frame on a session: skip
                    Err(_) => {
                        // CRC-valid but undecodable: protocol confusion,
                        // the link is not trustworthy.
                        self.link = None;
                        return None;
                    }
                },
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => {
                    self.link = None;
                    return None;
                }
            }
        }
    }

    fn on_retry(&mut self) {
        // A server that accepted our dial but stopped answering (it crashed
        // in place, or is partitioned from the leader) never breaks the
        // socket, so the only failover signal is the timeout that brought
        // us here. Pinned clients keep their link — redialing the same
        // address buys nothing.
        if self.addrs.len() > 1 {
            self.link = None;
            self.cursor = (self.cursor + 1) % self.addrs.len();
        }
    }

    fn reconnects(&self) -> u64 {
        self.stats.snapshot().reconnects
    }
}

/// The synchronous ZooKeeper-style client over a real socket.
pub type TcpZkClient = ZkClient<TcpTransport>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Watch;
    use crate::cluster::ClusterBuilder;
    use crate::session::CoordService;
    use bytes::Bytes;
    use dufs_zkstore::CreateMode;

    #[test]
    fn tcp_ensemble_elects_and_serves() {
        let cluster = ClusterBuilder::new().voters(3).tcp();
        let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let mut c = cluster.client(ClientOptions::at(leader)).unwrap();
        assert!(c.session() > 0);
        c.create("/tcp", Bytes::from_static(b"hello"), CreateMode::Persistent).unwrap();
        let (data, stat) = c.get_data("/tcp", Watch::None).unwrap();
        assert_eq!(&data[..], b"hello");
        assert_eq!(stat.version, 0);
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
