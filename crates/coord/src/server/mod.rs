//! The coordination server: ZAB replication + znode tree + sessions +
//! watches, as one pure state machine.
//!
//! Hosts (the discrete-event simulator in `dufs-mdtest`, the TCP server in
//! [`crate::tcp`], both through [`crate::event_loop::Member`]) feed
//! [`ServerIn`] events in, take the durability point
//! ([`CoordServer::sync`]) and execute the returned [`ServerOut`] actions.
//! All clocking comes in through the `now_ns` argument, so replicas stay
//! deterministic and the same code runs in virtual or real time.
//!
//! [`CoordServer`] itself is the event router: it owns the ZAB peer, the
//! tree replica and the watches, decides where each input goes and in what
//! order outputs leave, and holds the serving gate and the
//! reply-after-apply rule. The rest of its state is one value each of five
//! private types — `Inflight`, `Sessions`, `LeaseClock`, `TxnTable`,
//! `Durability` — each in its own file with its own invariant and the test
//! of it (DESIGN.md, "Anatomy of `CoordServer`").

mod durability;
mod inflight;
mod lease;
mod sessions;
mod txn_table;

use dufs_wal::{LogStorage, WalResult};
use dufs_zab::{
    EnsembleConfig, PeerId, Role, ZabAction, ZabConfig, ZabMsg, ZabPeer, ZabTimer, Zxid,
};
use dufs_zkstore::{path as zkpath, snapshot, DataTree, ZkError, ZkResult};

use crate::api::{LeaseGrant, ZkRequest, ZkResponse};
use crate::txn::{Txn, TxnOp};
use crate::watch::{WatchKind, WatchManager, WatchNotification};
use crate::WarmedDir;

pub use durability::CHECKPOINT_EVERY;
pub use lease::{LEASE_MARGIN_MS, LEASE_MS};
pub use sessions::{SESSION_SWEEP_MS, SESSION_TIMEOUT_MS};
pub use txn_table::TXN_PREFIX;

use durability::Durability;
use inflight::Inflight;
use lease::LeaseClock;
use sessions::Sessions;
use txn_table::TxnTable;

/// Opaque client handle assigned by the hosting runtime.
pub type ClientId = u64;

/// Messages between coordination servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// Replication-protocol traffic.
    Zab(ZabMsg<Txn>),
    /// Follower → leader: propose this mutation on my behalf.
    Forward {
        /// Session issuing the mutation.
        session: u64,
        /// The mutation.
        op: TxnOp,
        /// The server that owns the client connection.
        origin: PeerId,
        /// Origin-local pending-request tag.
        tag: u64,
    },
    /// Forward bounced: the receiver is not the leader and knows no better
    /// target. The origin fails the pending request so its client retries.
    ForwardReject {
        /// The origin's pending-request tag.
        tag: u64,
    },
    /// Leader → followers, alongside each heartbeat ping: lease authority.
    /// "`age_ms` milliseconds ago I held evidence that a quorum still
    /// followed me, and my committed watermark was `commit_to`." A follower
    /// that has applied up to `commit_to` may anchor staleness leases at
    /// (receipt time − `age_ms`): no rival leader can have committed
    /// anything before that instant that this follower hasn't applied.
    LeaseAuth {
        /// The leader's committed zxid (raw) when the evidence was taken.
        commit_to: u64,
        /// Age of the leader's quorum evidence when this message was sent.
        age_ms: u32,
    },
}

/// Timers the server arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordTimer {
    /// Replication-layer timer.
    Zab(ZabTimer),
    /// Periodic session-expiry sweep.
    SessionSweep,
}

/// Input events.
#[derive(Debug, Clone)]
pub enum ServerIn {
    /// A request from a locally connected client.
    Client {
        /// Runtime-assigned client handle.
        client: ClientId,
        /// Client-chosen request id, echoed in the response.
        req_id: u64,
        /// The client's session (0 until `Connect` completes).
        session: u64,
        /// The request.
        req: ZkRequest,
    },
    /// A message from a peer server.
    Peer {
        /// Sending peer.
        from: PeerId,
        /// The message.
        msg: CoordMsg,
    },
    /// A timer armed earlier has fired.
    Timer(CoordTimer),
}

/// Output actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerOut {
    /// Respond to a client request.
    Client {
        /// Target client.
        client: ClientId,
        /// Echo of the request id.
        req_id: u64,
        /// The response.
        resp: ZkResponse,
    },
    /// Send to a peer server.
    Peer {
        /// Destination.
        to: PeerId,
        /// The message.
        msg: CoordMsg,
    },
    /// Arm a timer.
    Timer {
        /// Which timer.
        timer: CoordTimer,
        /// Delay in milliseconds.
        after_ms: u64,
    },
    /// Deliver a watch notification to a client.
    Watch {
        /// Target client.
        client: ClientId,
        /// The notification.
        note: WatchNotification,
    },
}

/// One coordination server (one member of the ensemble).
pub struct CoordServer {
    me: PeerId,
    config: EnsembleConfig,
    zcfg: ZabConfig,
    peer: ZabPeer<Txn>,
    tree: DataTree,
    watches: WatchManager<ClientId>,
    inflight: Inflight,
    sessions: Sessions,
    lease: LeaseClock,
    txns: TxnTable,
    durability: Durability,
    last_applied: u64,
    /// History tail as of this replica's last follower sync. Everything
    /// committed before the sync lies at or below it, but the sync itself
    /// may have delivered less (a leader still establishing ships a stale
    /// commit watermark, and a reset sync rebuilds the tree from it) — so
    /// session reads wait until `last_applied` reaches it.
    serve_floor: u64,
}

impl CoordServer {
    /// Build a server; returns startup actions (election traffic and the
    /// session sweep timer). Uses the default [`ZabConfig`]: one broadcast
    /// round per transaction.
    pub fn new(me: PeerId, config: EnsembleConfig) -> (Self, Vec<ServerOut>) {
        Self::new_with_config(me, config, ZabConfig::default())
    }

    /// Build a server with explicit group-commit tuning. With
    /// `zab.max_batch > 1` the leader accumulates client writes submitted
    /// while a broadcast round is in flight and replicates them as one
    /// batch; responses still fan back out per pending tag in `apply`.
    pub fn new_with_config(
        me: PeerId,
        config: EnsembleConfig,
        zab: ZabConfig,
    ) -> (Self, Vec<ServerOut>) {
        Self::start(me, config, zab, None).expect("only a log can fail to open")
    }

    /// Build a server backed by a write-ahead log: ZAB appends are fsynced
    /// at the host's durability point ([`CoordServer::sync`]) *before* any
    /// output that depends on them leaves but a leader's proposals,
    /// checkpoints mirror into the log directory, and a cold start recovers
    /// from the newest decodable snapshot plus the log tail.
    ///
    /// If `storage` already holds a log (a previous incarnation's), the
    /// server resumes from it. Fails if the log cannot be read back or
    /// synced.
    pub fn new_durable(
        me: PeerId,
        config: EnsembleConfig,
        zab: ZabConfig,
        storage: Box<dyn LogStorage>,
    ) -> WalResult<(Self, Vec<ServerOut>)> {
        Self::start(me, config, zab, Some(storage))
    }

    fn start(
        me: PeerId,
        config: EnsembleConfig,
        zab: ZabConfig,
        storage: Option<Box<dyn LogStorage>>,
    ) -> WalResult<(Self, Vec<ServerOut>)> {
        let (peer, mut acts) = ZabPeer::new_with_config(me, config.clone(), zab);
        let mut s = CoordServer {
            me,
            config,
            zcfg: zab,
            peer,
            tree: DataTree::new(),
            watches: WatchManager::new(),
            inflight: Inflight::new(),
            sessions: Sessions::new(),
            lease: LeaseClock::default(),
            txns: TxnTable::default(),
            durability: Durability::new(),
            last_applied: 0,
            serve_floor: 0,
        };
        if storage.is_some() {
            acts = s.recover(storage)?;
        }
        let out = s.boot(acts);
        if s.is_fenced() {
            let failed = std::io::Error::other("the log failed while the server started");
            return Err(failed.into());
        }
        Ok((s, out))
    }

    /// Adopt the history in the write-ahead log: at cold start from `fresh`
    /// storage, at restart (`None`) from the log already open.
    fn recover(&mut self, fresh: Option<Box<dyn LogStorage>>) -> WalResult<Vec<ZabAction<Txn>>> {
        let (peer, acts, (free_tag, free_session)) =
            self.durability.recover(fresh, self.me, &self.config, self.zcfg)?;
        self.peer = peer;
        self.inflight.resume_from(free_tag);
        self.sessions.resume_from(free_session);
        Ok(acts)
    }

    /// Run the replication layer's opening actions and arm the session
    /// sweep: what a server emits when it comes up, behind a durability
    /// point of its own (which also makes a recovered log's truncation and
    /// fresh tail segment durable).
    fn boot(&mut self, acts: Vec<ZabAction<Txn>>) -> Vec<ServerOut> {
        let mut out = Vec::new();
        self.absorb_zab(acts, &mut out);
        out.push(ServerOut::Timer { timer: CoordTimer::SessionSweep, after_ms: SESSION_SWEEP_MS });
        if !self.sync() {
            return Vec::new();
        }
        out
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// This server's peer id.
    pub fn id(&self) -> PeerId {
        self.me
    }
    /// The replicated tree (local replica) — read-only.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }
    /// Whether this server is the established leader.
    pub fn is_leader(&self) -> bool {
        self.peer.is_established_leader()
    }
    /// Replication role.
    pub fn role(&self) -> Role {
        self.peer.role()
    }
    /// Best guess at the current leader.
    pub fn leader_hint(&self) -> Option<PeerId> {
        self.peer.leader_hint()
    }
    /// Raw zxid applied up to.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }
    /// Raw zxid the replication layer has committed up to (may run ahead
    /// of [`CoordServer::last_applied`] while deliveries drain).
    pub fn committed(&self) -> u64 {
        self.peer.committed().as_u64()
    }
    /// Number of transactions applied.
    pub fn applied_count(&self) -> u64 {
        self.durability.applied_count()
    }
    /// Replication-log length after compaction (diagnostics).
    pub fn log_len(&self) -> usize {
        self.peer.log_len()
    }
    /// The zxid covered by the last checkpoint.
    pub fn snapshot_zxid(&self) -> u64 {
        self.peer.snapshot_zxid().as_u64()
    }
    /// Number of sessions connected here.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
    /// Whether this server runs with a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.wal().is_some()
    }
    /// Number of prepared (undecided) cross-shard transactions parked here.
    pub fn prepared_txn_count(&self) -> usize {
        self.txns.len()
    }
    /// Whether the server has self-fenced after a WAL failure: it drops
    /// every input (and every output of the failing event) until
    /// [`CoordServer::on_restart`] re-derives its state from disk.
    pub fn is_fenced(&self) -> bool {
        self.durability.fenced()
    }
    /// Lease grants issued to clients so far (one per granting `Pong`).
    pub fn leases_granted(&self) -> u64 {
        self.lease.granted()
    }

    /// The staleness lease this server can currently grant, if any: a
    /// leader grants from its own quorum evidence, a follower from the
    /// newest matured [`CoordMsg::LeaseAuth`] anchor. `None` whenever the
    /// authority window (minus margin) is exhausted — callers must then
    /// fall back to the sync-barrier path. A `Ping` is the one asker.
    fn lease_grant(&mut self, now_ns: u64) -> Option<LeaseGrant> {
        self.lease.grant(now_ns, &self.peer, &self.config)
    }
    /// Total fsyncs the WAL has issued (0 without one). The simulator
    /// charges `FSYNC` service time per increment of this counter.
    pub fn wal_sync_count(&self) -> u64 {
        self.durability.wal().map_or(0, |w| w.sync_count())
    }
    /// Total records the WAL has appended (0 without one).
    pub fn wal_append_count(&self) -> u64 {
        self.durability.wal().map_or(0, |w| w.append_count())
    }

    // ------------------------------------------------------------------
    // Event entry point
    // ------------------------------------------------------------------

    /// Feed one input event and take the durability point; returns the
    /// actions to execute. `now_ns` is the host's clock (virtual or real).
    /// The synchronous form, for hosts that take one event at a time:
    /// [`CoordServer::handle_unsynced`] then [`CoordServer::sync`].
    pub fn handle(&mut self, now_ns: u64, input: ServerIn) -> Vec<ServerOut> {
        let out = self.handle_unsynced(now_ns, input);
        if !self.sync() {
            return Vec::new();
        }
        out
    }

    /// Feed one input event without taking the durability point. What it
    /// persisted is owed a [`CoordServer::sync`], and until that returns
    /// `true` no output emitted since the last one may leave but a leader's
    /// proposals ([`crate::event_loop::Member::route_proposals`]): a reply,
    /// an ack or a commit may promise what is not durable yet. A host may
    /// feed several events before one sync, and routes the held outputs of
    /// all of them after it.
    pub fn handle_unsynced(&mut self, now_ns: u64, input: ServerIn) -> Vec<ServerOut> {
        if self.durability.fenced() {
            // A WAL write failed earlier: the durable suffix is unknown, so
            // the server behaves as crashed until restarted from disk.
            return Vec::new();
        }
        // Lease ages are measured on the host clock; `absorb_zab` (which
        // has no clock argument) reads the event's timestamp from there.
        self.lease.tick(now_ns);
        let mut out = Vec::new();
        match input {
            ServerIn::Client { client, req_id, session, req } => {
                self.handle_client(now_ns, client, req_id, session, req, &mut out)
            }
            ServerIn::Peer { from, msg } => self.handle_peer(now_ns, from, msg, &mut out),
            ServerIn::Timer(t) => self.handle_timer(now_ns, t, &mut out),
        }
        if self.durability.fenced() {
            // The event that fenced us may have queued sends that promise
            // un-durable state: drop everything it produced.
            return Vec::new();
        }
        out
    }

    /// The durability point: one fsync for everything the replication
    /// layer persisted since the last one, none if nothing was. `false`
    /// means the log failed (now or earlier): the server is fenced, and
    /// every output held since the last durability point must be dropped —
    /// the events that produced them may have queued sends that promise
    /// un-durable state. The only fsync the server asks of its log (which
    /// also syncs itself where it rotates, checkpoints or resets).
    ///
    /// A leader may send its proposals before this (ZooKeeper logs a
    /// proposal on the leader while the followers log it too). Its own
    /// implicit ack still counts only after it: an `Ack` to a proposal is
    /// handled in a later pass than the one that sent it, past that pass's
    /// durability point.
    pub fn sync(&mut self) -> bool {
        if !self.durability.fenced() {
            self.durability.sync();
        }
        !self.durability.fenced()
    }

    /// The tree replica is void (crashed, or about to be rebuilt from
    /// scratch), and with it what is derived from it.
    fn reset_replica(&mut self) {
        self.tree = DataTree::new();
        self.txns.reset();
        self.last_applied = 0;
    }

    /// Crash: volatile state (tree replica, watches, sessions, pending) is
    /// lost. In-memory mode the ZAB peer's log fields survive (ZooKeeper's
    /// disk, abstracted); in durable mode the storage backend drops every
    /// unsynced byte and recovery at restart comes from the log itself.
    pub fn on_crash(&mut self) {
        self.peer.on_crash();
        self.durability.crash();
        self.reset_replica();
        self.watches = WatchManager::new();
        self.inflight.reset();
        self.lease.reset();
        self.sessions.reset();
    }

    /// Restart after a crash: replay the durable history into a fresh tree
    /// and rejoin the ensemble. Durable servers re-derive *everything* from
    /// their write-ahead log (cold start); in-memory servers replay the ZAB
    /// peer's surviving fields.
    pub fn on_restart(&mut self, _now_ns: u64) -> Vec<ServerOut> {
        let acts = if self.is_durable() {
            match self.recover(None) {
                Ok(acts) => acts,
                Err(_) => return Vec::new(), // still fenced; the host retries
            }
        } else {
            self.peer.on_restart()
        };
        self.boot(acts)
    }

    // ------------------------------------------------------------------
    // Client requests
    // ------------------------------------------------------------------

    fn handle_client(
        &mut self,
        now_ns: u64,
        client: ClientId,
        req_id: u64,
        session: u64,
        req: ZkRequest,
        out: &mut Vec<ServerOut>,
    ) {
        self.sessions.touch(session, client, now_ns / 1_000_000);
        if req.is_read() && !matches!(req, ZkRequest::Ping) && !self.serving() {
            // ZooKeeper's rule: only a replica inside an established regime
            // answers reads. A restarted, electing or still-syncing replica
            // may hold a tree older than a write this very session had acked
            // here; the client retries (and fails over) on this error.
            let resp = ZkResponse::Error(ZkError::ConnectionLoss);
            out.push(ServerOut::Client { client, req_id, resp });
            return;
        }
        let (read, watch) = match req {
            // ---- reads: served from the local replica ----
            ZkRequest::GetData { path, watch } => {
                let read = self.tree.get_data(&path);
                let read = read.map(|(data, stat)| ZkResponse::Data { data, stat });
                (read, watch.then_some((path, WatchKind::Data)))
            }
            ZkRequest::Exists { path, watch } => {
                let read = self.tree.exists(&path).map(ZkResponse::ExistsResult);
                (read, watch.then_some((path, WatchKind::Exists)))
            }
            ZkRequest::GetChildren { path, watch } => {
                let read = self.tree.get_children(&path);
                let read = read.map(|(names, stat)| ZkResponse::Children { names, stat });
                (read, watch.then_some((path, WatchKind::Children)))
            }
            ZkRequest::GetChildrenData { path } => {
                let read = self.list_children(&path, None);
                (read.map(|(entries, _)| ZkResponse::ChildrenData { entries }), None)
            }
            // READDIRPLUS bulk warm: the GetChildrenData listing, plus the
            // watches a caching client would otherwise need N+1 round trips
            // to leave behind.
            ZkRequest::WarmChildren { path } => {
                let read = self.list_children(&path, Some(client));
                (read.map(|(entries, stat)| ZkResponse::WarmedChildren { entries, stat }), None)
            }
            ZkRequest::Ping => {
                let lease = self.lease_grant(now_ns);
                (Ok(ZkResponse::Pong { zxid: self.last_applied, lease }), None)
            }
            // ---- sync: a no-op barrier proposed through ZAB ----
            // Every barrier is its own no-op: it rides the write path
            // (forwarded to the leader like any mutation) and its response
            // fires in `apply`, once *this* replica has applied it — and,
            // by total order, everything committed before it.
            ZkRequest::Sync => {
                self.submit_write(now_ns, client, req_id, session, TxnOp::Noop, out);
                return;
            }
            // ---- session management (a replicated mutation) ----
            ZkRequest::Connect => {
                let session = self.sessions.open(self.me, client, now_ns / 1_000_000);
                let op = TxnOp::CreateSession { session };
                self.submit_write(now_ns, client, req_id, session, op, out);
                return;
            }
            // ---- every other request is a mutation that maps 1:1 onto the
            // op replicated for it (cross-shard 2PC steps included: their
            // coordinator lives client-side) ----
            write => {
                let op = TxnOp::from_request(write, session)
                    .expect("reads, Sync and Connect are matched above");
                self.submit_write(now_ns, client, req_id, session, op, out);
                return;
            }
        };
        // A read leaves its watch behind only if it succeeded.
        if let (Ok(_), Some((path, kind))) = (&read, watch) {
            self.watches.register(&path, kind, client);
        }
        let resp = read.unwrap_or_else(ZkResponse::Error);
        out.push(ServerOut::Client { client, req_id, resp });
    }

    /// `(name, data, stat)` of every child of `path` still there to read,
    /// and the parent's own stat: the body of both batched listings. For a
    /// `watcher` it also leaves a child watch on the parent and a data
    /// watch on every child that made it into the reply.
    fn list_children(&mut self, path: &str, watcher: Option<ClientId>) -> ZkResult<WarmedDir> {
        let (names, stat) = self.tree.get_children(path)?;
        if let Some(client) = watcher {
            self.watches.register(path, WatchKind::Children, client);
        }
        let mut entries = Vec::with_capacity(names.len());
        for name in names {
            let child = zkpath::join(path, &name);
            if let Ok((data, cstat)) = self.tree.get_data(&child) {
                if let Some(client) = watcher {
                    self.watches.register(&child, WatchKind::Data, client);
                }
                entries.push((name, data, cstat));
            }
        }
        Ok((entries, stat))
    }

    /// Whether this replica may answer session reads: it leads an
    /// established regime, or follows one and has applied everything its
    /// sync handshake promised (see `serve_floor`). While this holds the
    /// tree only moves forward, so a write acked here stays visible here.
    fn serving(&self) -> bool {
        self.peer.is_established_leader()
            || (matches!(self.peer.role(), Role::Following { synced: true, .. })
                && self.last_applied >= self.serve_floor)
    }

    /// Originate a mutation for `client`.
    fn submit_write(
        &mut self,
        now_ns: u64,
        client: ClientId,
        req_id: u64,
        session: u64,
        op: TxnOp,
        out: &mut Vec<ServerOut>,
    ) {
        let tag = self.inflight.alloc(client, req_id);
        let txn = Txn { session, op, origin: self.me, tag, time_ns: now_ns };
        if !self.propose_or_forward(txn, false, out) {
            self.inflight.fail(tag, out);
        }
    }

    /// The one way a transaction enters replication: proposed here if this
    /// server is the established leader, else sent on to the leader it knows
    /// of; `false` means it went nowhere. A `relayed` one (it reached us as a
    /// [`CoordMsg::Forward`]) is never sent back to ourselves — a server that
    /// believes it leads but has not established bounces it instead.
    fn propose_or_forward(&mut self, txn: Txn, relayed: bool, out: &mut Vec<ServerOut>) -> bool {
        if self.peer.is_established_leader() {
            // Sync barriers skip group-commit batching: a lone no-op
            // waiting out the Nagle timer would add flush_ms to every
            // barrier read.
            let proposed = if matches!(txn.op, TxnOp::Noop) {
                self.peer.propose_urgent(txn)
            } else {
                self.peer.propose(txn)
            };
            let acts = proposed.expect("an established leader takes proposals");
            self.absorb_zab(acts, out);
            return true;
        }
        match self.peer.leader_hint() {
            Some(leader) if !(relayed && leader == self.me) => {
                let Txn { session, op, origin, tag, .. } = txn;
                let msg = CoordMsg::Forward { session, op, origin, tag };
                out.push(ServerOut::Peer { to: leader, msg });
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Peer messages
    // ------------------------------------------------------------------

    fn handle_peer(&mut self, now_ns: u64, from: PeerId, msg: CoordMsg, out: &mut Vec<ServerOut>) {
        match msg {
            CoordMsg::Zab(m) => {
                // Lease authority evidence: a Pong/Ack/AckSync from a voter
                // proves that voter still followed this leader when it sent
                // the message — it had not promised a higher epoch, so no
                // rival leader can have been established before now.
                if self.peer.is_established_leader()
                    && self.config.peers().contains(&from)
                    && matches!(m, ZabMsg::Pong | ZabMsg::Ack { .. } | ZabMsg::AckSync { .. })
                {
                    self.lease.record_evidence(from, now_ns / 1_000_000);
                }
                let acts = self.peer.on_message(from, m);
                self.absorb_zab(acts, out);
            }
            CoordMsg::Forward { session, op, origin, tag } => {
                let txn = Txn { session, op, origin, tag, time_ns: now_ns };
                if !self.propose_or_forward(txn, true, out) {
                    // Not the leader (anymore) and no better target known:
                    // bounce, so the origin can fail the request and let
                    // its client retry.
                    let msg = CoordMsg::ForwardReject { tag };
                    out.push(ServerOut::Peer { to: origin, msg });
                }
            }
            CoordMsg::ForwardReject { tag } => self.inflight.fail(tag, out),
            CoordMsg::LeaseAuth { commit_to, age_ms } => {
                // Only trust authority claims from the leader we currently
                // follow; a deposed leader pinging its minority partition
                // fails this check as soon as we learn of the new regime
                // (and its claims expire on their own age regardless).
                if !self.peer.is_established_leader() && self.peer.leader_hint() == Some(from) {
                    self.lease.record_auth(now_ns / 1_000_000, commit_to, age_ms);
                    self.lease.mature(self.last_applied);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn handle_timer(&mut self, now_ns: u64, timer: CoordTimer, out: &mut Vec<ServerOut>) {
        match timer {
            CoordTimer::Zab(t) => {
                let acts = self.peer.on_timer(t);
                self.absorb_zab(acts, out);
            }
            CoordTimer::SessionSweep => {
                for session in self.sessions.expired(now_ns / 1_000_000) {
                    self.sessions.remove(session, &mut self.watches);
                    // Fire-and-forget close; no client awaits it.
                    let op = TxnOp::CloseSession { session };
                    let tag = self.inflight.alloc_detached();
                    let txn = Txn { session, op, origin: self.me, tag, time_ns: now_ns };
                    self.propose_or_forward(txn, false, out);
                }
                let timer = CoordTimer::SessionSweep;
                out.push(ServerOut::Timer { timer, after_ms: SESSION_SWEEP_MS });
            }
        }
    }

    // ------------------------------------------------------------------
    // ZAB action absorption and transaction application
    // ------------------------------------------------------------------

    /// Carry out the replication layer's actions. A `Persist` is written
    /// to the log here and owes the next durability point
    /// ([`CoordServer::sync`]); the outputs it guards wait for that point
    /// in the host, not here.
    fn absorb_zab(&mut self, acts: Vec<ZabAction<Txn>>, out: &mut Vec<ServerOut>) {
        for a in acts {
            if self.durability.fenced() {
                return;
            }
            match a {
                ZabAction::Persist(ev) => self.durability.persist(ev),
                ZabAction::Send { to, msg } => {
                    // Ship lease authority alongside every heartbeat ping.
                    let auth = match &msg {
                        ZabMsg::Ping { commit_to, .. } => {
                            self.lease.auth_for_ping(commit_to.as_u64(), self.me, &self.config)
                        }
                        _ => None,
                    };
                    out.push(ServerOut::Peer { to, msg: CoordMsg::Zab(msg) });
                    if let Some(auth) = auth {
                        out.push(ServerOut::Peer { to, msg: auth });
                    }
                }
                ZabAction::SetTimer { timer, after_ms } => {
                    out.push(ServerOut::Timer { timer: CoordTimer::Zab(timer), after_ms })
                }
                ZabAction::Deliver { zxid, txn } => self.apply(zxid, txn, out),
                ZabAction::ResetState => self.reset_replica(),
                ZabAction::RestoreSnapshot { zxid, blob } => {
                    self.tree = snapshot::decode(&blob)
                        .expect("a replica only ships snapshots it produced");
                    self.last_applied = zxid.as_u64();
                    // The snapshot may carry `/__txn/*` markers for
                    // transactions prepared before it was cut.
                    self.txns.rebuild(&self.tree);
                }
                ZabAction::BecameLeader { .. } | ZabAction::BecameFollower { .. } => {
                    // Authority derived under the previous regime is void:
                    // a new leader must re-earn quorum evidence, a new
                    // follower must hear fresh LeaseAuth from its leader.
                    self.lease.reset();
                    // Both arrive with the regime's starting history in the
                    // log, so its tail bounds every earlier commit. A leader
                    // has applied up to it; a follower may not have yet.
                    self.serve_floor = self.peer.last_zxid().as_u64();
                }
                ZabAction::StartedElection => {
                    self.lease.reset();
                    self.inflight.fail_all(out);
                }
            }
        }
    }

    fn apply(&mut self, zxid: Zxid, txn: Txn, out: &mut Vec<ServerOut>) {
        let z = zxid.as_u64();
        let t = txn.time_ns;
        let tree = &mut self.tree;
        let (resp, events) = if let Some(e) = self.txns.conflict(&txn.op) {
            // The op touches a path parked under a prepared (undecided)
            // cross-shard transaction. Rejecting *at apply time* keeps the
            // outcome identical on every replica; the client retries once
            // the decision clears the fence.
            (ZkResponse::Error(e), Vec::new())
        } else {
            let done = match &txn.op {
                TxnOp::Create { path, data, mode } => tree
                    .create(path, data.clone(), *mode, txn.session, z, t)
                    .map(|(path, ev)| (ZkResponse::Created { path }, ev)),
                TxnOp::CreatePath { path, data, mode } => tree
                    .create_path(path, data.clone(), *mode, txn.session, z, t)
                    .map(|(path, ev)| (ZkResponse::Created { path }, ev)),
                TxnOp::Delete { path, version } => {
                    tree.delete(path, *version, z, t).map(|ev| (ZkResponse::Deleted, ev))
                }
                TxnOp::SetData { path, data, version } => tree
                    .set_data(path, data.clone(), *version, z, t)
                    .map(|(stat, ev)| (ZkResponse::Stat(stat), ev)),
                TxnOp::Multi { ops } => tree
                    .apply_multi(ops, txn.session, z, t)
                    .map(|(results, ev)| (ZkResponse::MultiResults(results), ev))
                    .map_err(|(_, e)| e),
                TxnOp::CreateSession { session } => {
                    Ok((ZkResponse::Connected { session: *session }, Vec::new()))
                }
                TxnOp::CloseSession { session } => {
                    let (_, ev) = tree.close_session(*session, z, t);
                    // Transactions the session prepared but never decided
                    // stay parked and fenced: this shard cannot know whether
                    // the coordinator's commit already applied on another
                    // participant, so a unilateral abort here could tear a
                    // cross-shard transaction in half. The sharded client's
                    // recovery sweep (`ShardedClient::recover_txns`) owns
                    // resolving orphans via the durable decision record.
                    self.sessions.remove(*session, &mut self.watches);
                    Ok((ZkResponse::Closed, ev))
                }
                // A sync barrier: nothing to mutate. The response below (at
                // the origin) proves this replica has applied everything
                // committed before the barrier.
                TxnOp::Noop => Ok((ZkResponse::Synced { zxid: z }, Vec::new())),
                TxnOp::Prepare2pc { txn_id, ops, participants } => self
                    .txns
                    .prepare(tree, *txn_id, ops, participants, txn.session, z, t)
                    .map(|ev| (ZkResponse::Prepared, ev)),
                TxnOp::Commit2pc { txn_id } => Ok(self.txns.commit(tree, *txn_id, z, t)),
                TxnOp::Abort2pc { txn_id } => Ok(self.txns.abort(tree, *txn_id, z, t)),
            };
            done.unwrap_or_else(|e| (ZkResponse::Error(e), Vec::new()))
        };
        // Read-your-writes without a barrier rests on this order: the tree
        // and `last_applied` move first, and the reply below goes out only
        // at the origin replica — so a session that has collected a write's
        // ack knows the replica it talks to has applied that write, and
        // (FIFO link, single-threaded replica, `serving` gate) every later
        // read it sends there sees it.
        self.last_applied = z;
        // The apply watermark moved: lease-authority observations waiting
        // on it may now anchor grants.
        self.lease.mature(z);
        // Fuzzy snapshot, when one is due: checkpoint the applied state and
        // let the replication layer drop the covered log prefix.
        if let Some(blob) = self.durability.checkpoint(z, &self.tree) {
            self.peer.install_snapshot(zxid, blob);
        }
        if self.durability.fenced() {
            return;
        }
        for ev in &events {
            for (client, note) in self.watches.fire(ev) {
                out.push(ServerOut::Watch { client, note });
            }
        }
        if txn.origin == self.me {
            self.inflight.complete(txn.tag, resp, out);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The shared test kit (a synchronous single-server ensemble and a
    //! deterministic three-server pump) and the tests of the router itself:
    //! request → replicate → apply → respond, the serving gate and the
    //! reply-after-apply rule. Each piece's tests sit in its own file.

    use super::*;
    use bytes::Bytes;
    use dufs_zkstore::{CreateMode, MultiOp};

    /// Single-server ensemble: every request completes synchronously, which
    /// lets us unit-test the full request → replicate → apply → respond
    /// path without a runtime.
    pub(super) fn single() -> CoordServer {
        let (s, _) = CoordServer::new(PeerId(0), EnsembleConfig::of_size(1));
        assert!(s.is_leader());
        s
    }

    pub(super) fn client_resp(out: &[ServerOut]) -> &ZkResponse {
        out.iter()
            .find_map(|o| match o {
                ServerOut::Client { resp, .. } => Some(resp),
                _ => None,
            })
            .expect("a client response")
    }

    pub(super) fn req(s: &mut CoordServer, session: u64, r: ZkRequest) -> ZkResponse {
        let out = s.handle(1_000_000, ServerIn::Client { client: 1, req_id: 0, session, req: r });
        client_resp(&out).clone()
    }

    pub(super) fn create_a() -> ZkRequest {
        ZkRequest::Create {
            path: "/a".into(),
            data: Bytes::from_static(b"v"),
            mode: CreateMode::Persistent,
        }
    }

    /// Deterministic in-process message pump for a multi-server ensemble:
    /// virtual clock, FIFO peer links, timers fired in due order. Messages
    /// are always delivered before time advances, so elections converge and
    /// leader pings keep follower watchdogs quiet — exactly the quiescent
    /// steady state the lease protocol assumes.
    pub(super) struct Pump {
        pub(super) servers: Vec<CoordServer>,
        pub(super) inbox: std::collections::VecDeque<(usize, PeerId, CoordMsg)>,
        pub(super) timers: Vec<(u64, usize, CoordTimer)>,
        pub(super) resps: Vec<Vec<(ClientId, u64, ZkResponse)>>,
        pub(super) now_ms: u64,
    }

    impl Pump {
        pub(super) fn trio() -> Pump {
            Pump::trio_of(CoordServer::new)
        }

        pub(super) fn trio_of(
            make: impl Fn(PeerId, EnsembleConfig) -> (CoordServer, Vec<ServerOut>),
        ) -> Pump {
            let n = 3;
            let mut p = Pump {
                servers: Vec::new(),
                inbox: std::collections::VecDeque::new(),
                timers: Vec::new(),
                resps: vec![Vec::new(); n],
                now_ms: 0,
            };
            for i in 0..n {
                let (s, outs) = make(PeerId(i as u32), EnsembleConfig::of_size(n));
                p.servers.push(s);
                p.route(i, outs);
            }
            p
        }

        /// Ask `srv` for `/a` right now and take the answer (reads reply
        /// on the spot).
        pub(super) fn read_a(&mut self, srv: usize) -> ZkResponse {
            self.client(srv, 9, 99, ZkRequest::GetData { path: "/a".into(), watch: false });
            let i = self.resps[srv].iter().position(|r| r.1 == 99).expect("reads answer at once");
            self.resps[srv].remove(i).2
        }

        pub(super) fn now_ns(&self) -> u64 {
            self.now_ms * 1_000_000
        }

        pub(super) fn route(&mut self, from: usize, outs: Vec<ServerOut>) {
            for o in outs {
                match o {
                    ServerOut::Peer { to, msg } => {
                        self.inbox.push_back((to.0 as usize, PeerId(from as u32), msg))
                    }
                    ServerOut::Timer { timer, after_ms } => {
                        self.timers.push((self.now_ms + after_ms, from, timer))
                    }
                    ServerOut::Client { client, req_id, resp } => {
                        self.resps[from].push((client, req_id, resp))
                    }
                    ServerOut::Watch { .. } => {}
                }
            }
        }

        /// Deliver one queued message, or fire the earliest timer.
        pub(super) fn step(&mut self) {
            if let Some((to, from, msg)) = self.inbox.pop_front() {
                let now = self.now_ns();
                let outs = self.servers[to].handle(now, ServerIn::Peer { from, msg });
                self.route(to, outs);
                return;
            }
            let idx =
                (0..self.timers.len()).min_by_key(|&i| self.timers[i].0).expect("no timers armed");
            let (due, srv, t) = self.timers.remove(idx);
            self.now_ms = self.now_ms.max(due);
            let now = self.now_ns();
            let outs = self.servers[srv].handle(now, ServerIn::Timer(t));
            self.route(srv, outs);
        }

        /// Advance `ms` of virtual time, running everything due on the way.
        pub(super) fn run_ms(&mut self, ms: u64) {
            let target = self.now_ms + ms;
            let mut steps = 0u64;
            loop {
                if self.inbox.is_empty() && self.timers.iter().all(|&(due, ..)| due > target) {
                    self.now_ms = target;
                    return;
                }
                self.step();
                steps += 1;
                if steps > 500_000 {
                    let msgs: Vec<_> = self.inbox.iter().collect();
                    let roles: Vec<_> = self.servers.iter().map(|s| s.role()).collect();
                    panic!(
                        "pump live-locked: now={} roles={:?} inbox={:?} timers={:?}",
                        self.now_ms,
                        roles,
                        msgs,
                        &self.timers[..self.timers.len().min(8)]
                    );
                }
            }
        }

        /// Deliver all in-flight messages without advancing time.
        pub(super) fn drain(&mut self) {
            while !self.inbox.is_empty() {
                self.step();
            }
        }

        pub(super) fn client(&mut self, srv: usize, client: ClientId, req_id: u64, req: ZkRequest) {
            let now = self.now_ns();
            let outs =
                self.servers[srv].handle(now, ServerIn::Client { client, req_id, session: 0, req });
            self.route(srv, outs);
        }

        pub(super) fn leader(&self) -> usize {
            self.servers.iter().position(|s| s.is_leader()).expect("an established leader")
        }
    }

    #[test]
    fn connect_create_get_roundtrip() {
        let mut s = single();
        let ZkResponse::Connected { session } = req(&mut s, 0, ZkRequest::Connect) else {
            panic!("expected Connected");
        };
        assert!(session > 0);
        let resp = req(
            &mut s,
            session,
            ZkRequest::Create {
                path: "/a".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(resp, ZkResponse::Created { path: "/a".into() });
        let resp = req(&mut s, session, ZkRequest::GetData { path: "/a".into(), watch: false });
        match resp {
            ZkResponse::Data { data, stat } => {
                assert_eq!(&data[..], b"fid");
                assert_eq!(stat.version, 0);
                assert_eq!(stat.ctime_ns, 1_000_000, "stat carries the leader-stamped time");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_surface_to_the_client() {
        let mut s = single();
        let resp = req(&mut s, 0, ZkRequest::GetData { path: "/missing".into(), watch: false });
        assert_eq!(resp, ZkResponse::Error(ZkError::NoNode));
        let resp = req(&mut s, 0, ZkRequest::Delete { path: "/missing".into(), version: None });
        assert_eq!(resp, ZkResponse::Error(ZkError::NoNode));
    }

    #[test]
    fn watch_fires_on_mutation() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/w".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        req(&mut s, 0, ZkRequest::GetData { path: "/w".into(), watch: true });
        let out = s.handle(
            2_000_000,
            ServerIn::Client {
                client: 2,
                req_id: 1,
                session: 0,
                req: ZkRequest::SetData {
                    path: "/w".into(),
                    data: Bytes::from_static(b"x"),
                    version: None,
                },
            },
        );
        let watch = out.iter().find_map(|o| match o {
            ServerOut::Watch { client, note } => Some((client, note)),
            _ => None,
        });
        let (client, note) = watch.expect("watch fired");
        assert_eq!(*client, 1);
        assert_eq!(note.path, "/w");
    }

    #[test]
    fn get_children_data_batches_a_listing() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/d".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        for (name, payload) in [("a", &b"pa"[..]), ("b", b"pb"), ("c", b"pc")] {
            req(
                &mut s,
                0,
                ZkRequest::Create {
                    path: format!("/d/{name}"),
                    data: Bytes::copy_from_slice(payload),
                    mode: CreateMode::Persistent,
                },
            );
        }
        match req(&mut s, 0, ZkRequest::GetChildrenData { path: "/d".into() }) {
            ZkResponse::ChildrenData { entries } => {
                assert_eq!(entries.len(), 3);
                assert_eq!(entries[0].0, "a");
                assert_eq!(&entries[0].1[..], b"pa");
                assert_eq!(entries[2].0, "c");
                assert!(entries.iter().all(|(_, _, stat)| stat.czxid > 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Root listing works too (special-cased path join).
        match req(&mut s, 0, ZkRequest::GetChildrenData { path: "/".into() }) {
            ZkResponse::ChildrenData { entries } => assert_eq!(entries.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            req(&mut s, 0, ZkRequest::GetChildrenData { path: "/missing".into() }),
            ZkResponse::Error(ZkError::NoNode)
        ));
    }

    #[test]
    fn warm_children_lists_and_installs_watches() {
        let mut s = single();
        for path in ["/d", "/d/a", "/d/b"] {
            req(
                &mut s,
                0,
                ZkRequest::Create {
                    path: path.into(),
                    data: Bytes::from_static(b"p"),
                    mode: CreateMode::Persistent,
                },
            );
        }
        match req(&mut s, 0, ZkRequest::WarmChildren { path: "/d".into() }) {
            ZkResponse::WarmedChildren { entries, stat } => {
                assert_eq!(
                    entries.iter().map(|(n, _, _)| n.as_str()).collect::<Vec<_>>(),
                    ["a", "b"]
                );
                assert!(entries.iter().all(|(_, d, _)| &d[..] == b"p"));
                assert_eq!(stat.num_children, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // One round trip left a data watch on each child...
        let out = s.handle(
            2_000_000,
            ServerIn::Client {
                client: 2,
                req_id: 1,
                session: 0,
                req: ZkRequest::SetData {
                    path: "/d/a".into(),
                    data: Bytes::from_static(b"x"),
                    version: None,
                },
            },
        );
        assert!(
            out.iter()
                .any(|o| matches!(o, ServerOut::Watch { client: 1, note } if note.path == "/d/a")),
            "data watch on a warmed child fires"
        );
        // ...and a child watch on the parent.
        let out = s.handle(
            3_000_000,
            ServerIn::Client {
                client: 2,
                req_id: 2,
                session: 0,
                req: ZkRequest::Create {
                    path: "/d/c".into(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            },
        );
        assert!(
            out.iter()
                .any(|o| matches!(o, ServerOut::Watch { client: 1, note } if note.path == "/d")),
            "child watch on the warmed parent fires"
        );
        assert!(matches!(
            req(&mut s, 0, ZkRequest::WarmChildren { path: "/missing".into() }),
            ZkResponse::Error(ZkError::NoNode)
        ));
    }

    #[test]
    fn sync_on_leader_returns_watermark() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/a".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        let resp = req(&mut s, 0, ZkRequest::Sync);
        assert_eq!(resp, ZkResponse::Synced { zxid: s.last_applied() });
    }

    #[test]
    fn ping_reports_progress() {
        let mut s = single();
        let ZkResponse::Pong { zxid: z0, .. } = req(&mut s, 0, ZkRequest::Ping) else { panic!() };
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/p".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        let ZkResponse::Pong { zxid: z1, .. } = req(&mut s, 0, ZkRequest::Ping) else { panic!() };
        assert!(z1 > z0);
    }

    #[test]
    fn create_path_materializes_ancestors_through_the_full_path() {
        let mut s = single();
        let resp = req(
            &mut s,
            0,
            ZkRequest::CreatePath {
                path: "/a/b/c".into(),
                data: Bytes::from_static(b"v"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(resp, ZkResponse::Created { path: "/a/b/c".into() });
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/a/b".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
    }

    #[test]
    fn multi_is_atomic_through_the_full_path() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/old".into(),
                data: Bytes::from_static(b"fid1"),
                mode: CreateMode::Persistent,
            },
        );
        // DUFS-style rename.
        let resp = req(
            &mut s,
            0,
            ZkRequest::Multi {
                ops: vec![
                    MultiOp::Create {
                        path: "/new".into(),
                        data: Bytes::from_static(b"fid1"),
                        mode: CreateMode::Persistent,
                    },
                    MultiOp::Delete { path: "/old".into(), version: None },
                ],
            },
        );
        assert!(matches!(resp, ZkResponse::MultiResults(_)));
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/old".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
    }

    /// The invariant barrier-free read-your-writes rests on: a write's
    /// reply leaves only its origin replica, and only once that replica has
    /// applied the write — so the very next read there sees it.
    #[test]
    fn write_ack_leaves_only_the_origin_and_only_after_apply() {
        let mut p = Pump::trio();
        p.run_ms(3_000);
        let l = p.leader();
        let f = (0..3).find(|&i| i != l).unwrap();
        p.client(f, 1, 10, create_a());
        while p.resps[f].is_empty() {
            assert_eq!(p.read_a(f), ZkResponse::Error(ZkError::NoNode), "applied before its ack");
            assert!(!p.inbox.is_empty(), "the write stalled");
            p.step();
        }
        assert_eq!(p.resps[f], [(1, 10, ZkResponse::Created { path: "/a".into() })]);
        assert!(matches!(p.read_a(f), ZkResponse::Data { .. }), "acked but not applied");
        p.drain();
        assert!(p.resps[l].is_empty() && p.resps[3 - l - f].is_empty(), "a non-origin replied");
    }

    /// Session reads are answered only inside an established regime, and a
    /// follower only once it has applied what its sync handshake promised.
    /// A whole-ensemble cold start is the hard case: every replica reopens
    /// with an empty tree and an uncommitted log tail, and a follower can
    /// finish syncing with a leader that has not established (and so not
    /// committed) yet. At no step may any replica answer as if the acked
    /// create had never happened.
    #[test]
    fn only_a_caught_up_replica_in_an_established_regime_serves_reads() {
        let mut p = Pump::trio_of(|me, config| {
            let storage = Box::new(dufs_wal::MemStorage::new());
            CoordServer::new_durable(me, config, ZabConfig::default(), storage).expect("fresh WAL")
        });
        let refused = ZkResponse::Error(ZkError::ConnectionLoss);
        for s in 0..3 {
            assert_eq!(p.read_a(s), refused, "electing replica served a read");
            p.client(s, 9, 98, ZkRequest::Ping);
            assert!(matches!(p.resps[s].pop(), Some((9, 98, ZkResponse::Pong { .. }))));
        }
        p.run_ms(3_000);
        let l = p.leader();
        p.client(l, 1, 10, create_a());
        p.run_ms(1_000);
        assert_eq!(p.resps[l], [(1, 10, ZkResponse::Created { path: "/a".into() })]);

        for s in &mut p.servers {
            s.on_crash();
        }
        p.inbox.clear();
        p.timers.clear();
        let now = p.now_ns();
        for i in 0..3 {
            let outs = p.servers[i].on_restart(now);
            p.route(i, outs);
        }
        let mut served = [false; 3];
        for _ in 0..2_000 {
            for (s, served) in served.iter_mut().enumerate() {
                match p.read_a(s) {
                    ZkResponse::Data { .. } => *served = true,
                    r => assert_eq!(r, refused, "replica {s} served a pre-write tree"),
                }
            }
            p.step();
        }
        assert_eq!(served, [true; 3], "replicas never resumed serving");
    }
}
