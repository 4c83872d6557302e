//! The coordination server: ZAB replication + znode tree + sessions +
//! watches, as one pure state machine.
//!
//! Runtimes (the discrete-event simulator in `dufs-mdtest`, the threaded
//! cluster in [`crate::runtime`]) feed [`ServerIn`] events in and execute
//! the returned [`ServerOut`] actions. All clocking comes in through the
//! `now_ns` argument, so replicas stay deterministic and the same code runs
//! in virtual or real time.

use std::collections::HashMap;

use bytes::Bytes;
use dufs_wal::{LogStorage, Recovered, Wal, WalConfig, WalError, WalResult};
use dufs_zab::{
    DurableState, EnsembleConfig, PeerId, PersistEvent, Role, ZabAction, ZabConfig, ZabMsg,
    ZabPeer, ZabTimer, Zxid,
};
use dufs_zkstore::{path as zkpath, snapshot, ChangeEvent, DataTree, MultiOp, ZkError};

use crate::api::{LeaseGrant, ZkRequest, ZkResponse};
use crate::txn::{Txn, TxnOp};
use crate::watch::{WatchKind, WatchManager, WatchNotification};

/// Opaque client handle assigned by the hosting runtime.
pub type ClientId = u64;

/// Session liveness window: a session silent for this long is expired and
/// its ephemerals deleted.
pub const SESSION_TIMEOUT_MS: u64 = 30_000;
/// How often each server sweeps its sessions for expiry.
pub const SESSION_SWEEP_MS: u64 = 5_000;
/// Checkpoint the znode tree and compact the replication log every this
/// many applied transactions (ZooKeeper's periodic fuzzy snapshot; keeps
/// log memory bounded — the §VII memory concern) — or, when the previous
/// checkpoint held more znodes than this, once that many transactions were
/// applied since. A checkpoint serialises and fsyncs the whole tree inside
/// the state-machine thread, so a fixed count stalls the write rounds of a
/// large tree that much more often; scaled, the cost per transaction stays
/// constant and the log (in memory and to replay) stays within the size of
/// the snapshot it extends.
pub const CHECKPOINT_EVERY: u64 = 1_000;
/// Staleness-lease window: a replica grants leases only while its quorum
/// authority evidence is younger than this, so a leased client's cached
/// read is never staler than `LEASE_MS` (plus the margin below). Sized to
/// cover several leader ping rounds on both runtimes (100 virtual-ms sim
/// pings, 300 real-ms dilated live pings) so healthy clusters renew
/// continuously, while any partition stops grants within one window.
pub const LEASE_MS: u64 = 2_000;
/// Conservative haircut applied to every grant: covers message transit and
/// clock-reading skew between the evidence instant and the client's receipt
/// timestamp (each hop already decays the ttl by its own elapsed time).
pub const LEASE_MARGIN_MS: u64 = 200;

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

struct Pending {
    client: ClientId,
    req_id: u64,
}

/// A [`CoordMsg::LeaseAuth`] observation parked until the local replica
/// has applied up to its commit watermark.
#[derive(Debug, Clone, Copy)]
struct LeaseAuthObs {
    receipt_ms: u64,
    commit_to: u64,
    age_ms: u32,
}

/// The staleness-lease clock: tracks how fresh this server's evidence of
/// the current leader's authority is, on both sides of the protocol.
///
/// *Leader side* — every inbound `Pong`/`Ack`/`AckSync` from a voter proves
/// that voter still followed this leader when it sent the message (it had
/// not promised a higher epoch, so no rival leader was established before
/// that instant). The (quorum−1)-th most recent distinct-voter proof,
/// together with the leader itself, pins the last moment a full quorum
/// provably followed — before which no other leader can have committed
/// anything.
///
/// *Follower side* — the leader ships that evidence age with each ping
/// ([`CoordMsg::LeaseAuth`]). An observation only becomes usable once the
/// local replica has applied up to the watermark the leader had committed
/// at evidence time: from then on, "nothing committed cluster-wide before
/// (receipt − age) is missing from this replica" holds, and that instant
/// anchors grants. A deposed leader keeps pinging its minority for a few
/// windows before abdicating, which is exactly why naive ping receipt
/// cannot anchor a lease — the quorum-evidence age is what expires.
#[derive(Debug, Default)]
struct LeaseClock {
    /// Leader side: newest proof-of-followership per voter peer (ms).
    evidence: HashMap<PeerId, u64>,
    /// Follower side: observations awaiting the apply watermark.
    pending_auth: Vec<LeaseAuthObs>,
    /// Follower side: newest matured authority anchor (ms).
    anchor_ms: Option<u64>,
}

impl LeaseClock {
    /// Leader side: record proof that `from` still followed us at `now_ms`.
    fn record_evidence(&mut self, from: PeerId, now_ms: u64) {
        let e = self.evidence.entry(from).or_insert(now_ms);
        *e = (*e).max(now_ms);
    }

    /// Leader side: age of the newest instant at which a full quorum
    /// provably followed this leader. `None` until enough distinct voters
    /// have reported since the last reset. A single-voter ensemble is its
    /// own quorum: age 0.
    fn evidence_age(
        &self,
        now_ms: u64,
        me: PeerId,
        voters: &[PeerId],
        quorum: usize,
    ) -> Option<u64> {
        let needed = quorum.saturating_sub(1); // the leader vouches for itself
        if needed == 0 {
            return Some(0);
        }
        let mut times: Vec<u64> = voters
            .iter()
            .filter(|&&p| p != me)
            .filter_map(|p| self.evidence.get(p).copied())
            .collect();
        if times.len() < needed {
            return None;
        }
        times.sort_unstable_by(|a, b| b.cmp(a));
        Some(now_ms.saturating_sub(times[needed - 1]))
    }

    /// Follower side: park a [`CoordMsg::LeaseAuth`] observation.
    fn record_auth(&mut self, receipt_ms: u64, commit_to: u64, age_ms: u32) {
        self.pending_auth.push(LeaseAuthObs { receipt_ms, commit_to, age_ms });
        // Bounded: only the newest few matter (one per leader ping).
        if self.pending_auth.len() > 16 {
            self.pending_auth.remove(0);
        }
    }

    /// Follower side: promote every observation whose commit watermark the
    /// local replica has now applied into the grant anchor.
    fn mature(&mut self, last_applied: u64) {
        let mut anchor = self.anchor_ms;
        self.pending_auth.retain(|o| {
            if o.commit_to <= last_applied {
                let a = o.receipt_ms.saturating_sub(o.age_ms as u64);
                anchor = Some(anchor.map_or(a, |b| b.max(a)));
                false
            } else {
                true
            }
        });
        self.anchor_ms = anchor;
    }

    /// Remaining grantable ttl for an authority anchored at `anchor_ms`,
    /// after the safety margin. `None` when the window is exhausted.
    fn ttl_from_anchor(anchor_ms: u64, now_ms: u64) -> Option<u32> {
        let age = now_ms.saturating_sub(anchor_ms);
        let ttl = LEASE_MS.saturating_sub(age).saturating_sub(LEASE_MARGIN_MS);
        (ttl > 0).then_some(ttl as u32)
    }

    /// Forget everything — leader change in progress, or crash.
    fn reset(&mut self) {
        self.evidence.clear();
        self.pending_auth.clear();
        self.anchor_ms = None;
    }
}

/// Turn raw WAL recovery output into typed ZAB durable state: pick the
/// newest snapshot that still zkstore-decodes (older checkpoints are kept
/// as fallbacks exactly for this), then decode every log payload above its
/// watermark. A CRC-valid record that fails the [`Txn`] codec is real
/// corruption — recovery refuses rather than replaying a guessed history.
fn decode_recovered(rec: &Recovered) -> WalResult<DurableState<Txn>> {
    let mut snapshot = None;
    for (zxid, blob) in &rec.snapshots {
        if snapshot::decode(blob).is_ok() {
            snapshot = Some((Zxid::from_u64(*zxid), blob.clone()));
            break; // newest-first: take the first that decodes
        }
    }
    let snap_zxid = snapshot.as_ref().map(|(z, _)| z.as_u64()).unwrap_or(0);
    let mut log = Vec::with_capacity(rec.entries.len());
    for (zxid, payload) in &rec.entries {
        if *zxid <= snap_zxid {
            continue;
        }
        let txn = Txn::decode(payload)
            .map_err(|_| WalError::Corrupt(format!("undecodable txn at zxid {zxid:#x}")))?;
        log.push((Zxid::from_u64(*zxid), txn));
    }
    Ok(DurableState { epoch: rec.epoch, snapshot, log })
}

/// Rebuild the origin-local tag and session counters from the recovered
/// log, so a restarted server never re-mints an id visible in the surviving
/// history. (Ids minted below the last checkpoint are no longer visible;
/// their reuse is harmless for tags — the pending map is empty after a
/// restart — and bounded for sessions by the checkpoint interval.)
fn watermarks(me: PeerId, log: &[(Zxid, Txn)]) -> (u64, u64) {
    let mut next_tag = 1u64;
    let mut next_session = 1u64;
    for (_, txn) in log {
        if txn.origin == me {
            next_tag = next_tag.max(txn.tag + 1);
        }
        if let TxnOp::CreateSession { session } = txn.op {
            if session >> 40 == u64::from(me.0) {
                next_session = next_session.max((session & ((1 << 40) - 1)) + 1);
            }
        }
    }
    (next_tag, next_session)
}

struct SessionInfo {
    client: ClientId,
    last_heard_ms: u64,
}

/// A cross-shard transaction slice parked between prepare and decision.
///
/// This is the *in-memory index* only: the authoritative copy lives in the
/// tree itself as a `/__txn/<id>` marker znode, so it rides through WAL
/// replay, checkpoints and ZAB snapshot installs for free and is rebuilt
/// from the tree by [`CoordServer::rebuild_txn_state`].
struct PreparedTxn {
    session: u64,
    ops: Vec<MultiOp>,
    participants: Vec<u32>,
}

/// Namespace prefix under which prepared-transaction markers live. Paths
/// under it are infrastructure, not user namespace — the sharded content
/// digest and mdtest walks exclude them.
pub const TXN_PREFIX: &str = "/__txn";

fn txn_marker_path(txn_id: u64) -> String {
    format!("{TXN_PREFIX}/{txn_id:016x}")
}

fn op_path(op: &MultiOp) -> &str {
    match op {
        MultiOp::Create { path, .. }
        | MultiOp::Delete { path, .. }
        | MultiOp::SetData { path, .. }
        | MultiOp::Check { path, .. } => path,
    }
}

/// Whether `path` or any of its ancestors carries a fence owned by a
/// transaction other than `exempt`. Creates must check the whole ancestor
/// chain: materializing a node *under* a directory fenced for deletion
/// would make the prepared delete fail at commit time.
fn fenced_for_create(fences: &HashMap<String, u64>, path: &str, exempt: Option<u64>) -> bool {
    let clashes = |p: &str| fences.get(p).is_some_and(|&o| Some(o) != exempt);
    if clashes(path) {
        return true;
    }
    let mut cur = path;
    while let Some(par) = zkpath::parent(cur) {
        if clashes(par) {
            return true;
        }
        cur = par;
    }
    false
}

/// One coordination server (one member of the ensemble).
pub struct CoordServer {
    me: PeerId,
    config: EnsembleConfig,
    zcfg: ZabConfig,
    peer: ZabPeer<Txn>,
    tree: DataTree,
    watches: WatchManager<ClientId>,
    /// Write requests originated here, awaiting commit.
    pending: HashMap<u64, Pending>,
    next_tag: u64,
    /// Tag of the newest sync barrier proposed here and not yet applied;
    /// coalescible `Sync { coalesce: true }` requests ride it instead of
    /// paying for their own ZAB round.
    open_barrier: Option<u64>,
    /// Barrier tag → clients riding that barrier (answered in `apply`).
    barrier_riders: HashMap<u64, Vec<Pending>>,
    /// Staleness-lease authority tracking (see [`LeaseClock`]).
    lease: LeaseClock,
    /// Wall-ish clock of the event being handled (ms), for lease ages.
    now_ms: u64,
    /// Barriers answered by riding another session's no-op proposal.
    barriers_coalesced: u64,
    /// Lease grants issued to clients (Pong piggyback and idle push).
    leases_granted: u64,
    /// Sessions whose clients are connected to this server.
    sessions: HashMap<u64, SessionInfo>,
    next_session: u64,
    last_applied: u64,
    /// History tail as of this replica's last follower sync. Everything
    /// committed before the sync lies at or below it, but the sync itself
    /// may have delivered less (a leader still establishing ships a stale
    /// commit watermark, and a reset sync rebuilds the tree from it) — so
    /// session reads wait until `last_applied` reaches it.
    serve_floor: u64,
    /// Count of transactions applied (for perf accounting).
    applied_count: u64,
    /// `applied_count` at which the next checkpoint is due.
    next_checkpoint: u64,
    /// Prepared (undecided) cross-shard transactions, indexed by txn id —
    /// an in-memory mirror of the `/__txn/*` marker znodes.
    prepared_txns: HashMap<u64, PreparedTxn>,
    /// Path → owning txn id for every path touched by a prepared
    /// transaction. Normal writes against a fenced path are rejected with
    /// [`ZkError::TxnBusy`] until the decision clears the fence.
    txn_fences: HashMap<String, u64>,
    /// Durable write-ahead log; `None` runs the server purely in memory
    /// (the pre-WAL behaviour, used by the simulator's baseline figures).
    wal: Option<Wal>,
    /// Set when a WAL write or fsync failed: the durable suffix is unknown,
    /// so the server self-fences — it drops every input (and every output
    /// of the failing event) until [`CoordServer::on_restart`] re-derives
    /// its state from disk. Acting on an un-durable promise could ack a
    /// transaction a crash then forgets.
    fenced: bool,
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
        let (peer, zab_acts) = ZabPeer::new_with_config(me, config.clone(), zab);
        let mut s = CoordServer {
            me,
            config,
            zcfg: zab,
            peer,
            tree: DataTree::new(),
            watches: WatchManager::new(),
            pending: HashMap::new(),
            next_tag: 1,
            open_barrier: None,
            barrier_riders: HashMap::new(),
            lease: LeaseClock::default(),
            now_ms: 0,
            barriers_coalesced: 0,
            leases_granted: 0,
            sessions: HashMap::new(),
            next_session: 1,
            last_applied: 0,
            serve_floor: 0,
            applied_count: 0,
            next_checkpoint: CHECKPOINT_EVERY,
            prepared_txns: HashMap::new(),
            txn_fences: HashMap::new(),
            wal: None,
            fenced: false,
        };
        let mut out = Vec::new();
        s.absorb_zab(zab_acts, &mut out);
        out.push(ServerOut::Timer { timer: CoordTimer::SessionSweep, after_ms: SESSION_SWEEP_MS });
        (s, out)
    }

    /// Build a server backed by a write-ahead log: ZAB appends are fsynced
    /// (one group fsync per batch) *before* the dependent protocol messages
    /// go out, checkpoints mirror into the log directory, and a cold start
    /// recovers from the newest decodable snapshot plus the log tail.
    ///
    /// If `storage` already holds a log (a previous incarnation's), the
    /// server resumes from it.
    pub fn new_durable(
        me: PeerId,
        config: EnsembleConfig,
        zab: ZabConfig,
        storage: Box<dyn LogStorage>,
    ) -> WalResult<(Self, Vec<ServerOut>)> {
        let (mut wal, rec) = Wal::open(storage, WalConfig::default())?;
        let durable = decode_recovered(&rec)?;
        let (next_tag, next_session) = watermarks(me, &durable.log);
        let (peer, zab_acts) = ZabPeer::recover(me, config.clone(), zab, durable);
        wal.sync()?; // recovery truncation + fresh tail segment are durable
        let mut s = CoordServer {
            me,
            config,
            zcfg: zab,
            peer,
            tree: DataTree::new(),
            watches: WatchManager::new(),
            pending: HashMap::new(),
            next_tag,
            open_barrier: None,
            barrier_riders: HashMap::new(),
            lease: LeaseClock::default(),
            now_ms: 0,
            barriers_coalesced: 0,
            leases_granted: 0,
            sessions: HashMap::new(),
            next_session,
            last_applied: 0,
            serve_floor: 0,
            applied_count: 0,
            next_checkpoint: CHECKPOINT_EVERY,
            prepared_txns: HashMap::new(),
            txn_fences: HashMap::new(),
            wal: Some(wal),
            fenced: false,
        };
        let mut out = Vec::new();
        s.absorb_zab(zab_acts, &mut out);
        out.push(ServerOut::Timer { timer: CoordTimer::SessionSweep, after_ms: SESSION_SWEEP_MS });
        Ok((s, out))
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
        self.applied_count
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
        self.wal.is_some()
    }
    /// Number of prepared (undecided) cross-shard transactions parked here.
    pub fn prepared_txn_count(&self) -> usize {
        self.prepared_txns.len()
    }
    /// Whether the server has self-fenced after a WAL failure.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }
    /// Barriers answered by riding another session's no-op proposal.
    pub fn barriers_coalesced(&self) -> u64 {
        self.barriers_coalesced
    }
    /// Lease grants issued to clients so far.
    pub fn leases_granted(&self) -> u64 {
        self.leases_granted
    }

    /// The staleness lease this server can currently grant, if any: a
    /// leader grants from its own quorum evidence, a follower from the
    /// newest matured [`CoordMsg::LeaseAuth`] anchor. `None` whenever the
    /// authority window (minus margin) is exhausted — callers must then
    /// fall back to the sync-barrier path. Hosting runtimes may call this
    /// between events (e.g. to piggyback grants on idle heartbeat slots).
    pub fn lease_grant(&mut self, now_ns: u64) -> Option<LeaseGrant> {
        self.now_ms = self.now_ms.max(now_ns / 1_000_000);
        let now_ms = self.now_ms;
        let anchor = if self.peer.is_established_leader() {
            let age = self.lease.evidence_age(
                now_ms,
                self.me,
                self.config.peers(),
                self.config.quorum(),
            )?;
            now_ms.saturating_sub(age)
        } else if matches!(self.peer.role(), Role::Following { .. }) {
            self.lease.anchor_ms?
        } else {
            return None;
        };
        let ttl_ms = LeaseClock::ttl_from_anchor(anchor, now_ms)?;
        self.leases_granted += 1;
        Some(LeaseGrant { ttl_ms, epoch: self.peer.epoch() })
    }
    /// Total fsyncs the WAL has issued (0 without one). The simulator
    /// charges `FSYNC` service time per increment of this counter.
    pub fn wal_sync_count(&self) -> u64 {
        self.wal.as_ref().map(|w| w.sync_count()).unwrap_or(0)
    }
    /// Total records the WAL has appended (0 without one).
    pub fn wal_append_count(&self) -> u64 {
        self.wal.as_ref().map(|w| w.append_count()).unwrap_or(0)
    }
    /// Live WAL segment count (0 without one; diagnostics — checkpointing
    /// must keep this bounded).
    pub fn wal_segment_count(&self) -> usize {
        self.wal.as_ref().map(|w| w.segment_count()).unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Event entry point
    // ------------------------------------------------------------------

    /// Feed one input event; returns the actions to execute. `now_ns` is
    /// the host's clock (virtual or real).
    pub fn handle(&mut self, now_ns: u64, input: ServerIn) -> Vec<ServerOut> {
        if self.fenced {
            // A WAL write failed earlier: the durable suffix is unknown, so
            // the server behaves as crashed until restarted from disk.
            return Vec::new();
        }
        // Lease ages are measured on the host clock; `absorb_zab` (which
        // has no clock argument) reads the event's timestamp from here.
        self.now_ms = self.now_ms.max(now_ns / 1_000_000);
        let mut out = Vec::new();
        match input {
            ServerIn::Client { client, req_id, session, req } => {
                self.handle_client(now_ns, client, req_id, session, req, &mut out)
            }
            ServerIn::Peer { from, msg } => self.handle_peer(now_ns, from, msg, &mut out),
            ServerIn::Timer(t) => self.handle_timer(now_ns, t, &mut out),
        }
        if self.fenced {
            // The event that fenced us may have queued sends that promise
            // un-durable state: drop everything it produced.
            return Vec::new();
        }
        out
    }

    /// Crash: volatile state (tree replica, watches, sessions, pending) is
    /// lost. In-memory mode the ZAB peer's log fields survive (ZooKeeper's
    /// disk, abstracted); in durable mode the storage backend drops every
    /// unsynced byte and recovery at restart comes from the log itself.
    pub fn on_crash(&mut self) {
        self.peer.on_crash();
        if let Some(wal) = self.wal.as_mut() {
            wal.crash();
        }
        self.tree = DataTree::new();
        self.watches = WatchManager::new();
        self.pending.clear();
        self.open_barrier = None;
        self.barrier_riders.clear();
        self.lease.reset();
        self.sessions.clear();
        self.prepared_txns.clear();
        self.txn_fences.clear();
        self.last_applied = 0;
    }

    /// Restart after a crash: replay the durable history into a fresh tree
    /// and rejoin the ensemble. Durable servers re-derive *everything* from
    /// their write-ahead log (cold start); in-memory servers replay the ZAB
    /// peer's surviving fields.
    pub fn on_restart(&mut self, now_ns: u64) -> Vec<ServerOut> {
        let _ = now_ns;
        self.fenced = false;
        let mut out = Vec::new();
        if self.wal.is_some() {
            let mut wal = self.wal.take().expect("checked");
            match wal.reopen().and_then(|rec| {
                wal.sync()?;
                decode_recovered(&rec)
            }) {
                Ok(durable) => {
                    let (next_tag, next_session) = watermarks(self.me, &durable.log);
                    self.next_tag = next_tag;
                    self.next_session = next_session;
                    let (peer, acts) =
                        ZabPeer::recover(self.me, self.config.clone(), self.zcfg, durable);
                    self.peer = peer;
                    self.wal = Some(wal);
                    self.absorb_zab(acts, &mut out);
                }
                Err(_) => {
                    // Storage is unreadable (or the recovery fsync failed):
                    // stay fenced until the next restart attempt; serving
                    // would risk a forked history. Crash the half-reopened
                    // WAL so its buffered tail-segment header cannot leak
                    // into a sealed segment later.
                    wal.crash();
                    self.wal = Some(wal);
                    self.fenced = true;
                    return Vec::new();
                }
            }
        } else {
            let acts = self.peer.on_restart();
            self.absorb_zab(acts, &mut out);
        }
        out.push(ServerOut::Timer { timer: CoordTimer::SessionSweep, after_ms: SESSION_SWEEP_MS });
        if self.fenced {
            return Vec::new();
        }
        out
    }

    // ------------------------------------------------------------------
    // Client requests
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_client(
        &mut self,
        now_ns: u64,
        client: ClientId,
        req_id: u64,
        session: u64,
        req: ZkRequest,
        out: &mut Vec<ServerOut>,
    ) {
        if let Some(info) = self.sessions.get_mut(&session) {
            info.last_heard_ms = now_ns / 1_000_000;
            info.client = client;
        }
        if req.is_read() && !matches!(req, ZkRequest::Ping) && !self.serving() {
            // ZooKeeper's rule: only a replica inside an established regime
            // answers reads. A restarted, electing or still-syncing replica
            // may hold a tree older than a write this very session had acked
            // here; the client retries (and fails over) on this error.
            let resp = ZkResponse::Error(ZkError::ConnectionLoss);
            out.push(ServerOut::Client { client, req_id, resp });
            return;
        }
        match req {
            // ---- reads: served from the local replica ----
            ZkRequest::GetData { path, watch } => {
                let resp = match self.tree.get_data(&path) {
                    Ok((data, stat)) => {
                        if watch {
                            self.watches.register(&path, WatchKind::Data, client);
                        }
                        ZkResponse::Data { data, stat }
                    }
                    Err(e) => ZkResponse::Error(e),
                };
                out.push(ServerOut::Client { client, req_id, resp });
            }
            ZkRequest::Exists { path, watch } => {
                let resp = match self.tree.exists(&path) {
                    Ok(stat) => {
                        if watch {
                            self.watches.register(&path, WatchKind::Exists, client);
                        }
                        ZkResponse::ExistsResult(stat)
                    }
                    Err(e) => ZkResponse::Error(e),
                };
                out.push(ServerOut::Client { client, req_id, resp });
            }
            ZkRequest::GetChildren { path, watch } => {
                let resp = match self.tree.get_children(&path) {
                    Ok((names, stat)) => {
                        if watch {
                            self.watches.register(&path, WatchKind::Children, client);
                        }
                        ZkResponse::Children { names, stat }
                    }
                    Err(e) => ZkResponse::Error(e),
                };
                out.push(ServerOut::Client { client, req_id, resp });
            }
            ZkRequest::GetChildrenData { path } => {
                let resp = match self.tree.get_children(&path) {
                    Ok((names, _)) => {
                        let entries = names
                            .into_iter()
                            .filter_map(|n| {
                                let child = if path == "/" {
                                    format!("/{n}")
                                } else {
                                    format!("{path}/{n}")
                                };
                                self.tree.get_data(&child).ok().map(|(d, s)| (n, d, s))
                            })
                            .collect();
                        ZkResponse::ChildrenData { entries }
                    }
                    Err(e) => ZkResponse::Error(e),
                };
                out.push(ServerOut::Client { client, req_id, resp });
            }
            ZkRequest::WarmChildren { path } => {
                // READDIRPLUS bulk warm: the GetChildrenData listing, plus the
                // watches a caching client would otherwise need N+1 round
                // trips to leave behind — a child watch on the parent and a
                // data watch on every child that made it into the reply.
                let resp = match self.tree.get_children(&path) {
                    Ok((names, stat)) => {
                        self.watches.register(&path, WatchKind::Children, client);
                        let entries = names
                            .into_iter()
                            .filter_map(|n| {
                                let child = if path == "/" {
                                    format!("/{n}")
                                } else {
                                    format!("{path}/{n}")
                                };
                                self.tree.get_data(&child).ok().map(|(d, s)| {
                                    self.watches.register(&child, WatchKind::Data, client);
                                    (n, d, s)
                                })
                            })
                            .collect();
                        ZkResponse::WarmedChildren { entries, stat }
                    }
                    Err(e) => ZkResponse::Error(e),
                };
                out.push(ServerOut::Client { client, req_id, resp });
            }
            ZkRequest::Ping => {
                let lease = self.lease_grant(now_ns);
                out.push(ServerOut::Client {
                    client,
                    req_id,
                    resp: ZkResponse::Pong { zxid: self.last_applied, lease },
                });
            }
            // ---- sync: a no-op barrier proposed through ZAB ----
            // The barrier rides the write path (forwarded to the leader
            // like any mutation) and its response fires in `apply`, once
            // *this* replica has applied it — and, by total order,
            // everything committed before it.
            ZkRequest::Sync { coalesce } => {
                if coalesce {
                    // Ride a barrier already in flight on this replica: its
                    // no-op was proposed after every write this session has
                    // had acked on an unchanged connection (ack implies the
                    // origin replica applied the write — and it could only
                    // ack after proposing, hence before the open barrier).
                    // The client guarantees the connection is unchanged by
                    // sending `coalesce: false` after any reconnect.
                    if let Some(tag) = self.open_barrier {
                        if self.pending.contains_key(&tag) {
                            self.barrier_riders
                                .entry(tag)
                                .or_default()
                                .push(Pending { client, req_id });
                            self.barriers_coalesced += 1;
                            return;
                        }
                        self.open_barrier = None;
                    }
                }
                let tag = self.submit_write(now_ns, client, req_id, session, TxnOp::Noop, out);
                if tag.is_some() {
                    self.open_barrier = tag;
                }
            }
            // ---- session management (replicated mutations) ----
            ZkRequest::Connect => {
                let session = (u64::from(self.me.0) << 40) | self.next_session;
                self.next_session += 1;
                self.sessions
                    .insert(session, SessionInfo { client, last_heard_ms: now_ns / 1_000_000 });
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::CreateSession { session },
                    out,
                );
            }
            ZkRequest::CloseSession => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::CloseSession { session },
                    out,
                );
            }
            // ---- mutations: replicate through the leader ----
            ZkRequest::Create { path, data, mode } => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::Create { path, data, mode },
                    out,
                );
            }
            ZkRequest::Delete { path, version } => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::Delete { path, version },
                    out,
                );
            }
            ZkRequest::SetData { path, data, version } => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::SetData { path, data, version },
                    out,
                );
            }
            ZkRequest::Multi { ops } => {
                self.submit_write(now_ns, client, req_id, session, TxnOp::Multi { ops }, out);
            }
            ZkRequest::CreatePath { path, data, mode } => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::CreatePath { path, data, mode },
                    out,
                );
            }
            // ---- cross-shard 2PC (coordinator lives client-side) ----
            ZkRequest::TxnPrepare { txn_id, ops, participants } => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::Prepare2pc { txn_id, ops, participants },
                    out,
                );
            }
            ZkRequest::TxnCommit { txn_id } => {
                self.submit_write(
                    now_ns,
                    client,
                    req_id,
                    session,
                    TxnOp::Commit2pc { txn_id },
                    out,
                );
            }
            ZkRequest::TxnAbort { txn_id } => {
                self.submit_write(now_ns, client, req_id, session, TxnOp::Abort2pc { txn_id }, out);
            }
        }
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

    fn alloc_tag(&mut self, client: ClientId, req_id: u64) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, Pending { client, req_id });
        tag
    }

    /// Propose a mutation (locally or via leader forward). Returns the
    /// pending tag while the write is in flight, `None` if it failed on the
    /// spot — sync coalescing tracks the returned tag as the open barrier.
    #[allow(clippy::too_many_arguments)]
    fn submit_write(
        &mut self,
        now_ns: u64,
        client: ClientId,
        req_id: u64,
        session: u64,
        op: TxnOp,
        out: &mut Vec<ServerOut>,
    ) -> Option<u64> {
        let tag = self.alloc_tag(client, req_id);
        let txn = Txn { session, op, origin: self.me, tag, time_ns: now_ns };
        // Sync barriers skip group-commit batching: a lone no-op waiting
        // out the Nagle timer would add flush_ms to every barrier read.
        let proposed = if matches!(txn.op, TxnOp::Noop) {
            self.peer.propose_urgent(txn.clone())
        } else {
            self.peer.propose(txn.clone())
        };
        match proposed {
            Ok(acts) => {
                self.absorb_zab(acts, out);
                // The proposal may have applied synchronously (single-node
                // ensembles): only report a tag that is still pending.
                self.pending.contains_key(&tag).then_some(tag)
            }
            Err(e) => {
                if let Some(leader) = e.leader_hint {
                    out.push(ServerOut::Peer {
                        to: leader,
                        msg: CoordMsg::Forward { session, op: txn.op, origin: self.me, tag },
                    });
                    Some(tag)
                } else {
                    self.pending.remove(&tag);
                    out.push(ServerOut::Client {
                        client,
                        req_id,
                        resp: ZkResponse::Error(ZkError::ConnectionLoss),
                    });
                    None
                }
            }
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
                let txn = Txn { session, op: op.clone(), origin, tag, time_ns: now_ns };
                // Forwarded sync barriers flush immediately, same as local
                // ones in `submit_write`.
                let proposed = if matches!(txn.op, TxnOp::Noop) {
                    self.peer.propose_urgent(txn)
                } else {
                    self.peer.propose(txn)
                };
                match proposed {
                    Ok(acts) => self.absorb_zab(acts, out),
                    Err(e) => {
                        // Not the leader (anymore): pass it along if we know
                        // better, otherwise bounce so the origin can fail
                        // the request and let its client retry.
                        match e.leader_hint {
                            Some(leader) if leader != self.me => {
                                out.push(ServerOut::Peer {
                                    to: leader,
                                    msg: CoordMsg::Forward { session, op, origin, tag },
                                });
                            }
                            _ => {
                                out.push(ServerOut::Peer {
                                    to: origin,
                                    msg: CoordMsg::ForwardReject { tag },
                                });
                            }
                        }
                    }
                }
            }
            CoordMsg::ForwardReject { tag } => {
                if let Some(p) = self.pending.remove(&tag) {
                    if p.client != 0 {
                        out.push(ServerOut::Client {
                            client: p.client,
                            req_id: p.req_id,
                            resp: ZkResponse::Error(ZkError::ConnectionLoss),
                        });
                    }
                }
                // A bounced barrier takes its riders down with it; their
                // clients retry (with a fresh, uncoalesced sync if they
                // reconnected meanwhile).
                if self.open_barrier == Some(tag) {
                    self.open_barrier = None;
                }
                for p in self.barrier_riders.remove(&tag).unwrap_or_default() {
                    out.push(ServerOut::Client {
                        client: p.client,
                        req_id: p.req_id,
                        resp: ZkResponse::Error(ZkError::ConnectionLoss),
                    });
                }
            }
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
                let now_ms = now_ns / 1_000_000;
                let expired: Vec<u64> = self
                    .sessions
                    .iter()
                    .filter(|(_, info)| {
                        now_ms.saturating_sub(info.last_heard_ms) > SESSION_TIMEOUT_MS
                    })
                    .map(|(&s, _)| s)
                    .collect();
                for session in expired {
                    if let Some(info) = self.sessions.remove(&session) {
                        self.watches.drop_client(info.client);
                    }
                    // Fire-and-forget close; no client awaits it.
                    let tag = self.alloc_tag(0, 0);
                    self.pending.remove(&tag);
                    let txn = Txn {
                        session,
                        op: TxnOp::CloseSession { session },
                        origin: self.me,
                        tag,
                        time_ns: now_ns,
                    };
                    match self.peer.propose(txn) {
                        Ok(acts) => self.absorb_zab(acts, out),
                        Err(e) => {
                            if let Some(leader) = e.leader_hint {
                                out.push(ServerOut::Peer {
                                    to: leader,
                                    msg: CoordMsg::Forward {
                                        session,
                                        op: TxnOp::CloseSession { session },
                                        origin: self.me,
                                        tag,
                                    },
                                });
                            }
                        }
                    }
                }
                out.push(ServerOut::Timer {
                    timer: CoordTimer::SessionSweep,
                    after_ms: SESSION_SWEEP_MS,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // ZAB action absorption and transaction application
    // ------------------------------------------------------------------

    /// Fence after a WAL failure: the durable suffix is unknown, so the
    /// server treats itself as crashed on the spot — including the WAL,
    /// whose buffered (never-synced) bytes must be discarded now. Leaving
    /// them in flight would let a *later* crash smear them into a segment
    /// that has since been sealed, turning a recoverable torn tail into
    /// permanent corruption.
    fn fence(&mut self) {
        self.fenced = true;
        if let Some(wal) = self.wal.as_mut() {
            wal.crash();
        }
    }

    fn absorb_zab(&mut self, acts: Vec<ZabAction<Txn>>, out: &mut Vec<ServerOut>) {
        let mut unsynced = false;
        for a in acts {
            if self.fenced {
                return;
            }
            match a {
                ZabAction::Persist(ev) => unsynced |= self.persist(ev),
                ZabAction::Send { to, msg } => {
                    // Ship lease authority alongside every heartbeat ping:
                    // the follower can anchor staleness leases at (receipt −
                    // age) once it has applied up to the ping's watermark.
                    let auth = match &msg {
                        ZabMsg::Ping { commit_to, .. } => self
                            .lease
                            .evidence_age(
                                self.now_ms,
                                self.me,
                                self.config.peers(),
                                self.config.quorum(),
                            )
                            .filter(|&age| age < LEASE_MS)
                            .map(|age| CoordMsg::LeaseAuth {
                                commit_to: commit_to.as_u64(),
                                age_ms: age as u32,
                            }),
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
                ZabAction::ResetState => {
                    self.tree = DataTree::new();
                    self.prepared_txns.clear();
                    self.txn_fences.clear();
                    self.last_applied = 0;
                }
                ZabAction::RestoreSnapshot { zxid, blob } => {
                    self.tree = snapshot::decode(&blob)
                        .expect("a replica only ships snapshots it produced");
                    self.last_applied = zxid.as_u64();
                    // The snapshot may carry `/__txn/*` markers for
                    // transactions prepared before it was cut.
                    self.rebuild_txn_state();
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
                    self.open_barrier = None;
                    // In-flight writes can no longer be tracked to a commit;
                    // fail them so clients retry against the new regime.
                    for (_, p) in self.pending.drain() {
                        if p.client != 0 {
                            out.push(ServerOut::Client {
                                client: p.client,
                                req_id: p.req_id,
                                resp: ZkResponse::Error(ZkError::ConnectionLoss),
                            });
                        }
                    }
                    for (_, riders) in self.barrier_riders.drain() {
                        for p in riders {
                            out.push(ServerOut::Client {
                                client: p.client,
                                req_id: p.req_id,
                                resp: ZkResponse::Error(ZkError::ConnectionLoss),
                            });
                        }
                    }
                }
            }
        }
        // Group fsync: ONE durability point per absorbed action batch. ZAB
        // emits one `Persist` per proposal batch, so fsync frequency scales
        // with batches, not transactions — this is where group commit
        // recovers the throughput a per-transaction fsync would cost.
        if unsynced && !self.fenced {
            if let Some(wal) = self.wal.as_mut() {
                if wal.sync().is_err() {
                    self.fence();
                }
            }
        }
    }

    /// Mirror one ZAB durability event into the WAL. Returns whether a
    /// sync is still owed (resets sync internally). WAL failure ⇒ fence.
    fn persist(&mut self, ev: PersistEvent<Txn>) -> bool {
        let Some(wal) = self.wal.as_mut() else { return false };
        let result: WalResult<bool> = (|| match ev {
            PersistEvent::Append { entries } => {
                for (zxid, txn) in &entries {
                    wal.append_txn(zxid.as_u64(), &txn.encode())?;
                }
                Ok(!entries.is_empty())
            }
            PersistEvent::Epoch(epoch) => {
                wal.append_epoch(epoch)?;
                Ok(true)
            }
            PersistEvent::Reset { epoch, snapshot, entries } => {
                let encoded: Vec<(u64, Bytes)> =
                    entries.iter().map(|(z, t)| (z.as_u64(), t.encode())).collect();
                let snap = snapshot.as_ref().map(|(z, b)| (z.as_u64(), &b[..]));
                wal.reset(snap, &encoded, epoch)?;
                Ok(false) // reset is durable on return
            }
        })();
        match result {
            Ok(owed) => owed,
            Err(_) => {
                self.fence();
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Cross-shard 2PC participant
    // ------------------------------------------------------------------

    /// Whether a *normal* write conflicts with a prepared transaction's
    /// fences. Returns the error to answer with, or `None` to proceed.
    /// 2PC control ops are exempt (prepare does its own conflict check).
    fn txn_fence_conflict(&self, op: &TxnOp) -> Option<ZkError> {
        if self.txn_fences.is_empty() {
            return None;
        }
        let busy = |p: &str| self.txn_fences.contains_key(p);
        let hit = match op {
            // Creates check the whole ancestor chain (see
            // `fenced_for_create`): CreatePath materializes ancestors, and
            // even a plain create must not add a child under a directory
            // fenced for deletion.
            TxnOp::Create { path, .. } | TxnOp::CreatePath { path, .. } => {
                fenced_for_create(&self.txn_fences, path, None)
            }
            TxnOp::Delete { path, .. } | TxnOp::SetData { path, .. } => busy(path),
            TxnOp::Multi { ops } => ops.iter().any(|op| match op {
                MultiOp::Create { path, .. } => fenced_for_create(&self.txn_fences, path, None),
                MultiOp::Delete { path, .. }
                | MultiOp::SetData { path, .. }
                | MultiOp::Check { path, .. } => busy(path),
            }),
            _ => false,
        };
        hit.then_some(ZkError::TxnBusy)
    }

    /// Phase one: validate this shard's slice against the current tree,
    /// fence its paths, and park the ops in a `/__txn/<id>` marker znode.
    /// The marker makes the prepared state part of the replicated tree, so
    /// WAL replay, checkpoints and snapshot installs carry it implicitly.
    fn apply_prepare(
        &mut self,
        txn_id: u64,
        ops: &[MultiOp],
        participants: &[u32],
        session: u64,
        z: u64,
        t: u64,
    ) -> (ZkResponse, Vec<ChangeEvent>) {
        if let Some(p) = self.prepared_txns.get(&txn_id) {
            // Coordinator retry of an already-prepared slice — but only if
            // it really is the same transaction. Answering `Prepared` for a
            // different payload under a colliding id would commit another
            // transaction's parked ops.
            if p.ops == ops && p.participants == participants {
                return (ZkResponse::Prepared, Vec::new());
            }
            return (ZkResponse::Error(ZkError::TxnBusy), Vec::new());
        }
        // Conflict with another undecided transaction?
        for op in ops {
            let clashed = match op {
                MultiOp::Create { path, .. } => {
                    fenced_for_create(&self.txn_fences, path, Some(txn_id))
                }
                _ => self.txn_fences.get(op_path(op)).is_some_and(|&o| o != txn_id),
            };
            if clashed {
                return (ZkResponse::Error(ZkError::TxnBusy), Vec::new());
            }
        }
        // Dry-run validation, mirroring what commit will do (creates get
        // ancestor materialization there, so a missing parent is fine).
        for op in ops {
            let check = match op {
                MultiOp::Create { path, .. } => match self.tree.exists(path) {
                    Ok(Some(_)) => Err(ZkError::NodeExists),
                    Ok(None) => Ok(()),
                    Err(e) => Err(e),
                },
                MultiOp::Delete { path, version } => match self.tree.get_children(path) {
                    Ok((names, _)) if !names.is_empty() => Err(ZkError::NotEmpty),
                    Ok((_, stat)) => match version {
                        Some(v) if *v != stat.version => Err(ZkError::BadVersion),
                        _ => Ok(()),
                    },
                    Err(e) => Err(e),
                },
                MultiOp::SetData { path, version, .. } | MultiOp::Check { path, version } => {
                    match self.tree.exists(path) {
                        Ok(Some(stat)) => match version {
                            Some(v) if *v != stat.version => Err(ZkError::BadVersion),
                            _ => Ok(()),
                        },
                        Ok(None) => Err(ZkError::NoNode),
                        Err(e) => Err(e),
                    }
                }
            };
            if let Err(e) = check {
                return (ZkResponse::Error(e), Vec::new());
            }
        }
        // Park the slice in the tree and index it.
        let marker = Txn {
            session,
            op: TxnOp::Prepare2pc {
                txn_id,
                ops: ops.to_vec(),
                participants: participants.to_vec(),
            },
            origin: PeerId(0),
            tag: 0,
            time_ns: 0,
        };
        let events = match self.tree.create_path(
            &txn_marker_path(txn_id),
            marker.encode(),
            dufs_zkstore::CreateMode::Persistent,
            0,
            z,
            t,
        ) {
            Ok((_, ev)) => ev,
            Err(e) => return (ZkResponse::Error(e), Vec::new()),
        };
        for op in ops {
            self.txn_fences.insert(op_path(op).to_string(), txn_id);
        }
        self.prepared_txns.insert(
            txn_id,
            PreparedTxn { session, ops: ops.to_vec(), participants: participants.to_vec() },
        );
        (ZkResponse::Prepared, events)
    }

    /// Decision: apply the prepared slice. A txn id with no prepared slice
    /// answers [`ZkResponse::TxnUnknown`] — the slice was already decided
    /// here (or never prepared). Surfacing that instead of a blanket
    /// success lets a recovery agent tell "this shard applied the commit
    /// now" from "this shard had nothing left to apply".
    fn apply_commit(&mut self, txn_id: u64, z: u64, t: u64) -> (ZkResponse, Vec<ChangeEvent>) {
        let Some(p) = self.prepared_txns.remove(&txn_id) else {
            return (ZkResponse::TxnUnknown, Vec::new());
        };
        self.drop_txn_fences(txn_id);
        let mut events = Vec::new();
        for op in &p.ops {
            // Validated at prepare and fenced since, so these cannot fail;
            // results are discarded (the coordinator already has them). A
            // failure here means the fence invariant broke — make that
            // loud in debug builds instead of silently diverging.
            let failed = match op {
                MultiOp::Create { path, data, mode } => {
                    match self.tree.create_path(path, data.clone(), *mode, p.session, z, t) {
                        Ok((_, ev)) => {
                            events.extend(ev);
                            None
                        }
                        Err(e) => Some(e),
                    }
                }
                MultiOp::Delete { path, version } => match self.tree.delete(path, *version, z, t) {
                    Ok(ev) => {
                        events.extend(ev);
                        None
                    }
                    Err(e) => Some(e),
                },
                MultiOp::SetData { path, data, version } => {
                    match self.tree.set_data(path, data.clone(), *version, z, t) {
                        Ok((_, ev)) => {
                            events.extend(ev);
                            None
                        }
                        Err(e) => Some(e),
                    }
                }
                MultiOp::Check { .. } => None,
            };
            debug_assert!(
                failed.is_none(),
                "2PC commit op failed post-prepare (txn {txn_id:#x}, op {op:?}): {failed:?}"
            );
        }
        if let Ok(ev) = self.tree.delete(&txn_marker_path(txn_id), None, z, t) {
            events.extend(ev);
        }
        (ZkResponse::Committed, events)
    }

    /// Decision: discard the prepared slice. Answers
    /// [`ZkResponse::TxnUnknown`] when nothing is prepared under the id.
    fn apply_abort(&mut self, txn_id: u64, z: u64, t: u64) -> (ZkResponse, Vec<ChangeEvent>) {
        let Some(_) = self.prepared_txns.remove(&txn_id) else {
            return (ZkResponse::TxnUnknown, Vec::new());
        };
        self.drop_txn_fences(txn_id);
        let mut events = Vec::new();
        if let Ok(ev) = self.tree.delete(&txn_marker_path(txn_id), None, z, t) {
            events.extend(ev);
        }
        (ZkResponse::Aborted, events)
    }

    fn drop_txn_fences(&mut self, txn_id: u64) {
        self.txn_fences.retain(|_, &mut owner| owner != txn_id);
    }

    /// Re-derive the prepared-transaction index from the `/__txn/*` marker
    /// znodes after the tree was replaced wholesale (snapshot install).
    fn rebuild_txn_state(&mut self) {
        self.prepared_txns.clear();
        self.txn_fences.clear();
        let Ok((names, _)) = self.tree.get_children(TXN_PREFIX) else { return };
        for n in names {
            let Ok((data, _)) = self.tree.get_data(&format!("{TXN_PREFIX}/{n}")) else { continue };
            let Ok(marker) = Txn::decode(&data) else { continue };
            if let TxnOp::Prepare2pc { txn_id, ops, participants } = marker.op {
                for op in &ops {
                    self.txn_fences.insert(op_path(op).to_string(), txn_id);
                }
                self.prepared_txns
                    .insert(txn_id, PreparedTxn { session: marker.session, ops, participants });
            }
        }
    }

    fn apply(&mut self, zxid: Zxid, txn: Txn, out: &mut Vec<ServerOut>) {
        let z = zxid.as_u64();
        let t = txn.time_ns;
        let (resp, events) = if let Some(e) = self.txn_fence_conflict(&txn.op) {
            // The op touches a path parked under a prepared (undecided)
            // cross-shard transaction. Rejecting *at apply time* keeps the
            // outcome identical on every replica; the client retries once
            // the decision clears the fence.
            (ZkResponse::Error(e), Vec::new())
        } else {
            match &txn.op {
                TxnOp::Create { path, data, mode } => {
                    match self.tree.create(path, data.clone(), *mode, txn.session, z, t) {
                        Ok((actual, ev)) => (ZkResponse::Created { path: actual }, ev),
                        Err(e) => (ZkResponse::Error(e), Vec::new()),
                    }
                }
                TxnOp::CreatePath { path, data, mode } => {
                    match self.tree.create_path(path, data.clone(), *mode, txn.session, z, t) {
                        Ok((actual, ev)) => (ZkResponse::Created { path: actual }, ev),
                        Err(e) => (ZkResponse::Error(e), Vec::new()),
                    }
                }
                TxnOp::Delete { path, version } => match self.tree.delete(path, *version, z, t) {
                    Ok(ev) => (ZkResponse::Deleted, ev),
                    Err(e) => (ZkResponse::Error(e), Vec::new()),
                },
                TxnOp::SetData { path, data, version } => {
                    match self.tree.set_data(path, data.clone(), *version, z, t) {
                        Ok((stat, ev)) => (ZkResponse::Stat(stat), ev),
                        Err(e) => (ZkResponse::Error(e), Vec::new()),
                    }
                }
                TxnOp::Multi { ops } => match self.tree.apply_multi(ops, txn.session, z, t) {
                    Ok((results, ev)) => (ZkResponse::MultiResults(results), ev),
                    Err((_, e)) => (ZkResponse::Error(e), Vec::new()),
                },
                TxnOp::CreateSession { session } => {
                    (ZkResponse::Connected { session: *session }, Vec::new())
                }
                TxnOp::CloseSession { session } => {
                    let (_, ev) = self.tree.close_session(*session, z, t);
                    // Transactions the session prepared but never decided
                    // stay parked and fenced: this shard cannot know whether
                    // the coordinator's commit already applied on another
                    // participant, so a unilateral abort here could tear a
                    // cross-shard transaction in half. The sharded client's
                    // recovery sweep (`ShardedClient::recover_txns`) owns
                    // resolving orphans via the durable decision record.
                    if let Some(info) = self.sessions.remove(session) {
                        self.watches.drop_client(info.client);
                    }
                    (ZkResponse::Closed, ev)
                }
                // A sync barrier: nothing to mutate. The response below (at
                // the origin) proves this replica has applied everything
                // committed before the barrier.
                TxnOp::Noop => (ZkResponse::Synced { zxid: z, coalesced: false }, Vec::new()),
                TxnOp::Prepare2pc { txn_id, ops, participants } => {
                    self.apply_prepare(*txn_id, ops, participants, txn.session, z, t)
                }
                TxnOp::Commit2pc { txn_id } => self.apply_commit(*txn_id, z, t),
                TxnOp::Abort2pc { txn_id } => self.apply_abort(*txn_id, z, t),
            }
        };
        // Read-your-writes without a barrier rests on this order: the tree
        // and `last_applied` move first, and the reply below goes out only
        // at the origin replica — so a session that has collected a write's
        // ack knows the replica it talks to has applied that write, and
        // (FIFO link, single-threaded replica, `serving` gate) every later
        // read it sends there sees it.
        self.last_applied = z;
        self.applied_count += 1;
        // The apply watermark moved: lease-authority observations waiting
        // on it may now anchor grants.
        self.lease.mature(z);
        if self.applied_count >= self.next_checkpoint {
            self.next_checkpoint =
                self.applied_count + CHECKPOINT_EVERY.max(self.tree.node_count() as u64);
            // Fuzzy snapshot: checkpoint the applied state and let the
            // replication layer drop the covered log prefix. In durable
            // mode the checkpoint also lands on disk first, truncating the
            // on-disk log it covers.
            let blob = snapshot::encode(&self.tree);
            if let Some(wal) = self.wal.as_mut() {
                if wal.checkpoint(zxid.as_u64(), &blob).is_err() {
                    self.fence();
                    return;
                }
            }
            self.peer.install_snapshot(zxid, blob);
        }

        for ev in &events {
            for (client, note) in self.watches.fire(ev) {
                out.push(ServerOut::Watch { client, note });
            }
        }
        if txn.origin == self.me {
            if let Some(p) = self.pending.remove(&txn.tag) {
                out.push(ServerOut::Client { client: p.client, req_id: p.req_id, resp });
            }
            // One applied no-op proves the barrier for every rider too —
            // the whole point of coalescing: N sessions, one ZAB round.
            for p in self.barrier_riders.remove(&txn.tag).unwrap_or_default() {
                out.push(ServerOut::Client {
                    client: p.client,
                    req_id: p.req_id,
                    resp: ZkResponse::Synced { zxid: z, coalesced: true },
                });
            }
            if self.open_barrier == Some(txn.tag) {
                self.open_barrier = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dufs_zkstore::CreateMode;

    /// Single-server ensemble: every request completes synchronously, which
    /// lets us unit-test the full request → replicate → apply → respond
    /// path without a runtime.
    fn single() -> CoordServer {
        let (s, _) = CoordServer::new(PeerId(0), EnsembleConfig::of_size(1));
        assert!(s.is_leader());
        s
    }

    fn client_resp(out: &[ServerOut]) -> &ZkResponse {
        out.iter()
            .find_map(|o| match o {
                ServerOut::Client { resp, .. } => Some(resp),
                _ => None,
            })
            .expect("a client response")
    }

    fn req(s: &mut CoordServer, session: u64, r: ZkRequest) -> ZkResponse {
        let out = s.handle(1_000_000, ServerIn::Client { client: 1, req_id: 0, session, req: r });
        client_resp(&out).clone()
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
        let resp = req(&mut s, 0, ZkRequest::Sync { coalesce: false });
        match resp {
            ZkResponse::Synced { zxid, coalesced } => {
                assert_eq!(zxid, s.last_applied());
                assert!(!coalesced, "a lone barrier pays for its own proposal");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sync_barrier_flushes_group_commit_buffer() {
        let (mut s, _) = CoordServer::new_with_config(
            PeerId(0),
            EnsembleConfig::of_size(1),
            ZabConfig::batched(8, 50),
        );
        assert!(s.is_leader());
        // A create buffered behind the Nagle timer has no response yet...
        let out = s.handle(
            1_000_000,
            ServerIn::Client {
                client: 1,
                req_id: 1,
                session: 0,
                req: ZkRequest::Create {
                    path: "/b".into(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            },
        );
        assert!(
            !out.iter().any(|o| matches!(o, ServerOut::Client { .. })),
            "create still buffered"
        );
        // ...until a sync barrier urgently flushes the batch: the create
        // commits first (total order), then the barrier answers.
        let out = s.handle(
            2_000_000,
            ServerIn::Client {
                client: 1,
                req_id: 2,
                session: 0,
                req: ZkRequest::Sync { coalesce: false },
            },
        );
        let resps: Vec<(u64, ZkResponse)> = out
            .iter()
            .filter_map(|o| match o {
                ServerOut::Client { req_id, resp, .. } => Some((*req_id, resp.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[0], (1, ZkResponse::Created { path: "/b".into() }));
        let (rid, ZkResponse::Synced { zxid, .. }) = resps[1].clone() else {
            panic!("expected Synced, got {:?}", resps[1]);
        };
        assert_eq!(rid, 2);
        assert_eq!(zxid, s.last_applied(), "the barrier is the newest applied txn");
        assert_eq!(s.committed(), s.last_applied());
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

    #[test]
    fn checkpoint_compacts_log_and_restart_restores_from_snapshot() {
        let mut s = single();
        // Drive well past the checkpoint interval.
        let n = super::CHECKPOINT_EVERY + 500;
        for i in 0..n {
            req(
                &mut s,
                0,
                ZkRequest::Create {
                    path: format!("/n{i}"),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            );
        }
        assert!(s.snapshot_zxid() > 0, "a checkpoint was taken");
        assert!((s.log_len() as u64) < n, "log compacted: {} entries for {} txns", s.log_len(), n);
        let digest = s.tree().digest();
        let count = s.tree().node_count();
        s.on_crash();
        let _ = s.on_restart(1_000_000);
        assert_eq!(s.tree().digest(), digest, "snapshot + tail replay restores the tree");
        assert_eq!(s.tree().node_count(), count);
        // And the server still works.
        let resp = req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/after".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(resp, ZkResponse::Created { path: "/after".into() });
    }

    /// A checkpoint costs as much as the tree is large, so after one that
    /// held N > `CHECKPOINT_EVERY` znodes the next is N transactions away.
    #[test]
    fn checkpoint_interval_grows_with_the_tree() {
        let mut s = single();
        let ops = (0..3 * super::CHECKPOINT_EVERY)
            .map(|i| MultiOp::Create {
                path: format!("/n{i}"),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            })
            .collect();
        req(&mut s, 0, ZkRequest::Multi { ops });
        let set = |s: &mut CoordServer| {
            req(s, 0, ZkRequest::SetData { path: "/n0".into(), data: Bytes::new(), version: None })
        };
        // The first checkpoint comes at the fixed count: nothing was known
        // about the tree when the server started.
        while s.snapshot_zxid() == 0 {
            set(&mut s);
        }
        assert_eq!(s.applied_count(), super::CHECKPOINT_EVERY);
        let (first, nodes) = (s.snapshot_zxid(), s.tree().node_count() as u64);
        for _ in 1..nodes {
            set(&mut s);
            assert_eq!(s.snapshot_zxid(), first, "checkpointed at {}", s.applied_count());
        }
        set(&mut s);
        assert!(s.snapshot_zxid() > first, "a tree's worth of transactions forces the next one");
    }

    #[test]
    fn crash_restart_replays_log() {
        let mut s = single();
        for i in 0..5 {
            req(
                &mut s,
                0,
                ZkRequest::Create {
                    path: format!("/n{i}"),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            );
        }
        let digest = s.tree().digest();
        s.on_crash();
        assert_eq!(s.tree().node_count(), 0);
        let _ = s.on_restart(9_000_000);
        assert_eq!(s.tree().digest(), digest, "restart replays the committed log");
        assert!(s.is_leader());
    }

    #[test]
    fn prepare_commit_applies_and_clears_fences() {
        use dufs_zkstore::MultiOp;
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/src".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        let slice = vec![
            MultiOp::Delete { path: "/src".into(), version: None },
            MultiOp::Create {
                path: "/dst/deep/leaf".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        ];
        let resp = req(
            &mut s,
            0,
            ZkRequest::TxnPrepare { txn_id: 7, ops: slice.clone(), participants: vec![0, 1] },
        );
        assert_eq!(resp, ZkResponse::Prepared);
        assert_eq!(s.prepared_txn_count(), 1);
        // Fenced paths reject normal writes deterministically...
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/src".into(), version: None }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // ...including creates *under* a path fenced for deletion.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::CreatePath {
                    path: "/src/child".into(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            ),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // A second transaction touching a fenced path cannot prepare.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 8,
                    ops: vec![MultiOp::SetData {
                        path: "/src".into(),
                        data: Bytes::new(),
                        version: None,
                    }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // Prepare retry with the identical payload is idempotent...
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare { txn_id: 7, ops: slice.clone(), participants: vec![0, 1] }
            ),
            ZkResponse::Prepared
        );
        // ...but a *different* payload under the same id (a txn-id
        // collision) is rejected, not blindly acknowledged.
        assert_eq!(
            req(&mut s, 0, ZkRequest::TxnPrepare { txn_id: 7, ops: vec![], participants: vec![] }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // Commit applies the slice, materializing ancestors for the create.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 7 }), ZkResponse::Committed);
        assert_eq!(s.prepared_txn_count(), 0);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/src".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/dst/deep/leaf".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
        // Marker gone; fences cleared.
        assert_eq!(
            req(&mut s, 0, ZkRequest::GetChildren { path: TXN_PREFIX.into(), watch: false }),
            ZkResponse::Children {
                names: vec![],
                stat: match req(
                    &mut s,
                    0,
                    ZkRequest::Exists { path: TXN_PREFIX.into(), watch: false }
                ) {
                    ZkResponse::ExistsResult(Some(stat)) => stat,
                    other => panic!("unexpected {other:?}"),
                }
            }
        );
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Delete { path: "/dst/deep/leaf".into(), version: None }),
            ZkResponse::Deleted
        ));
        // A decision retry after the slice is gone is distinguishable from
        // a real apply: the shard reports it holds nothing under the id.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 7 }), ZkResponse::TxnUnknown);
        assert_eq!(req(&mut s, 0, ZkRequest::TxnAbort { txn_id: 999 }), ZkResponse::TxnUnknown);
    }

    #[test]
    fn prepare_validates_against_the_current_tree() {
        use dufs_zkstore::MultiOp;
        let mut s = single();
        // Delete of a missing node fails at prepare, leaving nothing fenced.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 1,
                    ops: vec![MultiOp::Delete { path: "/missing".into(), version: None }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::NoNode)
        );
        assert_eq!(s.prepared_txn_count(), 0);
        // Create of an existing node fails at prepare.
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/x".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 2,
                    ops: vec![MultiOp::Create {
                        path: "/x".into(),
                        data: Bytes::new(),
                        mode: CreateMode::Persistent,
                    }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::NodeExists)
        );
        // Stale version check fails at prepare.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 3,
                    ops: vec![MultiOp::Check { path: "/x".into(), version: Some(5) }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::BadVersion)
        );
    }

    #[test]
    fn abort_discards_the_slice_and_unfences() {
        use dufs_zkstore::MultiOp;
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/keep".into(),
                data: Bytes::from_static(b"v"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 4,
                    ops: vec![MultiOp::Delete { path: "/keep".into(), version: None }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Prepared
        );
        assert_eq!(req(&mut s, 0, ZkRequest::TxnAbort { txn_id: 4 }), ZkResponse::Aborted);
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/keep".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
        // Fence is gone: the path is writable again.
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/keep".into(), version: None }),
            ZkResponse::Deleted
        );
    }

    #[test]
    fn close_session_leaves_prepared_txns_parked() {
        use dufs_zkstore::MultiOp;
        let mut s = single();
        let ZkResponse::Connected { session } = req(&mut s, 0, ZkRequest::Connect) else {
            panic!()
        };
        req(
            &mut s,
            session,
            ZkRequest::Create {
                path: "/f".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                session,
                ZkRequest::TxnPrepare {
                    txn_id: 11,
                    ops: vec![MultiOp::Delete { path: "/f".into(), version: None }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Prepared
        );
        // The coordinator's session dies with the transaction undecided.
        // The shard must NOT abort unilaterally: the coordinator's commit
        // may already have applied on another participant, and an abort
        // here would tear the transaction in half. The slice stays parked
        // and fenced until a recovery agent delivers the real decision.
        assert_eq!(req(&mut s, session, ZkRequest::CloseSession), ZkResponse::Closed);
        assert_eq!(s.prepared_txn_count(), 1, "prepared slice must survive session close");
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/f".into(), version: None }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // A decision from a *different* session resolves it and lifts the
        // fence.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 11 }), ZkResponse::Committed);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/f".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
    }

    #[test]
    fn prepared_txn_survives_crash_and_restart() {
        use dufs_zkstore::MultiOp;
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/src".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 21,
                    ops: vec![MultiOp::Delete { path: "/src".into(), version: None }],
                    participants: vec![0, 1],
                },
            ),
            ZkResponse::Prepared
        );
        s.on_crash();
        let _ = s.on_restart(5_000_000);
        assert_eq!(s.prepared_txn_count(), 1, "log replay reinstates the prepared slice");
        // Fences replayed too: the path is still parked...
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/src".into(), version: None }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // ...until the (retried) decision lands.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 21 }), ZkResponse::Committed);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/src".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
    }

    #[test]
    fn prepared_txn_survives_checkpoint_compaction() {
        use dufs_zkstore::MultiOp;
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/src".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 31,
                    ops: vec![MultiOp::Delete { path: "/src".into(), version: None }],
                    participants: vec![0, 1],
                },
            ),
            ZkResponse::Prepared
        );
        // Push the prepare below a checkpoint, so restart recovers it from
        // the snapshot (marker znode), not from log replay.
        for i in 0..super::CHECKPOINT_EVERY + 10 {
            req(
                &mut s,
                0,
                ZkRequest::Create {
                    path: format!("/n{i}"),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            );
        }
        assert!(s.snapshot_zxid() > 0);
        s.on_crash();
        let _ = s.on_restart(9_000_000);
        assert_eq!(s.prepared_txn_count(), 1, "marker came back via the snapshot");
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::SetData { path: "/src".into(), data: Bytes::new(), version: None }
            ),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        assert_eq!(req(&mut s, 0, ZkRequest::TxnAbort { txn_id: 31 }), ZkResponse::Aborted);
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/src".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
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
        use dufs_zkstore::MultiOp;
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

    // ------------------------------------------------------------------
    // Leases and barrier coalescing
    // ------------------------------------------------------------------

    #[test]
    fn lease_clock_math() {
        let voters = [PeerId(0), PeerId(1), PeerId(2)];
        let mut lc = LeaseClock::default();
        // Leader side: no evidence yet → no quorum instant.
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters, 2), None);
        lc.record_evidence(PeerId(1), 900);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters, 2), Some(100));
        // Newer evidence from another voter tightens the age (quorum 2 needs
        // only the newest other voter).
        lc.record_evidence(PeerId(2), 950);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters, 2), Some(50));
        // Evidence is max-monotone: a reordered older proof can't widen it.
        lc.record_evidence(PeerId(2), 800);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters, 2), Some(50));
        // A 5-voter quorum of 3 needs the 2nd-newest other voter.
        let five = [PeerId(0), PeerId(1), PeerId(2), PeerId(3), PeerId(4)];
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &five, 3), Some(100));
        // A sole voter is its own quorum.
        assert_eq!(LeaseClock::default().evidence_age(5, PeerId(0), &[PeerId(0)], 1), Some(0));

        // Follower side: an observation matures only once the local replica
        // has applied the leader's commit watermark at evidence time.
        let mut f = LeaseClock::default();
        f.record_auth(1_000, 7, 40);
        assert_eq!(f.anchor_ms, None);
        f.mature(6);
        assert_eq!(f.anchor_ms, None, "watermark not reached yet");
        f.mature(7);
        assert_eq!(f.anchor_ms, Some(960), "anchored at receipt − age");
        // ttl decays from the anchor and keeps the safety margin.
        assert_eq!(
            LeaseClock::ttl_from_anchor(960, 1_000),
            Some((LEASE_MS - 40 - LEASE_MARGIN_MS) as u32)
        );
        assert_eq!(LeaseClock::ttl_from_anchor(0, LEASE_MS), None, "exhausted authority");
        f.reset();
        assert_eq!(f.anchor_ms, None);
        assert!(f.pending_auth.is_empty());
    }

    #[test]
    fn single_node_leader_grants_lease_via_ping() {
        let mut s = single();
        let ZkResponse::Pong { lease, .. } = req(&mut s, 0, ZkRequest::Ping) else {
            panic!("expected Pong");
        };
        let g = lease.expect("a sole voter is its own quorum");
        assert_eq!(g.ttl_ms as u64, LEASE_MS - LEASE_MARGIN_MS);
        assert_eq!(s.leases_granted(), 1);
    }

    /// Deterministic in-process message pump for a multi-server ensemble:
    /// virtual clock, FIFO peer links, timers fired in due order. Messages
    /// are always delivered before time advances, so elections converge and
    /// leader pings keep follower watchdogs quiet — exactly the quiescent
    /// steady state the lease protocol assumes.
    struct Pump {
        servers: Vec<CoordServer>,
        inbox: std::collections::VecDeque<(usize, PeerId, CoordMsg)>,
        timers: Vec<(u64, usize, CoordTimer)>,
        resps: Vec<Vec<(ClientId, u64, ZkResponse)>>,
        now_ms: u64,
    }

    impl Pump {
        fn trio() -> Pump {
            Pump::trio_of(CoordServer::new)
        }

        fn trio_of(make: impl Fn(PeerId, EnsembleConfig) -> (CoordServer, Vec<ServerOut>)) -> Pump {
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
        fn read_a(&mut self, srv: usize) -> ZkResponse {
            self.client(srv, 9, 99, ZkRequest::GetData { path: "/a".into(), watch: false });
            let i = self.resps[srv].iter().position(|r| r.1 == 99).expect("reads answer at once");
            self.resps[srv].remove(i).2
        }

        fn now_ns(&self) -> u64 {
            self.now_ms * 1_000_000
        }

        fn route(&mut self, from: usize, outs: Vec<ServerOut>) {
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
        fn step(&mut self) {
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
        fn run_ms(&mut self, ms: u64) {
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
        fn drain(&mut self) {
            while !self.inbox.is_empty() {
                self.step();
            }
        }

        fn client(&mut self, srv: usize, client: ClientId, req_id: u64, req: ZkRequest) {
            let now = self.now_ns();
            let outs =
                self.servers[srv].handle(now, ServerIn::Client { client, req_id, session: 0, req });
            self.route(srv, outs);
        }

        fn leader(&self) -> usize {
            self.servers.iter().position(|s| s.is_leader()).expect("an established leader")
        }
    }

    #[test]
    fn follower_lease_matures_and_expires_without_leader_contact() {
        let mut p = Pump::trio();
        p.run_ms(3_000); // elect + several ping rounds of LeaseAuth
        let l = p.leader();
        let f = (0..3).find(|&i| i != l).unwrap();
        let now = p.now_ns();
        let gf = p.servers[f].lease_grant(now).expect("follower grants under a live leader");
        let gl = p.servers[l].lease_grant(now).expect("leader grants off quorum evidence");
        assert!(gf.ttl_ms > 0 && (gf.ttl_ms as u64) <= LEASE_MS - LEASE_MARGIN_MS);
        assert_eq!(gf.epoch, gl.epoch, "grants name the same leadership epoch");
        // With no further traffic the authority ages out everywhere: a
        // partitioned replica must stop granting within the lease bound.
        let later = now + (LEASE_MS + 1_000) * 1_000_000;
        assert!(p.servers[f].lease_grant(later).is_none(), "stale follower anchor");
        assert!(p.servers[l].lease_grant(later).is_none(), "stale quorum evidence");
    }

    #[test]
    fn coalesced_sync_riders_share_one_barrier() {
        let mut p = Pump::trio();
        p.run_ms(3_000);
        let l = p.leader();
        let applied_before = p.servers[l].applied_count();
        // A strict barrier at a multi-node leader awaits quorum acks.
        p.client(l, 1, 10, ZkRequest::Sync { coalesce: false });
        assert!(p.resps[l].is_empty(), "barrier must not answer before quorum");
        // A coalescing barrier arriving meanwhile rides it — no 2nd proposal.
        p.client(l, 2, 20, ZkRequest::Sync { coalesce: true });
        assert!(p.resps[l].is_empty());
        assert_eq!(p.servers[l].barriers_coalesced(), 1);
        p.drain();
        let resps = std::mem::take(&mut p.resps[l]);
        assert_eq!(resps.len(), 2, "owner and rider both answered");
        let owner = resps.iter().find(|r| r.0 == 1).expect("owner resp").2.clone();
        let rider = resps.iter().find(|r| r.0 == 2).expect("rider resp").2.clone();
        let ZkResponse::Synced { zxid: z1, coalesced: false } = owner else {
            panic!("owner got {owner:?}");
        };
        let ZkResponse::Synced { zxid: z2, coalesced: true } = rider else {
            panic!("rider got {rider:?}");
        };
        assert_eq!(z1, z2, "both observe the same barrier point");
        assert_eq!(p.servers[l].applied_count(), applied_before + 1, "exactly one no-op proposed");
        // The barrier is closed: the next coalescing sync opens a fresh one.
        p.client(l, 3, 30, ZkRequest::Sync { coalesce: true });
        p.drain();
        let resps = std::mem::take(&mut p.resps[l]);
        assert!(
            matches!(resps[..], [(3, 30, ZkResponse::Synced { coalesced: false, .. })]),
            "no open barrier to ride → proposes its own: {resps:?}"
        );
        assert_eq!(p.servers[l].barriers_coalesced(), 1);
    }

    fn create_a() -> ZkRequest {
        ZkRequest::Create {
            path: "/a".into(),
            data: Bytes::from_static(b"v"),
            mode: CreateMode::Persistent,
        }
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
