//! The ZAB peer state machine.
//!
//! A [`ZabPeer`] is a pure state machine: feed it messages and timer fires,
//! execute the [`ZabAction`]s it returns. It never touches a clock, a
//! socket, or a thread, which is what lets the same code run under the
//! discrete-event simulator, the live runtime, and the randomized
//! safety-test harnesses. It only routes: its state lives in four pieces —
//! the `Log`, the `Election`, the leader's `Broadcast` and the follower's
//! `LearnerSync` — and the timer generations.

mod broadcast;
mod election;
mod learner;
mod log;

use bytes::Bytes;

use crate::config::{EnsembleConfig, PeerId, ZabConfig};
use crate::msg::{PersistEvent, Vote, ZabAction, ZabMsg, ZabTimer};
use crate::zxid::Zxid;
use broadcast::Broadcast;
use election::Election;
use learner::LearnerSync;
use log::Log;

/// Default election retry period (milliseconds, virtual).
pub const ELECTION_TIMEOUT_MS: u64 = 150;
/// Leader heartbeat period.
pub const LEADER_PING_MS: u64 = 100;
/// Follower silence tolerance before re-election.
pub const WATCHDOG_MS: u64 = 450;

/// A peer's role in the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Electing: exchanging votes.
    Looking,
    /// Following `leader`; `synced` once the log synchronization handshake
    /// completed and broadcast traffic is accepted.
    Following {
        /// The leader this peer follows.
        leader: PeerId,
        /// Whether sync completed.
        synced: bool,
    },
    /// Won the election; `established` once a quorum has synchronized.
    Leading {
        /// Whether a quorum of followers acknowledged synchronization.
        established: bool,
    },
}

/// Error returned by [`ZabPeer::propose`] when this peer cannot accept
/// writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// Best current guess at who the leader is, for request forwarding.
    pub leader_hint: Option<PeerId>,
}

/// Durable state recovered from a write-ahead log, used by
/// [`ZabPeer::recover`] to rebuild a peer after a whole-process crash. The
/// commit watermark is deliberately absent: it need not be persisted —
/// leader establishment re-commits the elected history (ZAB's guarantee
/// that the winning quorum's log contains every committed entry).
#[derive(Debug, Clone, Default)]
pub struct DurableState<T> {
    /// The highest epoch this peer promised ([`PersistEvent::Epoch`]).
    pub epoch: u32,
    /// The newest decodable checkpoint, if any.
    pub snapshot: Option<(Zxid, Bytes)>,
    /// Log entries above the snapshot watermark, strictly ascending.
    pub log: Vec<(Zxid, T)>,
}

/// The actions one input yields, in the order the host performs them.
type Actions<T> = Vec<ZabAction<T>>;

/// One generation per [`ZabTimer`] kind: arming bumps it, and only a fire of
/// the current one counts. They stay monotone across regimes and crashes —
/// a reset would let a stale fire from an old regime match.
#[derive(Debug, Default)]
struct Timers([u64; 4]);

impl Timers {
    /// The fire's kind (as a slot) and generation.
    fn slot(fire: ZabTimer) -> (usize, u64) {
        match fire {
            ZabTimer::Election(gen) => (0, gen),
            ZabTimer::LeaderPing(gen) => (1, gen),
            ZabTimer::FollowerWatchdog(gen) => (2, gen),
            ZabTimer::BatchFlush(gen) => (3, gen),
        }
    }

    /// Make every pending fire of `kind` stale; returns the new generation.
    fn cancel(&mut self, kind: fn(u64) -> ZabTimer) -> u64 {
        let gen = &mut self.0[Self::slot(kind(0)).0];
        *gen += 1;
        *gen
    }

    fn arm<T>(&mut self, kind: fn(u64) -> ZabTimer, after_ms: u64, out: &mut Actions<T>) {
        out.push(ZabAction::SetTimer { timer: kind(self.cancel(kind)), after_ms });
    }

    fn live(&self, fire: ZabTimer) -> bool {
        let (kind, gen) = Self::slot(fire);
        self.0[kind] == gen
    }
}

/// The ZAB state machine for one ensemble member. `T` is the replicated
/// transaction type.
#[derive(Debug)]
pub struct ZabPeer<T> {
    id: PeerId,
    config: EnsembleConfig,
    /// Group-commit tuning (batch bound + flush timer). Default is
    /// batch-of-one: classic per-transaction rounds.
    zcfg: ZabConfig,
    role: Role,
    /// The history: survives a crash (ZooKeeper keeps it on disk — §IV-I).
    log: Log<T>,
    election: Election,
    /// The regime this peer leads: `Some` exactly while `Leading`.
    leader: Option<Broadcast<T>>,
    learner: LearnerSync,
    timers: Timers,
}

impl<T: Clone> ZabPeer<T> {
    /// Create a peer and return its startup actions (its first election
    /// round, or immediate leadership for a single-peer ensemble). Uses the
    /// default [`ZabConfig`]: batch-of-one, i.e. classic ZAB.
    pub fn new(id: PeerId, config: EnsembleConfig) -> (Self, Vec<ZabAction<T>>) {
        Self::new_with_config(id, config, ZabConfig::default())
    }

    /// Create a peer with explicit group-commit tuning.
    pub fn new_with_config(
        id: PeerId,
        config: EnsembleConfig,
        zcfg: ZabConfig,
    ) -> (Self, Vec<ZabAction<T>>) {
        let fresh = DurableState { epoch: 0, snapshot: None, log: Vec::new() };
        let mut peer = Self::assemble(id, config, zcfg, fresh);
        let mut out = Vec::new();
        peer.start_election(peer.id, peer.log.last_zxid(), &mut out);
        (peer, out)
    }

    /// Rebuild a peer from write-ahead-log state after a whole-process
    /// crash (cold start). The snapshot is restored into the state machine
    /// and the log tail above it is *retained but not yet delivered*: the
    /// commit watermark starts at the snapshot zxid, and the tail commits
    /// through the normal path — leader establishment (if this peer wins
    /// election, its whole history becomes committed) or follower sync.
    /// Entries at or below the snapshot watermark are discarded.
    pub fn recover(
        id: PeerId,
        config: EnsembleConfig,
        zcfg: ZabConfig,
        durable: DurableState<T>,
    ) -> (Self, Vec<ZabAction<T>>) {
        let mut peer = Self::assemble(id, config, zcfg, durable);
        let out = peer.on_restart();
        (peer, out)
    }

    fn assemble(id: PeerId, config: EnsembleConfig, zcfg: ZabConfig, d: DurableState<T>) -> Self {
        assert!(config.is_member(id), "peer must be an ensemble member");
        assert!(zcfg.max_batch >= 1, "a batch holds at least one transaction");
        ZabPeer {
            id,
            config,
            zcfg,
            role: Role::Looking,
            election: Election::new(id, d.epoch),
            log: Log::new(d),
            leader: None,
            learner: LearnerSync::default(),
            timers: Timers::default(),
        }
    }

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }
    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }
    /// True if this peer is the established leader.
    pub fn is_established_leader(&self) -> bool {
        self.role == (Role::Leading { established: true })
    }
    /// Who this peer believes leads, if anyone (for request forwarding).
    pub fn leader_hint(&self) -> Option<PeerId> {
        match self.role {
            Role::Leading { .. } => Some(self.id),
            Role::Following { leader, .. } => Some(leader),
            Role::Looking => None,
        }
    }
    /// The leader this peer may vouch for to `asker`. An unsynced follower
    /// only guessed (it joined on a vote tally the candidate may have
    /// abandoned since), so it confirms the guess to the alleged leader
    /// alone — passing it on builds follower chains and cycles that only
    /// the watchdog drains.
    fn vouched_leader(&self, asker: PeerId) -> Option<PeerId> {
        match self.role {
            Role::Following { leader, synced: false } if leader != asker => None,
            _ => self.leader_hint(),
        }
    }
    /// `Some(synced)` if this peer follows `from`.
    fn following(&self, from: PeerId) -> Option<bool> {
        match self.role {
            Role::Following { leader, synced } if leader == from => Some(synced),
            _ => None,
        }
    }
    /// Last zxid in the history: the log tail, or the snapshot watermark if
    /// the log has been fully compacted (ZERO before any transaction).
    pub fn last_zxid(&self) -> Zxid {
        self.log.last_zxid()
    }
    /// The zxid covered by the installed snapshot (ZERO if none).
    pub fn snapshot_zxid(&self) -> Zxid {
        self.log.snapshot_zxid()
    }
    /// Install a checkpoint of the state machine as delivered up to `zxid`
    /// (must not exceed the commit watermark) and compact the log prefix it
    /// covers. Bounds log memory — the concern §VII's future work raises.
    ///
    /// # Panics
    /// Panics if `zxid` exceeds the commit watermark (checkpointing
    /// uncommitted state would be unsound).
    pub fn install_snapshot(&mut self, zxid: Zxid, blob: Bytes) {
        self.log.compact(zxid, blob);
    }
    /// Commit watermark.
    pub fn committed(&self) -> Zxid {
        self.log.committed()
    }
    /// Log length (committed + in-flight), after compaction.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
    /// Epoch this peer last accepted.
    pub fn epoch(&self) -> u32 {
        self.log.epoch()
    }
    /// Whether this peer is a non-voting observer.
    pub fn is_observer(&self) -> bool {
        self.config.is_observer(self.id)
    }

    /// Submit a transaction for replication. Only the established leader
    /// accepts; everyone else reports a forwarding hint.
    ///
    /// With group commit enabled (`max_batch > 1`), the transaction is
    /// buffered; the batch is proposed when full or when the flush timer
    /// fires. No zxid exists until then, so a buffered transaction lost to
    /// a crash was never promised to anyone. With the default batch-of-one
    /// the proposal goes out immediately, exactly as classic ZAB.
    pub fn propose(&mut self, txn: T) -> Result<Vec<ZabAction<T>>, NotLeader> {
        let buffered = self.buffer(txn)?;
        let mut out = Vec::new();
        if buffered >= self.zcfg.max_batch {
            self.flush_batch(&mut out);
        } else if buffered == 1 {
            // First transaction of a fresh batch: arm the Nagle timer.
            self.timers.arm(ZabTimer::BatchFlush, self.zcfg.flush_ms, &mut out);
        }
        Ok(out)
    }

    /// [`ZabPeer::propose`], but the batch — this transaction plus anything
    /// already buffered — is flushed immediately instead of waiting for the
    /// Nagle timer. Used for `sync` barriers, where group-commit latency
    /// would defeat the point of the barrier.
    pub fn propose_urgent(&mut self, txn: T) -> Result<Vec<ZabAction<T>>, NotLeader> {
        self.buffer(txn)?;
        let mut out = Vec::new();
        self.flush_batch(&mut out);
        Ok(out)
    }

    /// Add `txn` to the established leader's batch; returns the batch size.
    fn buffer(&mut self, txn: T) -> Result<usize, NotLeader> {
        match self.leader.as_mut() {
            Some(b) if self.role == (Role::Leading { established: true }) => Ok(b.push(txn)),
            _ => Err(NotLeader { leader_hint: self.leader_hint() }),
        }
    }

    /// Propose the buffered batch: mint a contiguous zxid range, log it
    /// atomically (so sync points fall on batch boundaries), and run ONE
    /// quorum round for it, keyed by its last zxid.
    fn flush_batch(&mut self, out: &mut Actions<T>) {
        self.timers.cancel(ZabTimer::BatchFlush);
        let Some(txns) = self.leader.as_mut().and_then(Broadcast::take_batch) else { return };
        let (epoch, tail) = (self.log.epoch(), self.log.last_zxid());
        let first = if tail.epoch() == epoch { tail.next() } else { Zxid::first_of_epoch(epoch) };
        let propose = ZabMsg::Propose { zxid: first, txns: txns.clone() };
        let entries = self.log.append_contiguous(first, txns).expect("a leader extends its tail");
        let b = self.leader.as_mut().expect("flushing implies leading");
        b.open_round(self.log.last_zxid());
        // The leader's own (implicit) ack is only valid once the batch is
        // durable. The host may send the Proposes below before it syncs this
        // append, but takes no input until it has: any ack that could form
        // a commit with that implicit one arrives after the sync.
        out.push(ZabAction::Persist(PersistEvent::Append { entries }));
        for f in b.followers() {
            // Observers get one INFORM at commit time instead.
            if !self.config.is_observer(f) {
                out.push(ZabAction::Send { to: f, msg: propose.clone() });
            }
        }
        // Single-server ensembles (and quorums of one) commit immediately.
        self.try_advance_commit(out);
    }

    /// Handle a message from `from`.
    pub fn on_message(&mut self, from: PeerId, msg: ZabMsg<T>) -> Vec<ZabAction<T>> {
        let mut out = Vec::new();
        match msg {
            ZabMsg::Notification { vote, established } => {
                self.on_notification(from, vote, established, &mut out)
            }
            ZabMsg::FollowerInfo { last_zxid, accepted_epoch } => {
                self.on_follower_info(from, last_zxid, accepted_epoch, &mut out)
            }
            sync @ ZabMsg::SyncLog { .. } => self.on_sync_log(from, sync, &mut out),
            chunk @ ZabMsg::SnapChunk { epoch, total, .. } => {
                if self.following(from).is_some()
                    && epoch >= self.log.epoch()
                    && total > 0
                    && !self.learner.on_chunk(chunk)
                {
                    self.request_resync(from, &mut out);
                }
            }
            ZabMsg::AckSync { epoch } => self.on_ack_sync(from, epoch, &mut out),
            ZabMsg::Propose { zxid, txns } => self.on_propose(from, zxid, txns, &mut out),
            ZabMsg::Ack { zxid } => {
                // Observers never contribute to commit quorums.
                if let (Some(b), false) = (self.leader.as_mut(), self.config.is_observer(from)) {
                    b.ack(from, zxid);
                    self.try_advance_commit(&mut out);
                }
            }
            ZabMsg::Commit { zxid } if self.following(from) == Some(true) => {
                self.learner.heard();
                if zxid > self.log.last_zxid() {
                    // Commit for an entry we never logged: our pipe lost
                    // something.
                    self.request_resync(from, &mut out);
                } else {
                    self.commit(zxid, &mut out);
                }
            }
            ZabMsg::Commit { .. } => {}
            ZabMsg::Inform { zxid, txns } => self.on_inform(from, zxid, txns, &mut out),
            ZabMsg::Ping { epoch, commit_to } => self.on_ping(from, epoch, commit_to, &mut out),
            ZabMsg::Pong => {
                if let Some(b) = self.leader.as_mut() {
                    b.pong(from);
                }
            }
        }
        out
    }

    /// Handle a timer fire.
    pub fn on_timer(&mut self, timer: ZabTimer) -> Vec<ZabAction<T>> {
        let mut out = Vec::new();
        if !self.timers.live(timer) {
            return out;
        }
        match (timer, self.role) {
            (ZabTimer::Election(_), Role::Looking) => {
                self.election.decay();
                self.canvass(&mut out);
            }
            (ZabTimer::LeaderPing(_), Role::Leading { .. }) => {
                let b = self.leader.as_mut().expect("leading implies a regime");
                if b.lost_quorum(&self.config) {
                    self.start_election(self.id, self.log.last_zxid(), &mut out);
                    return out;
                }
                let (epoch, commit_to) = (self.log.epoch(), self.log.committed());
                for p in self.config.all_others(self.id) {
                    out.push(ZabAction::Send { to: p, msg: ZabMsg::Ping { epoch, commit_to } });
                }
                self.timers.arm(ZabTimer::LeaderPing, LEADER_PING_MS, &mut out);
            }
            (ZabTimer::FollowerWatchdog(_), Role::Following { leader, .. }) => {
                if self.learner.take_heard() {
                    self.timers.arm(ZabTimer::FollowerWatchdog, WATCHDOG_MS, &mut out);
                } else {
                    self.election.distrust(leader);
                    self.start_election(self.id, self.log.last_zxid(), &mut out);
                }
            }
            // The one-shot Nagle flush (a stale generation already went out
            // with a full batch or an earlier fire).
            (ZabTimer::BatchFlush(_), Role::Leading { established: true }) => {
                self.flush_batch(&mut out)
            }
            _ => {}
        }
        out
    }

    /// The peer crashed: volatile state is lost; the log, commit watermark
    /// and accepted epoch survive (ZooKeeper checkpoints these to disk —
    /// paper §IV-I).
    pub fn on_crash(&mut self) {
        self.role = Role::Looking;
        self.election.forget();
        self.leader = None;
        self.learner.reset();
        self.log.rewind();
    }

    /// The peer restarts after a crash: replay the committed prefix into the
    /// state machine, then rejoin the ensemble.
    pub fn on_restart(&mut self) -> Vec<ZabAction<T>> {
        let mut out = Vec::new();
        self.replay(&mut out);
        self.start_election(self.id, self.log.last_zxid(), &mut out);
        out
    }

    /// Rebuild the state machine: the snapshot (or nothing), then the
    /// committed log above it.
    fn replay(&mut self, out: &mut Actions<T>) {
        out.push(match self.log.snapshot() {
            Some((zxid, blob)) => ZabAction::RestoreSnapshot { zxid: *zxid, blob: blob.clone() },
            None => ZabAction::ResetState,
        });
        self.log.rewind();
        self.commit(self.log.committed(), out);
    }

    /// Advance the commit watermark to `zxid` (never past our tail) and
    /// deliver whatever that commits, in order.
    fn commit(&mut self, zxid: Zxid, out: &mut Actions<T>) {
        self.log.commit_to(zxid);
        for (zxid, txn) in self.log.deliverable() {
            out.push(ZabAction::Deliver { zxid: *zxid, txn: txn.clone() });
        }
    }

    /// Send our vote around, and again after an election period.
    fn canvass(&mut self, out: &mut Actions<T>) {
        self.election.broadcast(&self.config, out);
        let after_ms = ELECTION_TIMEOUT_MS + self.id.0 as u64 * 7;
        self.timers.arm(ZabTimer::Election, after_ms, out);
    }

    /// Look for a leader, standing for `candidate`'s `history`: our own,
    /// except where a leader yields to a follower's longer one.
    fn start_election(&mut self, candidate: PeerId, history: Zxid, out: &mut Actions<T>) {
        self.role = Role::Looking;
        self.leader = None;
        self.learner.reset();
        let voter = !self.is_observer();
        self.election.begin(candidate, history, voter);
        out.push(ZabAction::StartedElection);
        if voter && self.config.len() == 1 {
            self.become_leader(out);
        } else {
            // Observers never vote or lead: they ask the voters for the
            // established leader until one answers.
            self.canvass(out);
        }
    }

    fn on_notification(
        &mut self,
        from: PeerId,
        vote: Vote,
        established: Option<PeerId>,
        out: &mut Actions<T>,
    ) {
        if !self.config.is_member(from) {
            return;
        }
        let observer = self.config.is_observer(from);
        if self.role == Role::Looking && !observer {
            let last = self.log.last_zxid();
            match self.election.hear(&self.config, from, vote, established, last, out) {
                Some(leader) if leader == self.id => self.become_leader(out),
                Some(leader) => self.join_leader(leader, out),
                None => {}
            }
        } else if observer || established.is_none() {
            // Tell an asker who leads: an observer probing (its "vote" is
            // never tallied) or a peer asking (`established: None`). A
            // notification asserting a leader is a settled peer's view, not
            // a question: answering it makes two settled peers echo hints
            // forever (fatal when the views disagree, e.g. a follower cycle
            // with no live leader — that must drain via the watchdog and a
            // real election).
            if let Some(leader) = self.vouched_leader(from) {
                let vote = self.election.vote();
                let msg = ZabMsg::Notification { vote, established: Some(leader) };
                out.push(ZabAction::Send { to: from, msg });
            }
        }
    }

    fn become_leader(&mut self, out: &mut Actions<T>) {
        let epoch = self.election.lead(self.log.epoch(), self.log.last_zxid());
        self.log.promise(epoch);
        // The epoch promise must survive a crash (a restarted leader must
        // never mint zxids under an epoch it already used).
        out.push(ZabAction::Persist(PersistEvent::Epoch(epoch)));
        self.role = Role::Leading { established: false };
        self.leader = Some(Broadcast::new());
        if self.config.is_quorum(1) {
            self.establish(out);
        }
        if self.config.len() > 1 {
            self.timers.arm(ZabTimer::LeaderPing, LEADER_PING_MS, out);
        }
    }

    fn establish(&mut self, out: &mut Actions<T>) {
        self.role = Role::Leading { established: true };
        // The elected history is the authoritative one: all of it commits.
        self.commit(self.log.last_zxid(), out);
        out.push(ZabAction::BecameLeader { epoch: self.log.epoch() });
    }

    fn join_leader(&mut self, leader: PeerId, out: &mut Actions<T>) {
        self.election.follow(leader);
        self.leader = None;
        self.learner.heard();
        self.request_resync(leader, out);
        self.timers.arm(ZabTimer::FollowerWatchdog, WATCHDOG_MS, out);
    }

    /// Drop back to unsynced and run the FollowerInfo handshake with
    /// `leader` — the one place a follower asks for a sync.
    fn request_resync(&mut self, leader: PeerId, out: &mut Actions<T>) {
        self.role = Role::Following { leader, synced: false };
        let (last_zxid, accepted_epoch) = (self.log.last_zxid(), self.log.epoch());
        let msg = ZabMsg::FollowerInfo { last_zxid, accepted_epoch };
        out.push(ZabAction::Send { to: leader, msg });
    }

    fn on_follower_info(&mut self, from: PeerId, f_last: Zxid, f_epoch: u32, out: &mut Actions<T>) {
        if !matches!(self.role, Role::Leading { .. }) {
            return;
        }
        self.election.note_epoch(f_epoch);
        let (epoch, last) = (self.log.epoch(), self.log.last_zxid());
        if f_epoch > epoch || f_last > last {
            // The follower promised a higher epoch (a failed candidacy
            // somewhere) and will reject everything we send; or its history
            // is LONGER than ours and may hold committed transactions we
            // lack (it can reach us through an `established` hint without
            // ever voting) — truncating it could destroy a committed entry.
            // Either way our leadership is illegitimate: yield and re-elect,
            // minting above every epoch seen, where a longer history wins.
            // A longer history is the one to stand for, not ours: the
            // followers we led still vouch for us, and their support alone
            // would elect us over it again, round after round.
            self.election.note_epoch(f_last.epoch());
            let (candidate, history) = if f_last > last { (from, f_last) } else { (self.id, last) };
            self.start_election(candidate, history, out);
            return;
        }
        // A suffix from where the follower is, or — if the prefix it needs
        // was compacted away (SNAP sync), or its tail diverged from ours
        // and holds uncommitted leftovers — a reset onto our snapshot plus
        // our whole log. One at our snapshot point (both ZERO included)
        // gets the whole log as a suffix.
        let snap = self.log.snapshot_zxid();
        let reset = f_last != snap && (f_last < snap || self.log.position(f_last).is_none());
        let after = if reset || f_last == snap { Zxid::ZERO } else { f_last };
        let entries = self.log.range(after, last).to_vec();
        let snapshot = if reset { self.log.snapshot().cloned() } else { None };
        // Its AckSync will cover exactly this prefix, nothing later.
        self.leader.as_mut().expect("leading implies a regime").sync_point(from, last);
        let cap = self.zcfg.snap_chunk_bytes;
        let (snapshot, snap_chunks) = LearnerSync::stream(from, epoch, snapshot, cap, out);
        let commit_to = self.log.committed();
        let msg = ZabMsg::SyncLog { epoch, snapshot, entries, commit_to, reset, snap_chunks };
        out.push(ZabAction::Send { to: from, msg });
    }

    fn on_sync_log(&mut self, from: PeerId, sync: ZabMsg<T>, out: &mut Actions<T>) {
        let ZabMsg::SyncLog { epoch, snapshot, entries, commit_to, reset, snap_chunks } = sync
        else {
            return;
        };
        if self.following(from).is_none() || epoch < self.log.epoch() {
            return;
        }
        let Some(snapshot) = self.learner.closing_snapshot(epoch, snap_chunks, snapshot) else {
            self.request_resync(from, out);
            return;
        };
        let epoch_advanced = epoch != self.log.epoch();
        self.log.promise(epoch);
        self.election.note_epoch(epoch);
        self.learner.heard();
        // Durability before the AckSync below: on reset the whole
        // replacement history is re-logged under the new regime; otherwise
        // the appended suffix (and the epoch promise, if it advanced).
        if reset {
            let entries = self.log.replace(snapshot, entries);
            self.replay(out);
            let snapshot = self.log.snapshot().cloned();
            out.push(ZabAction::Persist(PersistEvent::Reset { epoch, snapshot, entries }));
        } else {
            let entries = self.log.extend(entries);
            if epoch_advanced {
                out.push(ZabAction::Persist(PersistEvent::Epoch(epoch)));
            }
            if !entries.is_empty() {
                out.push(ZabAction::Persist(PersistEvent::Append { entries }));
            }
        }
        self.commit(commit_to, out);
        self.role = Role::Following { leader: from, synced: true };
        out.push(ZabAction::Send { to: from, msg: ZabMsg::AckSync { epoch } });
        out.push(ZabAction::BecameFollower { leader: from, epoch });
        self.timers.arm(ZabTimer::FollowerWatchdog, WATCHDOG_MS, out);
    }

    fn on_ack_sync(&mut self, from: PeerId, epoch: u32, out: &mut Actions<T>) {
        let (Role::Leading { established }, Some(b)) = (self.role, self.leader.as_mut()) else {
            return;
        };
        // An ack from one of our previous regimes: that follower is not
        // synced into *this* epoch and must not receive its stream.
        if epoch != self.log.epoch() {
            return;
        }
        let quorum = b.sync_acked(from, &self.config);
        // Observers receive the stream but count toward no quorum.
        if !self.config.is_observer(from) {
            if !established && quorum {
                self.establish(out);
            }
            self.try_advance_commit(out);
        }
    }

    fn on_ping(&mut self, from: PeerId, epoch: u32, commit_to: Zxid, out: &mut Actions<T>) {
        let Role::Following { leader, synced } = self.role else { return };
        if leader != from {
            // Only a leader pings. We joined `leader` on a vote tally and
            // never completed the handshake; an operating leader of no
            // regime older than one we accepted beats that guess —
            // typically the candidate moved on and follows `from` itself.
            if !synced && epoch >= self.log.epoch() {
                self.join_leader(from, out);
            }
            return;
        }
        // Only a *synced* follower takes pings as proof of a live regime:
        // if sync never completes (e.g. the leader keeps yielding to our
        // longer history), the watchdog must fire so a real election runs.
        if synced {
            self.learner.heard();
        }
        out.push(ZabAction::Send { to: from, msg: ZabMsg::Pong });
        if !synced || epoch != self.log.epoch() {
            // Our FollowerInfo raced the leader's own election, or it began
            // a new epoch since we synced: re-run the handshake. (A ping
            // older than our sync leaves us serving our regime meanwhile.)
            let stale = synced && epoch < self.log.epoch();
            self.request_resync(from, out);
            self.role = Role::Following { leader, synced: stale };
        } else if commit_to > self.log.committed() {
            // The piggybacked watermark converges a quiet tail — unless the
            // leader committed entries we never logged (we synced in a race
            // window and the proposals missed us).
            if commit_to <= self.log.last_zxid() {
                self.commit(commit_to, out);
            } else {
                self.request_resync(from, out);
            }
        }
    }

    /// Log a batch continuing our tail and persist it; on a gap, or traffic
    /// from an epoch we never promised, resync instead. Returns whether the
    /// batch was logged.
    fn log_batch(&mut self, from: PeerId, first: Zxid, txns: Vec<T>, out: &mut Actions<T>) -> bool {
        let Some(entries) = self.log.append_contiguous(first, txns) else {
            self.request_resync(from, out);
            return false;
        };
        out.push(ZabAction::Persist(PersistEvent::Append { entries }));
        true
    }

    fn on_propose(&mut self, from: PeerId, zxid: Zxid, txns: Vec<T>, out: &mut Actions<T>) {
        if self.following(from) != Some(true) || txns.is_empty() {
            return;
        }
        self.learner.heard();
        let last = Zxid::new(zxid.epoch(), zxid.counter() + txns.len() as u32 - 1);
        // A duplicate batch is dropped. Persist-before-ack: the ack (of the
        // batch's last zxid, covering the range) promises it survives a
        // crash.
        if last > self.log.last_zxid() && self.log_batch(from, zxid, txns, out) {
            out.push(ZabAction::Send { to: from, msg: ZabMsg::Ack { zxid: last } });
        }
    }

    fn try_advance_commit(&mut self, out: &mut Actions<T>) {
        if !self.is_established_leader() {
            return;
        }
        let b = self.leader.as_mut().expect("leading implies a regime");
        let old = self.log.committed();
        let Some(new) = b.commit_ready(self.config.quorum()).filter(|z| *z > old) else { return };
        self.log.commit_to(new);
        let followers = b.followers();
        // The newly committed entries are contiguous in the leader's epoch
        // (establishment committed everything older before any observer
        // synced): one INFORM covers them, sliced only if an observer is
        // there to receive it.
        let mut inform = None;
        if followers.iter().any(|&p| self.config.is_observer(p)) {
            let newly = self.log.range(old, new);
            let txns = newly.iter().map(|(_, t)| t.clone()).collect();
            inform = newly.first().map(|&(zxid, _)| ZabMsg::Inform { zxid, txns });
        }
        for to in followers {
            if !self.config.is_observer(to) {
                out.push(ZabAction::Send { to, msg: ZabMsg::Commit { zxid: new } });
            } else if let Some(msg) = inform.clone() {
                out.push(ZabAction::Send { to, msg });
            }
        }
        self.commit(new, out);
    }

    /// Observer-side INFORM: append the committed batch and deliver it,
    /// continuity as for a proposal. Unlike a proposal, an INFORM range can
    /// reach back before our sync point (sync ships the leader's *log*,
    /// then-uncommitted entries included, while informs start after the old
    /// commit watermark), so the prefix we hold is trimmed, not a gap.
    fn on_inform(&mut self, from: PeerId, zxid: Zxid, mut txns: Vec<T>, out: &mut Actions<T>) {
        if self.following(from) != Some(true) || !self.is_observer() || txns.is_empty() {
            return;
        }
        self.learner.heard();
        let tail = self.log.last_zxid();
        let last = Zxid::new(zxid.epoch(), zxid.counter() + txns.len() as u32 - 1);
        if last <= tail {
            return; // everything already held: duplicate
        }
        let mut first = zxid;
        if zxid.epoch() == tail.epoch() && zxid <= tail {
            txns.drain(..=(tail.counter() - zxid.counter()) as usize);
            first = tail.next();
        }
        if self.log_batch(from, first, txns, out) {
            self.commit(last, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P = ZabPeer<u32>;

    fn single() -> (P, Vec<ZabAction<u32>>) {
        ZabPeer::new(PeerId(0), EnsembleConfig::of_size(1))
    }

    #[test]
    fn single_peer_leads_immediately() {
        let (p, acts) = single();
        assert!(p.is_established_leader());
        // First epoch of peer 0: base 1 composed with the id low byte.
        assert!(acts.iter().any(|a| matches!(a, ZabAction::BecameLeader { epoch: 256 })));
    }

    #[test]
    fn non_leader_rejects_proposals() {
        let (mut p, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(3));
        assert_eq!(p.propose(1).unwrap_err(), NotLeader { leader_hint: None });
    }

    #[test]
    fn crash_preserves_log_and_commit() {
        let (mut p, _) = single();
        p.propose(7).unwrap();
        let committed = p.committed();
        p.on_crash();
        assert_eq!(p.log_len(), 1);
        assert_eq!(p.committed(), committed);
        assert_eq!(p.role(), Role::Looking);
        let acts = p.on_restart();
        // Replays the committed entry into the state machine.
        assert!(acts.iter().any(|a| matches!(a, ZabAction::ResetState)));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 7, .. })));
        // Single-node ensemble: leads again with a higher epoch.
        assert!(p.is_established_leader());
        assert_eq!(p.epoch(), 512, "epoch base advanced, id preserved in the low byte");
    }

    /// A leader that yields to a follower's longer history stands for that
    /// history in the election it starts, with one vote to each peer. Its
    /// other follower, still loyal, answers "established: you", which used
    /// to count as a vote for the yielding leader's own candidacy and
    /// re-elect it over the longer history, round after round.
    #[test]
    fn a_leader_yielding_to_a_longer_history_is_not_reelected_by_its_followers() {
        let (l, f1, f2) = (PeerId(0), PeerId(1), PeerId(2));
        let (mut p, _) = ZabPeer::<u32>::new(l, EnsembleConfig::of_size(3));
        let loyal = |p: &P| ZabMsg::Notification { vote: p.election.vote(), established: Some(l) };
        p.on_message(f2, loyal(&p));
        assert_eq!(p.role(), Role::Leading { established: false });
        p.on_message(f2, ZabMsg::FollowerInfo { last_zxid: Zxid::ZERO, accepted_epoch: 0 });
        p.on_message(f2, ZabMsg::AckSync { epoch: p.epoch() });
        assert!(p.is_established_leader());

        let longer = Zxid::new(p.epoch() - 1, 5);
        let acts = p.on_message(f1, ZabMsg::FollowerInfo { last_zxid: longer, accepted_epoch: 0 });
        assert_eq!(p.role(), Role::Looking, "yields to the longer history");
        let votes: Vec<(PeerId, PeerId, Zxid)> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Send { to, msg: ZabMsg::Notification { vote, .. } } => {
                    Some((*to, vote.candidate, vote.candidate_zxid))
                }
                _ => None,
            })
            .collect();
        assert_eq!(votes, [(f1, f1, longer), (f2, f1, longer)], "one vote each, for f1");
        p.on_message(f2, loyal(&p));
        assert_eq!(p.role(), Role::Looking, "re-elected over the longer history");
    }

    #[test]
    fn follower_acks_in_order_proposals_and_rejects_gaps() {
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), cfg);
        // Manually join a leader and sync an empty log.
        let leader = PeerId(2);
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: v, established: Some(leader) });
        assert_eq!(f.role(), Role::Following { leader, synced: false });
        f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 1,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::ZERO,
                reset: false,
                snap_chunks: 0,
            },
        );
        assert_eq!(f.role(), Role::Following { leader, synced: true });

        let acts = f.on_message(leader, ZabMsg::Propose { zxid: Zxid::new(1, 1), txns: vec![10] });
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::Ack { .. }, .. })));
        // A gap (skip 1:2, get 1:3) triggers a resync request.
        let acts = f.on_message(leader, ZabMsg::Propose { zxid: Zxid::new(1, 3), txns: vec![30] });
        assert!(acts
            .iter()
            .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })));
        assert_eq!(f.role(), Role::Following { leader, synced: false });
    }

    #[test]
    fn follower_delivers_on_commit_in_order() {
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), cfg);
        let leader = PeerId(2);
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: v, established: Some(leader) });
        f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 1,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::ZERO,
                reset: false,
                snap_chunks: 0,
            },
        );
        f.on_message(leader, ZabMsg::Propose { zxid: Zxid::new(1, 1), txns: vec![10] });
        f.on_message(leader, ZabMsg::Propose { zxid: Zxid::new(1, 2), txns: vec![20] });
        let acts = f.on_message(leader, ZabMsg::Commit { zxid: Zxid::new(1, 2) });
        let delivered: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![10, 20]);
    }

    #[test]
    fn watchdog_without_leader_contact_restarts_election() {
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), cfg);
        let leader = PeerId(2);
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: v, established: Some(leader) });
        f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 1,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::ZERO,
                reset: false,
                snap_chunks: 0,
            },
        );
        // Generations: join armed gen 1, sync armed gen 2. A stale fire
        // (the duplicate from the join) must be a no-op.
        assert!(f.on_timer(ZabTimer::FollowerWatchdog(1)).is_empty(), "stale gen ignored");
        // First live watchdog: we heard from the leader (the sync); rearm
        // as gen 3.
        let acts = f.on_timer(ZabTimer::FollowerWatchdog(2));
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::SetTimer { timer: ZabTimer::FollowerWatchdog(3), .. }
        )));
        // Second live watchdog with silence: election.
        let acts = f.on_timer(ZabTimer::FollowerWatchdog(3));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::StartedElection)));
        assert_eq!(f.role(), Role::Looking);
    }

    #[test]
    fn observer_joins_and_receives_informs() {
        let cfg = EnsembleConfig::with_observers(1, 1);
        // Peer 0 is the (single-voter) leader.
        let (mut leader, _) = ZabPeer::<u32>::new(PeerId(0), cfg.clone());
        assert!(leader.is_established_leader());
        let (mut obs, _) = ZabPeer::<u32>::new(PeerId(1), cfg);
        // Observer probes; leader replies with its establishment.
        let probe = Vote { candidate: PeerId(1), candidate_zxid: Zxid::ZERO, round: 1 };
        let reply =
            leader.on_message(PeerId(1), ZabMsg::Notification { vote: probe, established: None });
        let ZabAction::Send { msg: ZabMsg::Notification { vote, established }, .. } = &reply[0]
        else {
            panic!("expected a status reply, got {reply:?}");
        };
        // Observer joins and syncs.
        let acts = obs
            .on_message(PeerId(0), ZabMsg::Notification { vote: *vote, established: *established });
        assert!(acts
            .iter()
            .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })));
        let fi_reply = leader.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::ZERO, accepted_epoch: 0 },
        );
        let ZabAction::Send { msg: sync, .. } = &fi_reply[0] else { panic!() };
        obs.on_message(PeerId(0), sync.clone());
        assert_eq!(obs.role(), Role::Following { leader: PeerId(0), synced: true });
        leader.on_message(PeerId(1), ZabMsg::AckSync { epoch: leader.epoch() });

        // A proposal reaches the observer as a single INFORM.
        let acts = leader.propose(42).unwrap();
        let informs: Vec<_> = acts
            .iter()
            .filter(|a| matches!(a, ZabAction::Send { to: PeerId(1), msg: ZabMsg::Inform { .. } }))
            .collect();
        let proposes = acts
            .iter()
            .filter(|a| matches!(a, ZabAction::Send { msg: ZabMsg::Propose { .. }, .. }))
            .count();
        assert_eq!(informs.len(), 1, "exactly one INFORM per commit: {acts:?}");
        assert_eq!(proposes, 0, "observers get no propose/ack round");
        // And the observer applies it.
        let ZabAction::Send { msg, .. } = informs[0] else { unreachable!() };
        let acts = obs.on_message(PeerId(0), msg.clone());
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 42, .. })));
    }

    #[test]
    fn follower_restores_from_snapshot_sync() {
        use bytes::Bytes;
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), cfg);
        let leader = PeerId(2);
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: v, established: Some(leader) });
        let acts = f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 514,
                snapshot: Some((Zxid::new(514, 7), Bytes::from_static(b"state"))),
                entries: vec![(Zxid::new(514, 8), 42)],
                commit_to: Zxid::new(514, 8),
                reset: true,
                snap_chunks: 0,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::RestoreSnapshot { zxid, .. } if *zxid == Zxid::new(514, 7)
        )));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 42, .. })));
        assert_eq!(f.committed(), Zxid::new(514, 8));
        assert_eq!(f.snapshot_zxid(), Zxid::new(514, 7), "follower keeps the snapshot");
        // After a crash+restart the follower replays from its snapshot.
        f.on_crash();
        let acts = f.on_restart();
        assert!(acts.iter().any(|a| matches!(a, ZabAction::RestoreSnapshot { .. })));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 42, .. })));
    }

    #[test]
    fn follower_logs_batch_atomically_and_acks_last() {
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), cfg);
        let leader = PeerId(2);
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: v, established: Some(leader) });
        f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 1,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::ZERO,
                reset: false,
                snap_chunks: 0,
            },
        );

        let batch = ZabMsg::Propose { zxid: Zxid::new(1, 1), txns: vec![10, 20, 30] };
        let acts = f.on_message(leader, batch.clone());
        assert!(
            acts.iter().any(|a| matches!(
                a,
                ZabAction::Send { msg: ZabMsg::Ack { zxid }, .. } if *zxid == Zxid::new(1, 3)
            )),
            "one ack, for the batch's last zxid: {acts:?}"
        );
        assert_eq!(f.log_len(), 3);
        // A replayed duplicate of the whole batch is ignored.
        assert!(f.on_message(leader, batch).is_empty());
        // Commit of the batch tail delivers the range in order.
        let acts = f.on_message(leader, ZabMsg::Commit { zxid: Zxid::new(1, 3) });
        let delivered: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![10, 20, 30]);
        // A batch starting past our tail (missed 1:4) forces a resync.
        let acts =
            f.on_message(leader, ZabMsg::Propose { zxid: Zxid::new(1, 5), txns: vec![50, 60] });
        assert!(acts
            .iter()
            .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })));
        assert_eq!(f.role(), Role::Following { leader, synced: false });
    }

    #[test]
    fn observer_receives_one_batched_inform() {
        let cfg = EnsembleConfig::with_observers(1, 1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg.clone(), ZabConfig::batched(4, 2));
        let (mut obs, _) = ZabPeer::<u32>::new(PeerId(1), cfg);
        // Observer handshake (as in observer_joins_and_receives_informs).
        let probe = Vote { candidate: PeerId(1), candidate_zxid: Zxid::ZERO, round: 1 };
        let reply =
            l.on_message(PeerId(1), ZabMsg::Notification { vote: probe, established: None });
        let ZabAction::Send { msg: ZabMsg::Notification { vote, established }, .. } = &reply[0]
        else {
            panic!("expected a status reply");
        };
        obs.on_message(PeerId(0), ZabMsg::Notification { vote: *vote, established: *established });
        let fi_reply = l.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::ZERO, accepted_epoch: 0 },
        );
        let ZabAction::Send { msg: sync, .. } = &fi_reply[0] else { panic!() };
        obs.on_message(PeerId(0), sync.clone());
        l.on_message(PeerId(1), ZabMsg::AckSync { epoch: l.epoch() });

        // Three buffered txns flushed by timer: ONE INFORM with the range.
        l.propose(1).unwrap();
        l.propose(2).unwrap();
        l.propose(3).unwrap();
        let acts = l.on_timer(ZabTimer::BatchFlush(1));
        let informs: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Send { to: PeerId(1), msg: ZabMsg::Inform { zxid, txns } } => {
                    Some((*zxid, txns.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(informs.len(), 1, "one INFORM per commit round: {acts:?}");
        assert_eq!(informs[0].0, Zxid::new(256, 1));
        assert_eq!(informs[0].1, vec![1, 2, 3]);
        // The observer applies the whole range in order.
        let acts = l_inform_to(&mut obs, informs[0].clone());
        let delivered: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2, 3]);
        assert_eq!(obs.committed(), Zxid::new(256, 3));
    }

    fn l_inform_to(obs: &mut P, (zxid, txns): (Zxid, Vec<u32>)) -> Vec<ZabAction<u32>> {
        obs.on_message(PeerId(0), ZabMsg::Inform { zxid, txns })
    }

    #[test]
    fn inform_overlapping_sync_point_is_trimmed_not_resynced() {
        // An observer that synced while entries 1:1..1:2 were still
        // uncommitted on the leader later receives an INFORM range starting
        // back at 1:1. It must append only the unseen tail.
        let cfg = EnsembleConfig::with_observers(1, 1);
        let (mut obs, _) = ZabPeer::<u32>::new(PeerId(1), cfg);
        let leader = PeerId(0);
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        obs.on_message(leader, ZabMsg::Notification { vote: v, established: Some(leader) });
        obs.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 256,
                snapshot: None,
                entries: vec![(Zxid::new(256, 1), 10), (Zxid::new(256, 2), 20)],
                commit_to: Zxid::new(256, 2),
                reset: false,
                snap_chunks: 0,
            },
        );
        assert_eq!(obs.committed(), Zxid::new(256, 2));
        let acts = obs.on_message(
            leader,
            ZabMsg::Inform { zxid: Zxid::new(256, 1), txns: vec![10, 20, 30, 40] },
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })),
            "overlap is not a gap: {acts:?}"
        );
        let delivered: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![30, 40], "already-held prefix skipped");
        assert_eq!(obs.committed(), Zxid::new(256, 4));
        assert_eq!(obs.log_len(), 4);
    }
}
