//! The ZAB peer state machine.
//!
//! A [`ZabPeer`] is a pure state machine: feed it messages and timer fires,
//! execute the [`ZabAction`]s it returns. It never touches a clock, a
//! socket, or a thread, which is what lets the same code run under the
//! discrete-event simulator, the threaded runtime, and the randomized
//! safety-test harnesses.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;

use crate::config::{EnsembleConfig, PeerId, ZabConfig};
use crate::msg::{PersistEvent, Vote, ZabAction, ZabMsg, ZabTimer};
use crate::zxid::Zxid;

/// Default election retry period (milliseconds, virtual).
pub const ELECTION_TIMEOUT_MS: u64 = 150;
/// Leader heartbeat period.
pub const LEADER_PING_MS: u64 = 100;
/// Follower silence tolerance before re-election.
pub const WATCHDOG_MS: u64 = 450;
/// Consecutive heartbeat windows without follower quorum before a leader
/// abdicates.
const MAX_QUORUM_MISS_WINDOWS: u32 = 3;

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

#[derive(Debug)]
struct LeaderState<T> {
    epoch: u32,
    next_counter: u32,
    /// Ack sets per outstanding proposal (leader's own ack is implicit).
    acks: BTreeMap<Zxid, HashSet<PeerId>>,
    /// Followers that completed sync and receive broadcast traffic.
    synced: HashSet<PeerId>,
    /// Log position each follower was synced up to when its SyncLog was
    /// built; an AckSync only covers entries at or below this point.
    sync_points: HashMap<PeerId, Zxid>,
    /// Pongs received in the current heartbeat window.
    pongs: HashSet<PeerId>,
    quorum_miss_windows: u32,
    /// Submitted-but-unproposed transactions awaiting group commit. No
    /// zxids are minted until flush, so losing the buffer on leadership
    /// loss is safe: the transactions were never acknowledged to anyone.
    buffer: Vec<T>,
}

/// In-progress assembly of a chunk-streamed SNAP transfer on a syncing
/// follower (see [`ZabMsg::SnapChunk`]). Chunks must arrive strictly in
/// order with consistent metadata; any deviation discards the buffer and
/// re-requests the sync.
#[derive(Debug)]
struct PendingSnap {
    epoch: u32,
    zxid: Zxid,
    total: u32,
    /// CRC32 of the complete blob, checked once assembly finishes.
    crc: u32,
    next_seq: u32,
    data: Vec<u8>,
}

impl PendingSnap {
    fn complete(&self) -> bool {
        self.next_seq == self.total
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

    // -- durable state (survives crashes) --
    log: Vec<(Zxid, T)>,
    committed: Zxid,
    accepted_epoch: u32,
    /// Checkpointed state machine covering everything up to its zxid; log
    /// entries at or below it have been compacted away (ZooKeeper's
    /// snapshot + log-truncation).
    snapshot: Option<(Zxid, Bytes)>,

    // -- volatile state --
    role: Role,
    round: u64,
    my_vote: Vote,
    votes: HashMap<PeerId, Vote>,
    leader_state: Option<LeaderState<T>>,
    heard_from_leader: bool,
    /// Index into `log` of the next entry to deliver to the state machine.
    applied_idx: usize,
    /// A leader we stopped hearing from: ignore `established` hints naming
    /// it until a new regime forms, so stale hints from still-synced peers
    /// cannot pull us back to a dead leader forever. Expires after
    /// `distrust_ttl` election periods — if the named leader is actually
    /// alive and the rest of the ensemble follows it, rejoining is correct.
    distrusted: Option<PeerId>,
    distrust_ttl: u8,
    /// Highest epoch observed anywhere (follower reports, syncs); future
    /// candidacies mint above it so stale-promise followers can rejoin.
    max_seen_epoch: u32,
    /// Observers replicate and serve reads but never vote, ack, or lead.
    is_observer: bool,
    /// Follower-side assembly buffer for a chunked SNAP transfer
    /// ([`ZabMsg::SnapChunk`]), consumed by the closing `SyncLog`.
    pending_snap: Option<PendingSnap>,
    /// Timer generations (see [`ZabTimer`]): stale duplicate fires are
    /// ignored so only one live chain exists per timer kind.
    election_gen: u64,
    ping_gen: u64,
    watchdog_gen: u64,
    batch_gen: u64,
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
        assert!(config.is_member(id), "peer must be an ensemble member");
        assert!(zcfg.max_batch >= 1, "a batch holds at least one transaction");
        let is_observer = config.is_observer(id);
        let mut peer = ZabPeer {
            id,
            config,
            zcfg,
            log: Vec::new(),
            committed: Zxid::ZERO,
            accepted_epoch: 0,
            snapshot: None,
            role: Role::Looking,
            round: 0,
            my_vote: Vote { candidate: id, candidate_zxid: Zxid::ZERO, round: 0 },
            votes: HashMap::new(),
            leader_state: None,
            heard_from_leader: false,
            applied_idx: 0,
            distrusted: None,
            distrust_ttl: 0,
            max_seen_epoch: 0,
            is_observer,
            pending_snap: None,
            election_gen: 0,
            ping_gen: 0,
            watchdog_gen: 0,
            batch_gen: 0,
        };
        let mut out = Vec::new();
        peer.start_election(&mut out);
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
        assert!(config.is_member(id), "peer must be an ensemble member");
        assert!(zcfg.max_batch >= 1, "a batch holds at least one transaction");
        let is_observer = config.is_observer(id);
        let snap_zxid = durable.snapshot.as_ref().map(|(z, _)| *z).unwrap_or(Zxid::ZERO);
        let mut log = durable.log;
        log.retain(|(z, _)| *z > snap_zxid);
        let mut peer = ZabPeer {
            id,
            config,
            zcfg,
            log,
            committed: snap_zxid,
            accepted_epoch: durable.epoch,
            snapshot: durable.snapshot,
            role: Role::Looking,
            round: 0,
            my_vote: Vote { candidate: id, candidate_zxid: Zxid::ZERO, round: 0 },
            votes: HashMap::new(),
            leader_state: None,
            heard_from_leader: false,
            applied_idx: 0,
            distrusted: None,
            distrust_ttl: 0,
            max_seen_epoch: durable.epoch,
            is_observer,
            pending_snap: None,
            election_gen: 0,
            ping_gen: 0,
            watchdog_gen: 0,
            batch_gen: 0,
        };
        let mut out = Vec::new();
        match &peer.snapshot {
            Some((z, blob)) => {
                out.push(ZabAction::RestoreSnapshot { zxid: *z, blob: blob.clone() })
            }
            None => out.push(ZabAction::ResetState),
        }
        peer.deliver_pending(&mut out);
        peer.start_election(&mut out);
        (peer, out)
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

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
        matches!(self.role, Role::Leading { established: true })
    }
    /// Who this peer believes leads, if anyone (for request forwarding).
    pub fn leader_hint(&self) -> Option<PeerId> {
        match self.role {
            Role::Leading { .. } => Some(self.id),
            Role::Following { leader, .. } => Some(leader),
            Role::Looking => None,
        }
    }
    /// The leader this peer may vouch for to `asker`: itself when leading,
    /// its leader once synced. An unsynced follower has only guessed (it
    /// joined on a vote tally the candidate may have abandoned since), so it
    /// confirms the guess to the alleged leader alone — passing it to third
    /// parties as an established regime builds follower chains and cycles
    /// that only the watchdog drains.
    fn vouched_leader(&self, asker: PeerId) -> Option<PeerId> {
        match self.role {
            Role::Following { leader, synced: false } if leader != asker => None,
            _ => self.leader_hint(),
        }
    }
    /// Last zxid in the history: the log tail, or the snapshot watermark if
    /// the log has been fully compacted (ZERO before any transaction).
    pub fn last_zxid(&self) -> Zxid {
        self.log.last().map(|(z, _)| *z).unwrap_or_else(|| self.snapshot_zxid())
    }

    /// The zxid covered by the installed snapshot (ZERO if none).
    pub fn snapshot_zxid(&self) -> Zxid {
        self.snapshot.as_ref().map(|(z, _)| *z).unwrap_or(Zxid::ZERO)
    }

    /// Install a checkpoint of the applied state machine at `zxid` (must
    /// not exceed the commit watermark) and compact the log prefix it
    /// covers. Bounds log memory — the concern §VII's future work raises.
    ///
    /// # Panics
    /// Panics if `zxid` exceeds the commit watermark (checkpointing
    /// uncommitted state would be unsound).
    pub fn install_snapshot(&mut self, zxid: Zxid, blob: Bytes) {
        assert!(zxid <= self.committed, "cannot checkpoint past the commit watermark");
        if zxid <= self.snapshot_zxid() {
            return; // stale checkpoint
        }
        let keep_from = self.log.partition_point(|(z, _)| *z <= zxid);
        // Only applied entries may be dropped; applied_idx counts from the
        // log start, so everything below keep_from must have been applied.
        let dropped = keep_from.min(self.applied_idx);
        self.log.drain(..dropped);
        self.applied_idx -= dropped;
        self.snapshot = Some((zxid, blob));
    }

    /// Current log length after compaction (tests/diagnostics).
    pub fn compacted_log_len(&self) -> usize {
        self.log.len()
    }
    /// Commit watermark.
    pub fn committed(&self) -> Zxid {
        self.committed
    }
    /// Log length (committed + in-flight).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
    /// Epoch this peer last accepted.
    pub fn epoch(&self) -> u32 {
        self.accepted_epoch
    }
    /// Whether this peer is a non-voting observer.
    pub fn is_observer(&self) -> bool {
        self.is_observer
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Submit a transaction for replication. Only the established leader
    /// accepts; everyone else reports a forwarding hint.
    ///
    /// With group commit enabled (`max_batch > 1`), the transaction is
    /// buffered; the batch is proposed when full or when the flush timer
    /// fires. No zxid exists until then, so a buffered transaction lost to
    /// a crash was never promised to anyone. With the default batch-of-one
    /// the proposal goes out immediately, exactly as classic ZAB.
    pub fn propose(&mut self, txn: T) -> Result<Vec<ZabAction<T>>, NotLeader> {
        if !self.is_established_leader() {
            return Err(NotLeader { leader_hint: self.leader_hint() });
        }
        let mut out = Vec::new();
        let ls = self.leader_state.as_mut().expect("leading implies leader state");
        ls.buffer.push(txn);
        if ls.buffer.len() >= self.zcfg.max_batch {
            self.flush_batch(&mut out);
        } else if ls.buffer.len() == 1 {
            // First transaction of a fresh batch: arm the Nagle timer.
            self.batch_gen += 1;
            out.push(ZabAction::SetTimer {
                timer: ZabTimer::BatchFlush(self.batch_gen),
                after_ms: self.zcfg.flush_ms,
            });
        }
        Ok(out)
    }

    /// [`ZabPeer::propose`], but the batch — this transaction plus anything
    /// already buffered — is flushed immediately instead of waiting for the
    /// Nagle timer. Used for `sync` barriers, where group-commit latency
    /// would defeat the point of the barrier.
    pub fn propose_urgent(&mut self, txn: T) -> Result<Vec<ZabAction<T>>, NotLeader> {
        if !self.is_established_leader() {
            return Err(NotLeader { leader_hint: self.leader_hint() });
        }
        let mut out = Vec::new();
        let ls = self.leader_state.as_mut().expect("leading implies leader state");
        ls.buffer.push(txn);
        self.flush_batch(&mut out);
        Ok(out)
    }

    /// Propose the buffered batch: mint a contiguous zxid range, log every
    /// transaction atomically (so sync points always fall on batch
    /// boundaries), and run ONE quorum round for the whole range — the ack
    /// set is keyed by the batch's last zxid and a follower ack of that
    /// zxid covers the range.
    fn flush_batch(&mut self, out: &mut Vec<ZabAction<T>>) {
        self.batch_gen += 1; // invalidate any pending flush timer
        let Some(ls) = self.leader_state.as_mut() else { return };
        if ls.buffer.is_empty() {
            return;
        }
        let txns = std::mem::take(&mut ls.buffer);
        let first = Zxid::new(ls.epoch, ls.next_counter + 1);
        let mut minted = Vec::with_capacity(txns.len());
        for t in &txns {
            ls.next_counter += 1;
            minted.push((Zxid::new(ls.epoch, ls.next_counter), t.clone()));
        }
        self.log.extend(minted.iter().cloned());
        let last = Zxid::new(ls.epoch, ls.next_counter);
        ls.acks.insert(last, HashSet::new());
        // The leader's own (implicit) ack is only valid once the batch is
        // durable: persist before any Propose goes out or a commit forms.
        out.push(ZabAction::Persist(PersistEvent::Append { entries: minted }));
        let mut targets: Vec<PeerId> =
            ls.synced.iter().copied().filter(|&f| f != self.id).collect();
        targets.sort_unstable(); // deterministic send order
        for f in targets {
            if self.config.is_observer(f) {
                continue; // observers get one INFORM at commit time instead
            }
            out.push(ZabAction::Send {
                to: f,
                msg: ZabMsg::Propose { zxid: first, txns: txns.clone() },
            });
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
            ZabMsg::SyncLog { epoch, snapshot, entries, commit_to, reset, snap_chunks } => self
                .on_sync_log(
                    from,
                    epoch,
                    snapshot,
                    entries,
                    commit_to,
                    reset,
                    snap_chunks,
                    &mut out,
                ),
            ZabMsg::SnapChunk { epoch, zxid, seq, total, crc, data } => {
                self.on_snap_chunk(from, epoch, zxid, seq, total, crc, data, &mut out)
            }
            ZabMsg::AckSync { epoch } => self.on_ack_sync(from, epoch, &mut out),
            ZabMsg::Propose { zxid, txns } => self.on_propose(from, zxid, txns, &mut out),
            ZabMsg::Ack { zxid } => self.on_ack(from, zxid, &mut out),
            ZabMsg::Commit { zxid } => self.on_commit(from, zxid, &mut out),
            ZabMsg::Inform { zxid, txns } => self.on_inform(from, zxid, txns, &mut out),
            ZabMsg::Ping { epoch, commit_to } => {
                if let Role::Following { leader, synced } = self.role {
                    if leader != from && !synced && epoch >= self.accepted_epoch {
                        // Only a leader pings. We joined `leader` on a vote
                        // tally and never completed the handshake; an
                        // operating leader (of no regime older than one we
                        // accepted) beats that guess — typically the
                        // candidate moved on and follows `from` itself.
                        self.join_leader(from, &mut out);
                    } else if leader == from {
                        // Only a *synced* follower treats pings as proof of
                        // a live leadership: if sync never completes (e.g.
                        // the leader keeps yielding because our history is
                        // longer than its own), the watchdog must fire so a
                        // real election — where our history can win — runs.
                        if synced {
                            self.heard_from_leader = true;
                        }
                        out.push(ZabAction::Send { to: from, msg: ZabMsg::Pong });
                        if !synced || epoch != self.accepted_epoch {
                            // Either our FollowerInfo raced the leader's own
                            // election, or the leader started a new epoch
                            // since we last synced: re-run the handshake.
                            if epoch > self.accepted_epoch {
                                self.role = Role::Following { leader, synced: false };
                            }
                            out.push(ZabAction::Send {
                                to: from,
                                msg: ZabMsg::FollowerInfo {
                                    last_zxid: self.last_zxid(),
                                    accepted_epoch: self.accepted_epoch,
                                },
                            });
                        } else if commit_to > self.committed {
                            if commit_to <= self.last_zxid() {
                                // Piggybacked commit watermark: converge the
                                // tail even when broadcast traffic is quiet.
                                self.committed = commit_to;
                                self.deliver_pending(&mut out);
                            } else {
                                // The leader committed entries we never even
                                // logged (we synced in a race window and the
                                // proposals missed us): resync.
                                self.role = Role::Following { leader, synced: false };
                                out.push(ZabAction::Send {
                                    to: from,
                                    msg: ZabMsg::FollowerInfo {
                                        last_zxid: self.last_zxid(),
                                        accepted_epoch: self.accepted_epoch,
                                    },
                                });
                            }
                        }
                    }
                }
            }
            ZabMsg::Pong => {
                if let (Role::Leading { .. }, Some(ls)) = (self.role, self.leader_state.as_mut()) {
                    ls.pongs.insert(from);
                }
            }
        }
        out
    }

    /// Handle a timer fire.
    pub fn on_timer(&mut self, timer: ZabTimer) -> Vec<ZabAction<T>> {
        let mut out = Vec::new();
        match timer {
            ZabTimer::Election(gen) => {
                if gen == self.election_gen && self.role == Role::Looking {
                    // Distrust decays: after a few fruitless rounds, accept
                    // hints about the previously suspected leader again.
                    if self.distrusted.is_some() {
                        self.distrust_ttl = self.distrust_ttl.saturating_sub(1);
                        if self.distrust_ttl == 0 {
                            self.distrusted = None;
                        }
                    }
                    // Rebroadcast our vote and keep trying.
                    self.broadcast_vote(&mut out);
                    self.arm_election(&mut out);
                }
            }
            ZabTimer::LeaderPing(gen) => {
                if gen != self.ping_gen {
                    return out;
                }
                if let Role::Leading { .. } = self.role {
                    let quorum = self.config.quorum();
                    let config = &self.config;
                    let ls = self.leader_state.as_mut().expect("leader state");
                    let live = ls.pongs.iter().filter(|p| config.contains(**p)).count() + 1; // + self
                                                                                             // Both established and prospective leaders abdicate
                                                                                             // after sustained quorum loss — a prospective leader
                                                                                             // that never gathers followers must not squat forever.
                    if self.config.len() > 1 {
                        if live < quorum {
                            ls.quorum_miss_windows += 1;
                        } else {
                            ls.quorum_miss_windows = 0;
                        }
                        if ls.quorum_miss_windows >= MAX_QUORUM_MISS_WINDOWS {
                            // Lost contact with a quorum: abdicate so a
                            // majority partition can elect a live leader.
                            self.start_election(&mut out);
                            return out;
                        }
                    }
                    ls.pongs.clear();
                    let epoch = self.leader_state.as_ref().expect("leader state").epoch;
                    let commit_to = self.committed;
                    for p in self.config.all_others(self.id) {
                        out.push(ZabAction::Send { to: p, msg: ZabMsg::Ping { epoch, commit_to } });
                    }
                    self.arm_ping(&mut out);
                }
            }
            ZabTimer::FollowerWatchdog(gen) => {
                if gen != self.watchdog_gen {
                    return out;
                }
                if let Role::Following { leader, .. } = self.role {
                    if self.heard_from_leader {
                        self.heard_from_leader = false;
                        self.arm_watchdog(&mut out);
                    } else {
                        self.distrusted = Some(leader);
                        self.distrust_ttl = 4;
                        self.start_election(&mut out);
                    }
                }
            }
            ZabTimer::BatchFlush(gen) => {
                // One-shot Nagle flush; a stale generation means the batch
                // it was armed for already went out (filled up or an even
                // earlier fire flushed it).
                if gen == self.batch_gen && self.is_established_leader() {
                    self.flush_batch(&mut out);
                }
            }
        }
        out
    }

    /// The peer crashed: volatile state is lost; the log, commit watermark
    /// and accepted epoch survive (ZooKeeper checkpoints these to disk —
    /// paper §IV-I).
    pub fn on_crash(&mut self) {
        self.role = Role::Looking;
        self.votes.clear();
        self.leader_state = None;
        self.heard_from_leader = false;
        self.applied_idx = 0;
        self.distrusted = None;
    }

    /// The peer restarts after a crash: replay the committed prefix into the
    /// state machine, then rejoin the ensemble.
    pub fn on_restart(&mut self) -> Vec<ZabAction<T>> {
        let mut out = Vec::new();
        match &self.snapshot {
            Some((z, blob)) => {
                out.push(ZabAction::RestoreSnapshot { zxid: *z, blob: blob.clone() })
            }
            None => out.push(ZabAction::ResetState),
        }
        self.applied_idx = 0;
        self.deliver_pending(&mut out);
        self.start_election(&mut out);
        out
    }

    // ------------------------------------------------------------------
    // Election
    // ------------------------------------------------------------------

    fn arm_election(&mut self, out: &mut Vec<ZabAction<T>>) {
        self.election_gen += 1;
        out.push(ZabAction::SetTimer {
            timer: ZabTimer::Election(self.election_gen),
            after_ms: ELECTION_TIMEOUT_MS + self.id.0 as u64 * 7,
        });
    }

    fn arm_ping(&mut self, out: &mut Vec<ZabAction<T>>) {
        self.ping_gen += 1;
        out.push(ZabAction::SetTimer {
            timer: ZabTimer::LeaderPing(self.ping_gen),
            after_ms: LEADER_PING_MS,
        });
    }

    fn arm_watchdog(&mut self, out: &mut Vec<ZabAction<T>>) {
        self.watchdog_gen += 1;
        out.push(ZabAction::SetTimer {
            timer: ZabTimer::FollowerWatchdog(self.watchdog_gen),
            after_ms: WATCHDOG_MS,
        });
    }

    fn start_election(&mut self, out: &mut Vec<ZabAction<T>>) {
        self.role = Role::Looking;
        self.leader_state = None;
        self.heard_from_leader = false;
        self.pending_snap = None;
        self.round += 1;
        self.my_vote =
            Vote { candidate: self.id, candidate_zxid: self.last_zxid(), round: self.round };
        self.votes.clear();
        out.push(ZabAction::StartedElection);
        if self.is_observer {
            // Observers never vote or lead: probe the voters for the
            // established leader and retry until one answers.
            self.broadcast_vote(out);
            self.arm_election(out);
            return;
        }
        self.votes.insert(self.id, self.my_vote);
        if self.config.len() == 1 {
            self.become_leader(out);
            return;
        }
        self.broadcast_vote(out);
        self.arm_election(out);
    }

    fn broadcast_vote(&self, out: &mut Vec<ZabAction<T>>) {
        let established = self.leader_hint();
        for p in self.config.others(self.id) {
            out.push(ZabAction::Send {
                to: p,
                msg: ZabMsg::Notification { vote: self.my_vote, established },
            });
        }
    }

    fn on_notification(
        &mut self,
        from: PeerId,
        vote: Vote,
        established: Option<PeerId>,
        out: &mut Vec<ZabAction<T>>,
    ) {
        if !self.config.is_member(from) {
            return;
        }
        if self.config.is_observer(from) {
            // An observer probing for the leader: answer with our view (if
            // settled); its "vote" must never be tallied.
            if let Some(leader) = self.vouched_leader(from) {
                out.push(ZabAction::Send {
                    to: from,
                    msg: ZabMsg::Notification { vote: self.my_vote, established: Some(leader) },
                });
            }
            return;
        }
        match self.role {
            Role::Looking => {
                if let Some(leader) = established {
                    if leader == self.id {
                        // The sender already follows (or awaits) us: that is
                        // a vote for our own candidacy. Normalize its round
                        // so the tally below can count it.
                        self.votes.insert(
                            from,
                            Vote {
                                candidate: self.id,
                                candidate_zxid: vote.candidate_zxid,
                                round: self.round,
                            },
                        );
                        let support = self
                            .votes
                            .values()
                            .filter(|v| {
                                v.candidate == self.my_vote.candidate && v.round == self.round
                            })
                            .count();
                        if self.my_vote.candidate == self.id && self.config.is_quorum(support) {
                            self.become_leader(out);
                        }
                        return;
                    }
                    if self.distrusted == Some(leader) {
                        // We recently timed out on this "leader"; treat the
                        // hint as an ordinary (weak) vote instead of joining.
                        if vote.round == self.round {
                            self.votes.insert(from, vote);
                        }
                        return;
                    }
                    // The sender knows another operating leader: join it.
                    self.join_leader(leader, out);
                    return;
                }
                if vote.round > self.round {
                    // Fast-forward to the newer round, keeping the better
                    // candidate between ours and theirs.
                    self.round = vote.round;
                    self.votes.clear();
                    let mine = Vote {
                        candidate: self.id,
                        candidate_zxid: self.last_zxid(),
                        round: self.round,
                    };
                    self.my_vote = if vote.beats(&mine) { vote } else { mine };
                    self.my_vote.round = self.round;
                    self.votes.insert(self.id, self.my_vote);
                    self.broadcast_vote(out);
                } else if vote.round < self.round {
                    // Help the laggard catch up.
                    out.push(ZabAction::Send {
                        to: from,
                        msg: ZabMsg::Notification { vote: self.my_vote, established: None },
                    });
                    return;
                } else if vote.beats(&self.my_vote) {
                    self.my_vote = vote;
                    self.votes.insert(self.id, self.my_vote);
                    self.broadcast_vote(out);
                }
                self.votes.insert(from, vote);
                // Tally support for our current candidate.
                let support = self
                    .votes
                    .values()
                    .filter(|v| v.candidate == self.my_vote.candidate && v.round == self.round)
                    .count();
                if self.config.is_quorum(support) {
                    if self.my_vote.candidate == self.id {
                        self.become_leader(out);
                    } else {
                        self.join_leader(self.my_vote.candidate, out);
                    }
                }
            }
            Role::Following { .. } | Role::Leading { .. } => {
                // Tell the asker who leads — but only an actual asker
                // (`established: None`). A notification that itself asserts
                // an established leader is another settled peer's view, not
                // a question: answering it makes two settled peers echo
                // hints at each other forever (fatal when the views
                // disagree, e.g. a follower cycle with no live leader —
                // that state must drain via the follower watchdog and a
                // real election, not via hint ping-pong).
                if established.is_some() {
                    return;
                }
                // An unsynced follower stays silent towards third parties
                // (see `vouched_leader`): it has nothing confirmed to say,
                // and a bare vote from a settled peer would only bounce off
                // an asker in a later round.
                if let Some(leader) = self.vouched_leader(from) {
                    out.push(ZabAction::Send {
                        to: from,
                        msg: ZabMsg::Notification { vote: self.my_vote, established: Some(leader) },
                    });
                }
            }
        }
    }

    fn become_leader(&mut self, out: &mut Vec<ZabAction<T>>) {
        self.distrusted = None;
        // Epochs must be globally unique across leaders, or two successive
        // leaders that never saw each other's regime could mint *different*
        // transactions under *identical* zxids — which defeats divergence
        // detection during sync and forks the history. Real ZAB negotiates
        // the epoch through a quorum round; we get the same uniqueness by
        // composing a monotone counter with the leader id in the low bits
        // (so no two leaders can ever produce the same epoch), while
        // ordering still advances: any peer that saw epoch e only votes for
        // candidates whose history it cannot beat.
        let base = (self.accepted_epoch >> 8)
            .max(self.last_zxid().epoch() >> 8)
            .max(self.max_seen_epoch >> 8)
            + 1;
        assert!(self.id.0 < 256, "peer ids must fit the epoch low byte");
        let epoch = (base << 8) | self.id.0;
        self.accepted_epoch = epoch;
        // The epoch promise must survive a crash (a restarted leader must
        // never mint zxids under an epoch it already used).
        out.push(ZabAction::Persist(PersistEvent::Epoch(epoch)));
        self.role = Role::Leading { established: false };
        let mut synced = HashSet::new();
        synced.insert(self.id);
        self.leader_state = Some(LeaderState {
            epoch,
            next_counter: 0,
            acks: BTreeMap::new(),
            synced,
            sync_points: HashMap::new(),
            pongs: HashSet::new(),
            quorum_miss_windows: 0,
            buffer: Vec::new(),
        });
        if self.config.is_quorum(1) {
            self.establish(out);
        }
        if self.config.len() > 1 {
            self.arm_ping(out);
        }
    }

    fn establish(&mut self, out: &mut Vec<ZabAction<T>>) {
        let epoch = self.leader_state.as_ref().expect("leader state").epoch;
        self.role = Role::Leading { established: true };
        // The new leader's entire history becomes committed (ZAB: the
        // elected history is the authoritative one).
        self.committed = self.last_zxid();
        self.deliver_pending(out);
        out.push(ZabAction::BecameLeader { epoch });
    }

    fn join_leader(&mut self, leader: PeerId, out: &mut Vec<ZabAction<T>>) {
        self.distrusted = None;
        self.role = Role::Following { leader, synced: false };
        self.leader_state = None;
        self.heard_from_leader = true;
        self.my_vote = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: self.round };
        out.push(ZabAction::Send {
            to: leader,
            msg: ZabMsg::FollowerInfo {
                last_zxid: self.last_zxid(),
                accepted_epoch: self.accepted_epoch,
            },
        });
        self.arm_watchdog(out);
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    fn on_follower_info(
        &mut self,
        from: PeerId,
        f_last: Zxid,
        f_epoch: u32,
        out: &mut Vec<ZabAction<T>>,
    ) {
        if !matches!(self.role, Role::Leading { .. }) {
            return;
        }
        self.max_seen_epoch = self.max_seen_epoch.max(f_epoch);
        let epoch = self.leader_state.as_ref().expect("leader state").epoch;
        if f_epoch > epoch {
            // The follower promised a higher epoch (a failed candidacy
            // somewhere); it will reject everything we send. Step down and
            // re-elect — the next candidacy mints above `max_seen_epoch`,
            // letting the whole ensemble rejoin one regime.
            self.start_election(out);
            return;
        }
        if f_last > self.last_zxid() {
            // The follower's history is LONGER than ours: it may hold
            // committed transactions we lack (it can reach us through an
            // `established` hint without ever voting). Truncating it could
            // destroy a committed entry — instead our leadership is
            // illegitimate: yield and re-elect, where its longer history
            // wins the vote comparison.
            self.max_seen_epoch = self.max_seen_epoch.max(f_last.epoch());
            self.start_election(out);
            return;
        }
        let my_last = self.last_zxid();
        let snap_zxid = self.snapshot_zxid();
        // Decide between an incremental suffix, a snapshot + suffix, and a
        // full reset.
        #[allow(clippy::type_complexity)] // (reset?, snapshot?, suffix) — one decision, three parts
        let (reset, snapshot, entries): (bool, Option<(Zxid, Bytes)>, Vec<(Zxid, T)>) =
            if f_last == snap_zxid {
                // Exactly at the snapshot point (incl. both ZERO): suffix.
                (false, None, self.log.clone())
            } else if f_last < snap_zxid {
                // The prefix the follower needs was compacted away: ship the
                // snapshot plus the whole remaining log (SNAP sync).
                (true, self.snapshot.clone(), self.log.clone())
            } else if !self.log_contains(f_last) {
                // Divergent history (same or lower length — the longer case
                // was handled above by yielding): the follower's tail holds
                // uncommitted leftovers; replace it wholesale.
                (true, self.snapshot.clone(), self.log.clone())
            } else {
                let pos = self.log.iter().position(|(z, _)| *z == f_last).expect("checked");
                (false, None, self.log[pos + 1..].to_vec())
            };
        // Remember how far this follower will be once it applies the sync:
        // its eventual AckSync covers exactly this prefix, nothing later.
        if let Some(ls) = self.leader_state.as_mut() {
            ls.sync_points.insert(from, my_last);
        }
        // A snapshot blob above the chunking threshold is streamed ahead of
        // the SyncLog as fixed-size SnapChunk frames; the SyncLog then
        // carries `snap_chunks` instead of the inline blob, and the follower
        // refuses to apply it unless the full verified stream arrived.
        let mut snapshot = snapshot;
        let mut snap_chunks = 0u32;
        if let Some((snap_z, blob)) = &snapshot {
            let cap = self.zcfg.snap_chunk_bytes;
            if cap > 0 && blob.len() > cap {
                let total = blob.len().div_ceil(cap) as u32;
                let crc = dufs_net::crc32(blob);
                for (seq, part) in blob.chunks(cap).enumerate() {
                    out.push(ZabAction::Send {
                        to: from,
                        msg: ZabMsg::SnapChunk {
                            epoch,
                            zxid: *snap_z,
                            seq: seq as u32,
                            total,
                            crc,
                            data: Bytes::copy_from_slice(part),
                        },
                    });
                }
                snap_chunks = total;
                snapshot = None;
            }
        }
        out.push(ZabAction::Send {
            to: from,
            msg: ZabMsg::SyncLog {
                epoch,
                snapshot,
                entries,
                commit_to: self.committed,
                reset,
                snap_chunks,
            },
        });
    }

    fn log_contains(&self, zxid: Zxid) -> bool {
        self.log.binary_search_by_key(&zxid, |(z, _)| *z).is_ok()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_sync_log(
        &mut self,
        from: PeerId,
        epoch: u32,
        snapshot: Option<(Zxid, Bytes)>,
        entries: Vec<(Zxid, T)>,
        commit_to: Zxid,
        reset: bool,
        snap_chunks: u32,
        out: &mut Vec<ZabAction<T>>,
    ) {
        let Role::Following { leader, .. } = self.role else { return };
        if leader != from || epoch < self.accepted_epoch {
            return;
        }
        // A chunk-streamed snapshot: substitute the assembled (and already
        // CRC-verified) buffer for the missing inline blob. If the stream
        // never completed — chunks lost on a flapping link, or we joined it
        // mid-transfer — applying the SyncLog anyway would install a hole in
        // our history, so re-request the whole sync instead of acking.
        let snapshot = if snap_chunks > 0 {
            debug_assert!(snapshot.is_none(), "chunked sync carries no inline snapshot");
            match self.pending_snap.take() {
                Some(p) if p.epoch == epoch && p.total == snap_chunks && p.complete() => {
                    Some((p.zxid, Bytes::from(p.data)))
                }
                _ => {
                    self.request_resync(from, out);
                    return;
                }
            }
        } else {
            self.pending_snap = None; // any buffered stream is now stale
            snapshot
        };
        let epoch_advanced = epoch != self.accepted_epoch;
        self.accepted_epoch = epoch;
        self.max_seen_epoch = self.max_seen_epoch.max(epoch);
        self.heard_from_leader = true;
        if reset {
            self.log.clear();
            self.applied_idx = 0;
            match snapshot {
                Some((z, blob)) => {
                    self.committed = z;
                    self.snapshot = Some((z, blob.clone()));
                    out.push(ZabAction::RestoreSnapshot { zxid: z, blob });
                }
                None => {
                    self.committed = Zxid::ZERO;
                    self.snapshot = None;
                    out.push(ZabAction::ResetState);
                }
            }
        }
        let mut appended = Vec::new();
        for (z, t) in entries {
            if z > self.last_zxid() {
                self.log.push((z, t.clone()));
                appended.push((z, t));
            }
        }
        // Durability before the AckSync below: on reset the whole
        // replacement history is re-logged under the new regime; otherwise
        // the appended suffix (and the epoch promise, if it advanced).
        if reset {
            out.push(ZabAction::Persist(PersistEvent::Reset {
                epoch,
                snapshot: self.snapshot.clone(),
                entries: self.log.clone(),
            }));
        } else {
            if epoch_advanced {
                out.push(ZabAction::Persist(PersistEvent::Epoch(epoch)));
            }
            if !appended.is_empty() {
                out.push(ZabAction::Persist(PersistEvent::Append { entries: appended }));
            }
        }
        self.committed = self.committed.max(commit_to.min(self.last_zxid()));
        self.deliver_pending(out);
        self.role = Role::Following { leader, synced: true };
        out.push(ZabAction::Send { to: from, msg: ZabMsg::AckSync { epoch } });
        out.push(ZabAction::BecameFollower { leader, epoch });
        self.arm_watchdog(out);
    }

    /// Follower side of a chunked SNAP transfer: chunks must arrive in
    /// strict `seq` order with consistent metadata; the final chunk triggers
    /// the whole-blob CRC check (the "digest frame"). Any gap, mismatch, or
    /// digest failure discards the buffer and re-requests the sync — that
    /// is also how a follower that joined mid-stream (first chunk seen has
    /// `seq > 0`) recovers.
    #[allow(clippy::too_many_arguments)]
    fn on_snap_chunk(
        &mut self,
        from: PeerId,
        epoch: u32,
        zxid: Zxid,
        seq: u32,
        total: u32,
        crc: u32,
        data: Bytes,
        out: &mut Vec<ZabAction<T>>,
    ) {
        let Role::Following { leader, .. } = self.role else { return };
        if leader != from || epoch < self.accepted_epoch || total == 0 {
            return;
        }
        self.heard_from_leader = true;
        if seq == 0 {
            self.pending_snap =
                Some(PendingSnap { epoch, zxid, total, crc, next_seq: 0, data: Vec::new() });
        }
        let ok = match self.pending_snap.as_mut() {
            Some(p)
                if p.epoch == epoch
                    && p.zxid == zxid
                    && p.total == total
                    && p.crc == crc
                    && p.next_seq == seq =>
            {
                p.data.extend_from_slice(&data);
                p.next_seq += 1;
                // Final chunk doubles as the digest frame: verify the
                // assembled blob before the closing SyncLog trusts it.
                !p.complete() || dufs_net::crc32(&p.data) == crc
            }
            _ => false,
        };
        if !ok {
            self.pending_snap = None;
            self.request_resync(from, out);
        }
    }

    /// Drop back to unsynced and re-run the FollowerInfo handshake with the
    /// current leader (a sync transfer arrived damaged or incomplete).
    fn request_resync(&mut self, leader: PeerId, out: &mut Vec<ZabAction<T>>) {
        self.role = Role::Following { leader, synced: false };
        out.push(ZabAction::Send {
            to: leader,
            msg: ZabMsg::FollowerInfo {
                last_zxid: self.last_zxid(),
                accepted_epoch: self.accepted_epoch,
            },
        });
    }

    fn on_ack_sync(&mut self, from: PeerId, epoch: u32, out: &mut Vec<ZabAction<T>>) {
        let Role::Leading { established } = self.role else { return };
        let quorum = self.config.quorum();
        let ls = self.leader_state.as_mut().expect("leader state");
        if epoch != ls.epoch {
            // A leftover ack from one of our previous regimes: the follower
            // has not synced into *this* epoch and must not receive its
            // broadcast stream.
            return;
        }
        ls.synced.insert(from);
        if self.config.is_observer(from) {
            // Observers receive the broadcast stream but contribute nothing
            // to establishment or commit quorums.
            return;
        }
        // A freshly synced follower has implicitly acknowledged exactly the
        // prefix its SyncLog contained — proposals made after that snapshot
        // never reached it and MUST NOT be counted (counting them lets a
        // leader commit an entry that exists on no quorum).
        let sync_point = ls.sync_points.get(&from).copied().unwrap_or(Zxid::ZERO);
        for (zxid, ackers) in ls.acks.iter_mut() {
            if *zxid <= sync_point {
                ackers.insert(from);
            }
        }
        let synced_voters = ls.synced.iter().filter(|p| self.config.contains(**p)).count();
        if !established && synced_voters >= quorum {
            self.establish(out);
        }
        self.try_advance_commit(out);
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    fn on_propose(&mut self, from: PeerId, zxid: Zxid, txns: Vec<T>, out: &mut Vec<ZabAction<T>>) {
        let Role::Following { leader, synced } = self.role else { return };
        if leader != from || !synced || txns.is_empty() {
            return;
        }
        self.heard_from_leader = true;
        let expected = self.last_zxid();
        let last = Zxid::new(zxid.epoch(), zxid.counter() + txns.len() as u32 - 1);
        if last <= expected {
            return; // duplicate batch
        }
        // Continuity, checked on the batch's FIRST zxid: within an epoch,
        // counters must advance by one; the first proposal we see from a
        // newer epoch must be that epoch's counter 1 (anything else means
        // we missed its earlier entries). Batches are appended atomically,
        // so our tail is always batch-aligned and a partially overlapping
        // batch fails this check into the resync path.
        let continuous = if zxid.epoch() == expected.epoch() {
            expected == Zxid::ZERO || zxid.counter() == expected.counter() + 1
        } else {
            zxid.counter() == 1
        };
        if !continuous || zxid.epoch() != self.accepted_epoch {
            // Gap, or traffic from an epoch we never promised: resync.
            self.role = Role::Following { leader, synced: false };
            out.push(ZabAction::Send {
                to: leader,
                msg: ZabMsg::FollowerInfo {
                    last_zxid: expected,
                    accepted_epoch: self.accepted_epoch,
                },
            });
            return;
        }
        let appended: Vec<(Zxid, T)> = txns
            .into_iter()
            .enumerate()
            .map(|(i, t)| (Zxid::new(zxid.epoch(), zxid.counter() + i as u32), t))
            .collect();
        self.log.extend(appended.iter().cloned());
        // Persist-before-ack: the ack promises this batch survives a crash.
        out.push(ZabAction::Persist(PersistEvent::Append { entries: appended }));
        // One ack (of the batch's last zxid) covers the whole range.
        out.push(ZabAction::Send { to: from, msg: ZabMsg::Ack { zxid: last } });
    }

    fn on_ack(&mut self, from: PeerId, zxid: Zxid, out: &mut Vec<ZabAction<T>>) {
        if !matches!(self.role, Role::Leading { .. }) {
            return;
        }
        if self.config.is_observer(from) {
            return; // observers never contribute to commit quorums
        }
        let ls = self.leader_state.as_mut().expect("leader state");
        if let Some(ackers) = ls.acks.get_mut(&zxid) {
            ackers.insert(from);
        }
        self.try_advance_commit(out);
    }

    fn try_advance_commit(&mut self, out: &mut Vec<ZabAction<T>>) {
        if !self.is_established_leader() {
            return;
        }
        let quorum = self.config.quorum();
        let ls = self.leader_state.as_mut().expect("leader state");
        let mut new_commit = self.committed;
        while let Some((&zxid, ackers)) = ls.acks.first_key_value() {
            // +1: the leader's own (implicit) ack.
            if ackers.len() + 1 >= quorum {
                new_commit = zxid;
                ls.acks.pop_first();
            } else {
                break;
            }
        }
        if new_commit > self.committed {
            let old_commit = self.committed;
            self.committed = new_commit;
            let mut targets: Vec<PeerId> =
                ls.synced.iter().copied().filter(|&p| p != self.id).collect();
            targets.sort_unstable(); // deterministic send order
                                     // Newly committed entries, for observer INFORMs.
            let informed: Vec<(Zxid, T)> = self
                .log
                .iter()
                .filter(|(z, _)| *z > old_commit && *z <= new_commit)
                .cloned()
                .collect();
            // Newly committed entries are contiguous within the leader's
            // epoch (establishment committed everything earlier before any
            // observer synced), so one batched INFORM covers them all.
            let inform_first = informed.first().map(|(z, _)| *z);
            let inform_txns: Vec<T> = informed.into_iter().map(|(_, t)| t).collect();
            for p in targets {
                if self.config.is_observer(p) {
                    if let Some(first) = inform_first {
                        out.push(ZabAction::Send {
                            to: p,
                            msg: ZabMsg::Inform { zxid: first, txns: inform_txns.clone() },
                        });
                    }
                } else {
                    out.push(ZabAction::Send { to: p, msg: ZabMsg::Commit { zxid: new_commit } });
                }
            }
            self.deliver_pending(out);
        }
    }

    fn on_commit(&mut self, from: PeerId, zxid: Zxid, out: &mut Vec<ZabAction<T>>) {
        let Role::Following { leader, synced } = self.role else { return };
        if leader != from || !synced {
            return;
        }
        self.heard_from_leader = true;
        if zxid > self.last_zxid() {
            // Commit for an entry we never logged: our pipe lost something.
            self.role = Role::Following { leader, synced: false };
            out.push(ZabAction::Send {
                to: leader,
                msg: ZabMsg::FollowerInfo {
                    last_zxid: self.last_zxid(),
                    accepted_epoch: self.accepted_epoch,
                },
            });
            return;
        }
        if zxid > self.committed {
            self.committed = zxid;
            self.deliver_pending(out);
        }
    }

    /// Observer-side INFORM: append the committed batch and deliver it.
    /// Continuity rules mirror `on_propose`; a gap triggers resync. Unlike
    /// proposals, an INFORM range can reach back before our sync point
    /// (sync ships the leader's *log*, including then-uncommitted entries,
    /// while informs start after the old commit watermark), so the prefix
    /// we already hold is trimmed rather than treated as a gap.
    fn on_inform(
        &mut self,
        from: PeerId,
        zxid: Zxid,
        mut txns: Vec<T>,
        out: &mut Vec<ZabAction<T>>,
    ) {
        let Role::Following { leader, synced } = self.role else { return };
        if leader != from || !synced || !self.is_observer || txns.is_empty() {
            return;
        }
        self.heard_from_leader = true;
        let expected = self.last_zxid();
        let last = Zxid::new(zxid.epoch(), zxid.counter() + txns.len() as u32 - 1);
        if last <= expected {
            return; // everything already held: duplicate
        }
        let mut first = zxid;
        if zxid.epoch() == expected.epoch() && zxid <= expected {
            let skip = (expected.counter() - zxid.counter() + 1) as usize;
            txns.drain(..skip);
            first = Zxid::new(expected.epoch(), expected.counter() + 1);
        }
        let continuous = if first.epoch() == expected.epoch() {
            expected == Zxid::ZERO || first.counter() == expected.counter() + 1
        } else {
            first.counter() == 1
        };
        if !continuous || first.epoch() != self.accepted_epoch {
            self.role = Role::Following { leader, synced: false };
            out.push(ZabAction::Send {
                to: leader,
                msg: ZabMsg::FollowerInfo {
                    last_zxid: expected,
                    accepted_epoch: self.accepted_epoch,
                },
            });
            return;
        }
        let appended: Vec<(Zxid, T)> = txns
            .into_iter()
            .enumerate()
            .map(|(i, t)| (Zxid::new(first.epoch(), first.counter() + i as u32), t))
            .collect();
        self.log.extend(appended.iter().cloned());
        out.push(ZabAction::Persist(PersistEvent::Append { entries: appended }));
        self.committed = last;
        self.deliver_pending(out);
    }

    fn deliver_pending(&mut self, out: &mut Vec<ZabAction<T>>) {
        while self.applied_idx < self.log.len() {
            let (z, t) = &self.log[self.applied_idx];
            if *z > self.committed {
                break;
            }
            out.push(ZabAction::Deliver { zxid: *z, txn: t.clone() });
            self.applied_idx += 1;
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
    fn single_peer_commits_immediately() {
        let (mut p, _) = single();
        let acts = p.propose(42).unwrap();
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 42, .. })));
        assert_eq!(p.committed(), Zxid::new(256, 1));
        let acts = p.propose(43).unwrap();
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 43, .. })));
    }

    #[test]
    fn non_leader_rejects_proposals() {
        let (mut p, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(3));
        assert_eq!(p.propose(1).unwrap_err(), NotLeader { leader_hint: None });
    }

    #[test]
    fn startup_broadcasts_votes() {
        let (_, acts) = ZabPeer::<u32>::new(PeerId(1), EnsembleConfig::of_size(3));
        let sends = acts
            .iter()
            .filter(|a| matches!(a, ZabAction::Send { msg: ZabMsg::Notification { .. }, .. }))
            .count();
        assert_eq!(sends, 2, "one notification per other peer");
        assert!(acts.iter().any(|a| matches!(a, ZabAction::StartedElection)));
    }

    #[test]
    fn adopts_better_vote() {
        let (mut p, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(3));
        let better = Vote { candidate: PeerId(2), candidate_zxid: Zxid::new(1, 5), round: 1 };
        let acts =
            p.on_message(PeerId(2), ZabMsg::Notification { vote: better, established: None });
        // Re-broadcasts the adopted vote.
        let rebroadcast = acts.iter().any(|a| {
            matches!(a, ZabAction::Send { msg: ZabMsg::Notification { vote, .. }, .. }
                if vote.candidate == PeerId(2))
        });
        assert!(rebroadcast);
    }

    #[test]
    fn quorum_of_votes_elects_self() {
        // Peer 2 has the highest id; votes from 0 and 1 for candidate 2 give
        // it a quorum (2 of 3 + own vote).
        let (mut p, _) = ZabPeer::<u32>::new(PeerId(2), EnsembleConfig::of_size(3));
        let v = Vote { candidate: PeerId(2), candidate_zxid: Zxid::ZERO, round: 1 };
        let acts = p.on_message(PeerId(0), ZabMsg::Notification { vote: v, established: None });
        assert!(
            matches!(p.role(), Role::Leading { .. }),
            "role={:?} acts={}",
            p.role(),
            acts.len()
        );
    }

    #[test]
    fn established_peer_redirects_new_joiner() {
        let (mut leader, _) = single();
        // A notification arrives from a peer outside the ensemble: ignored.
        let v = Vote { candidate: PeerId(5), candidate_zxid: Zxid::ZERO, round: 1 };
        assert!(leader
            .on_message(PeerId(5), ZabMsg::Notification { vote: v, established: None })
            .is_empty());
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

    /// The start-up race that used to park a follower for two watchdog
    /// periods: 0 joins 1 on a tally of votes 1 has already abandoned for 2.
    /// 0 must not spread that guess (it once talked the rightful candidate
    /// into following 1 too — a cycle with no leader), and must leave it for
    /// a leader that proves itself with a ping.
    #[test]
    fn unsynced_follower_neither_vouches_for_its_guess_nor_clings_to_it() {
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(3));
        let for_1 = Vote { candidate: PeerId(1), candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: for_1, established: None });
        assert_eq!(f.role(), Role::Following { leader: PeerId(1), synced: false });

        // Candidate 2 asks: silence, not `established: Some(1)`.
        let for_2 = Vote { candidate: PeerId(2), candidate_zxid: Zxid::ZERO, round: 1 };
        let acts = f.on_message(PeerId(2), ZabMsg::Notification { vote: for_2, established: None });
        assert!(acts.is_empty(), "vouched for an unconfirmed leader: {acts:?}");
        // The alleged leader itself is told it has a follower waiting.
        let acts = f.on_message(PeerId(1), ZabMsg::Notification { vote: for_1, established: None });
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::Send {
                to: PeerId(1),
                msg: ZabMsg::Notification { established: Some(PeerId(1)), .. }
            }
        )));

        // 2 won and pings everyone: re-run the handshake with it.
        let acts = f.on_message(PeerId(2), ZabMsg::Ping { epoch: 258, commit_to: Zxid::ZERO });
        assert_eq!(f.role(), Role::Following { leader: PeerId(2), synced: false });
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::Send { to: PeerId(2), msg: ZabMsg::FollowerInfo { .. } }
        )));

        // Once synced, a stray ping from anyone else changes nothing.
        f.on_message(
            PeerId(2),
            ZabMsg::SyncLog {
                epoch: 258,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::ZERO,
                reset: false,
                snap_chunks: 0,
            },
        );
        assert_eq!(f.role(), Role::Following { leader: PeerId(2), synced: true });
        assert!(f
            .on_message(PeerId(1), ZabMsg::Ping { epoch: 257, commit_to: Zxid::ZERO })
            .is_empty());
        assert_eq!(f.role(), Role::Following { leader: PeerId(2), synced: true });
    }

    #[test]
    fn observer_never_votes_or_leads() {
        let cfg = EnsembleConfig::with_observers(1, 1);
        let (obs, acts) = ZabPeer::<u32>::new(PeerId(1), cfg.clone());
        assert!(obs.is_observer());
        assert_eq!(obs.role(), Role::Looking);
        assert!(
            !acts.iter().any(|a| matches!(a, ZabAction::BecameLeader { .. })),
            "observers never lead"
        );
        // A voter in a Looking state must not tally the observer's probe.
        let (mut voter, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::with_observers(3, 1));
        let probe = Vote { candidate: PeerId(3), candidate_zxid: Zxid::ZERO, round: 1 };
        let acts =
            voter.on_message(PeerId(3), ZabMsg::Notification { vote: probe, established: None });
        assert_eq!(voter.role(), Role::Looking, "a probe is not a vote");
        assert!(acts.is_empty(), "unsettled voters stay silent to observers");
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
    fn compacted_leader_ships_snapshot_to_lagging_follower() {
        use bytes::Bytes;
        let (mut l, _) = single();
        for i in 0..5 {
            l.propose(i).unwrap();
        }
        l.install_snapshot(Zxid::new(256, 3), Bytes::from_static(b"checkpoint"));
        assert_eq!(l.compacted_log_len(), 2, "entries 1-3 compacted away");
        assert_eq!(l.last_zxid(), Zxid::new(256, 5));
        // A from-scratch follower can no longer get a plain suffix.
        let acts = l.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::ZERO, accepted_epoch: 0 },
        );
        match &acts[0] {
            ZabAction::Send { msg: ZabMsg::SyncLog { snapshot, entries, reset, .. }, .. } => {
                assert!(reset);
                let (z, blob) = snapshot.as_ref().expect("snapshot shipped");
                assert_eq!(*z, Zxid::new(256, 3));
                assert_eq!(&blob[..], b"checkpoint");
                assert_eq!(entries.len(), 2, "plus the uncompacted tail");
            }
            other => panic!("expected snapshot SyncLog, got {other:?}"),
        }
        // A follower exactly at the snapshot point gets just the suffix.
        let acts = l.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::new(256, 3), accepted_epoch: 256 },
        );
        match &acts[0] {
            ZabAction::Send { msg: ZabMsg::SyncLog { snapshot, entries, reset, .. }, .. } => {
                assert!(!reset);
                assert!(snapshot.is_none());
                assert_eq!(entries.len(), 2);
            }
            other => panic!("expected suffix SyncLog, got {other:?}"),
        }
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

    /// A follower of `leader` that has adopted it via an established hint
    /// but not yet synced (for driving sync transfers by hand).
    fn adopted_follower(leader: PeerId) -> P {
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(1), EnsembleConfig::of_size(3));
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(2), ZabMsg::Notification { vote: v, established: Some(leader) });
        assert_eq!(f.role(), Role::Following { leader, synced: false });
        f
    }

    #[test]
    fn large_snapshot_streams_in_chunks_and_follower_assembles() {
        use bytes::Bytes;
        let zcfg = ZabConfig::default().with_snap_chunk_bytes(8);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), EnsembleConfig::of_size(1), zcfg);
        for i in 0..5 {
            l.propose(i).unwrap();
        }
        let blob: Vec<u8> = (0..20u8).collect(); // 20 bytes -> 3 chunks of <= 8
        l.install_snapshot(Zxid::new(256, 3), Bytes::from(blob.clone()));
        let acts = l.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::ZERO, accepted_epoch: 0 },
        );
        let msgs: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Send { to: PeerId(1), msg } => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(msgs.len(), 4, "3 chunks + closing SyncLog: {msgs:?}");
        for (i, m) in msgs[..3].iter().enumerate() {
            match m {
                ZabMsg::SnapChunk { seq, total, zxid, data, .. } => {
                    assert_eq!(*seq, i as u32);
                    assert_eq!(*total, 3);
                    assert_eq!(*zxid, Zxid::new(256, 3));
                    assert_eq!(data.len(), if i < 2 { 8 } else { 4 });
                }
                other => panic!("expected SnapChunk, got {other:?}"),
            }
        }
        match &msgs[3] {
            ZabMsg::SyncLog { snapshot, reset, snap_chunks, .. } => {
                assert!(snapshot.is_none(), "blob travelled as chunks, not inline");
                assert!(reset);
                assert_eq!(*snap_chunks, 3);
            }
            other => panic!("expected closing SyncLog, got {other:?}"),
        }

        // The follower assembles the stream and installs the full blob.
        let mut f = adopted_follower(PeerId(0));
        let mut all = Vec::new();
        for m in msgs {
            all.extend(f.on_message(PeerId(0), m));
        }
        assert!(all.iter().any(|a| matches!(
            a,
            ZabAction::RestoreSnapshot { zxid, blob: b }
                if *zxid == Zxid::new(256, 3) && b[..] == blob[..]
        )));
        assert!(all
            .iter()
            .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::AckSync { .. }, .. })));
        assert_eq!(f.role(), Role::Following { leader: PeerId(0), synced: true });
        assert_eq!(f.snapshot_zxid(), Zxid::new(256, 3));
    }

    #[test]
    fn follower_joining_mid_stream_rerequests_sync() {
        use bytes::Bytes;
        let leader = PeerId(0);
        let mut f = adopted_follower(leader);
        let crc = dufs_net::crc32(&[1, 2, 3, 4]);
        // First chunk seen is seq 1: the start of the stream was missed.
        let acts = f.on_message(
            leader,
            ZabMsg::SnapChunk {
                epoch: 256,
                zxid: Zxid::new(256, 2),
                seq: 1,
                total: 2,
                crc,
                data: Bytes::from_static(&[3, 4]),
            },
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })),
            "mid-stream join must re-request the sync: {acts:?}"
        );
        // The leader re-sends from the top; this time the stream completes.
        for (seq, part) in [&[1u8, 2][..], &[3, 4][..]].iter().enumerate() {
            let acts = f.on_message(
                leader,
                ZabMsg::SnapChunk {
                    epoch: 256,
                    zxid: Zxid::new(256, 2),
                    seq: seq as u32,
                    total: 2,
                    crc,
                    data: Bytes::copy_from_slice(part),
                },
            );
            assert!(acts.is_empty(), "clean chunks produce no actions: {acts:?}");
        }
        let acts = f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 256,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::new(256, 2),
                reset: true,
                snap_chunks: 2,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::RestoreSnapshot { blob, .. } if blob[..] == [1, 2, 3, 4]
        )));
        assert_eq!(f.role(), Role::Following { leader, synced: true });
    }

    #[test]
    fn corrupt_or_incomplete_chunk_stream_never_applies() {
        use bytes::Bytes;
        let leader = PeerId(0);
        let mut f = adopted_follower(leader);
        let crc = dufs_net::crc32(&[1, 2, 3, 4]);
        f.on_message(
            leader,
            ZabMsg::SnapChunk {
                epoch: 256,
                zxid: Zxid::new(256, 2),
                seq: 0,
                total: 2,
                crc,
                data: Bytes::from_static(&[1, 2]),
            },
        );
        // Final chunk carries damaged bytes: the digest check must reject
        // the assembled blob and re-request the sync.
        let acts = f.on_message(
            leader,
            ZabMsg::SnapChunk {
                epoch: 256,
                zxid: Zxid::new(256, 2),
                seq: 1,
                total: 2,
                crc,
                data: Bytes::from_static(&[3, 9]),
            },
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })),
            "digest mismatch must re-request: {acts:?}"
        );
        // The closing SyncLog finds no assembled snapshot: it must NOT be
        // applied as a plain reset (that would install a hole); instead the
        // follower stays unsynced and asks again.
        let acts = f.on_message(
            leader,
            ZabMsg::SyncLog {
                epoch: 256,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::new(256, 2),
                reset: true,
                snap_chunks: 2,
            },
        );
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ZabAction::ResetState | ZabAction::RestoreSnapshot { .. })));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::AckSync { .. }, .. })));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ZabAction::Send { msg: ZabMsg::FollowerInfo { .. }, .. })));
        assert_eq!(f.role(), Role::Following { leader, synced: false });
    }

    #[test]
    fn install_snapshot_is_bounded_by_commit() {
        let (mut l, _) = single();
        l.propose(1).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.install_snapshot(Zxid::new(256, 9), bytes::Bytes::new())
        }));
        assert!(result.is_err(), "checkpointing past the commit watermark must panic");
    }

    #[test]
    fn leader_sends_suffix_sync_to_lagging_follower() {
        let (mut l, _) = single();
        l.propose(1).unwrap();
        l.propose(2).unwrap();
        l.propose(3).unwrap();
        // Simulate an out-of-ensemble question — use a 3-peer leader instead.
        // Rebuild as 3-peer: craft state by hand is messy; instead verify the
        // sync decision logic via a 1-peer leader answering FollowerInfo.
        // (Membership checks are on notifications, not FollowerInfo.)
        let acts = l.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::new(256, 1), accepted_epoch: 256 },
        );
        match &acts[0] {
            ZabAction::Send { msg: ZabMsg::SyncLog { entries, reset, commit_to, .. }, .. } => {
                assert!(!reset);
                assert_eq!(entries.len(), 2, "only the missing suffix");
                assert_eq!(*commit_to, Zxid::new(256, 3));
            }
            other => panic!("expected SyncLog, got {other:?}"),
        }
        // A follower claiming a zxid we never issued gets a full reset.
        let acts = l.on_message(
            PeerId(1),
            ZabMsg::FollowerInfo { last_zxid: Zxid::new(9, 9), accepted_epoch: 9 },
        );
        match &acts[0] {
            ZabAction::Send { msg: ZabMsg::SyncLog { entries, reset, .. }, .. } => {
                assert!(reset);
                assert_eq!(entries.len(), 3, "the full authoritative history");
            }
            other => panic!("expected SyncLog, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Group commit
    // ------------------------------------------------------------------

    /// Attach a pseudo-follower to a single-voter leader so the broadcast
    /// traffic becomes visible (membership is only checked on votes; the
    /// quorum of one still commits without the extra peer's acks).
    fn attach_follower(l: &mut P, f: PeerId) {
        l.on_message(f, ZabMsg::FollowerInfo { last_zxid: l.last_zxid(), accepted_epoch: 0 });
        l.on_message(f, ZabMsg::AckSync { epoch: l.epoch() });
    }

    #[test]
    fn leader_coalesces_full_batch_into_one_propose() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(3, 5));
        attach_follower(&mut l, PeerId(1));

        // First txn arms the flush timer; nothing is proposed or minted.
        let acts = l.propose(1).unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::SetTimer { timer: ZabTimer::BatchFlush(_), after_ms: 5 }
        )));
        assert!(!acts.iter().any(|a| matches!(a, ZabAction::Send { .. })));
        assert_eq!(l.log_len(), 0, "no zxid exists before flush");
        // Second txn just buffers.
        assert!(l.propose(2).unwrap().is_empty());
        // Third fills the batch: ONE Propose carrying the whole range.
        let acts = l.propose(3).unwrap();
        let (first, txns) = acts
            .iter()
            .find_map(|a| match a {
                ZabAction::Send { msg: ZabMsg::Propose { zxid, txns }, .. } => {
                    Some((*zxid, txns.clone()))
                }
                _ => None,
            })
            .expect("batch proposed");
        assert_eq!(first, Zxid::new(256, 1));
        assert_eq!(txns, vec![1, 2, 3]);
        // Quorum of one: the whole batch commits and delivers in order.
        assert_eq!(l.committed(), Zxid::new(256, 3));
        let delivered: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2, 3]);
        // The now-stale flush timer fire is a no-op.
        assert!(l.on_timer(ZabTimer::BatchFlush(1)).is_empty());
    }

    #[test]
    fn flush_timer_proposes_partial_batch() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(8, 2));
        let acts = l.propose(7).unwrap();
        let armed_gen = acts
            .iter()
            .find_map(|a| match a {
                ZabAction::SetTimer { timer: ZabTimer::BatchFlush(g), .. } => Some(*g),
                _ => None,
            })
            .expect("flush timer armed");
        assert_eq!(l.committed(), Zxid::ZERO, "nothing minted while buffered");
        let acts = l.on_timer(ZabTimer::BatchFlush(armed_gen));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 7, .. })));
        assert_eq!(l.committed(), Zxid::new(256, 1));
        // Re-firing the consumed generation does nothing.
        assert!(l.on_timer(ZabTimer::BatchFlush(armed_gen)).is_empty());
    }

    #[test]
    fn urgent_propose_flushes_past_the_nagle_timer() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(8, 50));
        // A buffered transaction is waiting on the flush timer...
        let acts = l.propose(1).unwrap();
        assert!(!acts.iter().any(|a| matches!(a, ZabAction::Send { .. })));
        assert_eq!(l.committed(), Zxid::ZERO);
        // ...and an urgent proposal flushes it together with itself, now.
        let acts = l.propose_urgent(2).unwrap();
        let delivered: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2], "urgent flush carries the buffered prefix");
        assert_eq!(l.committed(), Zxid::new(256, 2));
        // A non-leader still reports the forwarding hint.
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(1), cfg);
        assert!(f.propose_urgent(9).is_err());
    }

    #[test]
    fn default_config_proposes_immediately_as_before() {
        let (mut l, _) = single();
        attach_follower(&mut l, PeerId(1));
        let acts = l.propose(42).unwrap();
        // Batch-of-one: no flush timer, an immediate single-entry Propose.
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ZabAction::SetTimer { timer: ZabTimer::BatchFlush(_), .. })));
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::Send { msg: ZabMsg::Propose { zxid, txns }, .. }
                if *zxid == Zxid::new(256, 1) && txns.len() == 1
        )));
        assert_eq!(l.committed(), Zxid::new(256, 1));
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

    #[test]
    fn buffered_txns_die_with_leadership_not_with_acked_state() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(8, 2));
        l.propose(1).unwrap();
        l.propose(2).unwrap();
        assert_eq!(l.log_len(), 0, "buffered txns have no zxids");
        l.on_crash();
        assert_eq!(l.log_len(), 0, "nothing durable was lost — nothing was promised");
        assert_eq!(l.committed(), Zxid::ZERO);
        let _ = l.on_restart();
        assert!(l.is_established_leader());
        // The old regime's flush timer (gen 1, armed by propose(1)) fires
        // into the new regime: nothing is buffered, nothing happens.
        let acts = l.on_timer(ZabTimer::BatchFlush(1));
        assert!(acts.is_empty(), "old regime's flush timer is dead");
        // The new regime starts minting from its own epoch, counter 1.
        let acts = l.propose(3).unwrap();
        let gen = acts
            .iter()
            .find_map(|a| match a {
                ZabAction::SetTimer { timer: ZabTimer::BatchFlush(g), .. } => Some(*g),
                _ => None,
            })
            .expect("fresh batch arms a flush timer");
        let acts = l.on_timer(ZabTimer::BatchFlush(gen));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 3, .. })));
        assert_eq!(l.committed(), Zxid::new(512, 1));
    }
}
