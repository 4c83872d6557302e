//! Wire messages, timers, and output actions of the ZAB state machine,
//! and the layout of every message on the wire (declared once, with
//! [`dufs_net::wire!`]).

use bytes::Bytes;
use dufs_net::{wire, Codec, Nested, WireCursor, WireError};

use crate::config::PeerId;
use crate::zxid::Zxid;

/// A vote in leader election: "`candidate` should lead; its history reaches
/// `candidate_zxid`". Votes are compared by `(candidate_zxid, candidate)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Proposed leader.
    pub candidate: PeerId,
    /// The candidate's last logged zxid, as known by the voter.
    pub candidate_zxid: Zxid,
    /// Election round of the voter (latecomers fast-forward to the highest
    /// round they observe).
    pub round: u64,
}

impl Vote {
    /// Election preference order: higher history wins, peer id breaks ties.
    pub fn beats(&self, other: &Vote) -> bool {
        (self.candidate_zxid, self.candidate) > (other.candidate_zxid, other.candidate)
    }
}

/// Messages exchanged between peers. `T` is the replicated transaction type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZabMsg<T> {
    /// Election: the sender's current vote. `established` carries the
    /// sender's leader if it is already Following/Leading, letting a
    /// rejoining peer adopt an existing leader immediately.
    Notification {
        /// The sender's vote.
        vote: Vote,
        /// `Some(leader)` if the sender already follows an established
        /// leader (or is one).
        established: Option<PeerId>,
    },
    /// Follower → leader after election: "my log ends at `last_zxid`".
    FollowerInfo {
        /// The follower's last logged zxid.
        last_zxid: Zxid,
        /// The highest epoch the follower has promised. A leader whose
        /// regime epoch is lower cannot serve this follower and must step
        /// down so a fresh election mints a higher epoch.
        accepted_epoch: u32,
    },
    /// Leader → follower: log suffix after the follower's reported zxid.
    /// `reset` tells the follower to discard its state and replay from
    /// scratch (histories diverged). When the leader has compacted its log
    /// past the follower's position, `snapshot` carries the checkpointed
    /// state machine (an opaque blob the hosting layer encodes/decodes —
    /// ZooKeeper's SNAP sync).
    SyncLog {
        /// The leader's epoch.
        epoch: u32,
        /// State-machine snapshot to install first, with its zxid. `None`
        /// when the snapshot was streamed ahead of this message as
        /// [`ZabMsg::SnapChunk`] frames (see `snap_chunks`).
        snapshot: Option<(Zxid, Bytes)>,
        /// Entries to append after the snapshot/current position.
        entries: Vec<(Zxid, T)>,
        /// Everything up to here is committed.
        commit_to: Zxid,
        /// Whether the follower must discard its log and state first.
        reset: bool,
        /// Number of [`ZabMsg::SnapChunk`] frames that carried this sync's
        /// snapshot ahead of this message (0 = inline or no snapshot). A
        /// follower whose assembled chunk buffer doesn't match re-requests
        /// the sync instead of applying a partial state.
        snap_chunks: u32,
    },
    /// Leader → follower: one fixed-size chunk of a SNAP-sync snapshot too
    /// large for a single [`ZabMsg::SyncLog`] — streaming catch-up keeps a
    /// large transfer from occupying the link in one burst. Chunks arrive
    /// in `seq` order (0-based). Every chunk carries the CRC32 of the
    /// *complete* blob; the final chunk doubles as the digest frame — on
    /// its arrival the follower verifies the assembled blob against `crc`
    /// before the closing `SyncLog { snap_chunks > 0 }` consumes it.
    SnapChunk {
        /// The leader's epoch.
        epoch: u32,
        /// The snapshot's zxid watermark.
        zxid: Zxid,
        /// Chunk index, 0-based, strictly sequential.
        seq: u32,
        /// Total number of chunks in the transfer.
        total: u32,
        /// CRC32 of the complete assembled blob.
        crc: u32,
        /// This chunk's bytes.
        data: Bytes,
    },
    /// Follower → leader: sync applied, ready for broadcast. Carries the
    /// epoch being acknowledged so a stale ack from the leader's previous
    /// regime cannot leak followers into the new one.
    AckSync {
        /// The epoch whose sync is acknowledged.
        epoch: u32,
    },
    /// Leader → follower: replicate a **batch** of transactions sharing one
    /// contiguous zxid range and one quorum ACK/COMMIT round (group
    /// commit). `zxid` identifies the first transaction; entry `i` carries
    /// id `(zxid.epoch, zxid.counter + i)`. A batch of one is classic
    /// per-transaction ZAB.
    Propose {
        /// Id of the first transaction in the batch.
        zxid: Zxid,
        /// Payloads, in zxid order. Never empty.
        txns: Vec<T>,
    },
    /// Follower → leader: batch logged. Acknowledges the batch's *last*
    /// zxid — logging is atomic per batch, so one ack covers the range.
    Ack {
        /// Acknowledged transaction id (last of its batch).
        zxid: Zxid,
    },
    /// Leader → follower: deliver everything up to `zxid`.
    Commit {
        /// Commit watermark.
        zxid: Zxid,
    },
    /// Leader → observer: committed transactions (ZooKeeper's INFORM).
    /// Observers skip the propose/ack round entirely — one message per
    /// commit instead of three, keeping the leader's write-path cost flat
    /// as observers are added. Batched like [`ZabMsg::Propose`]: `zxid` is
    /// the first id of a contiguous committed range.
    Inform {
        /// Id of the first committed transaction in the batch.
        zxid: Zxid,
        /// The committed transactions, in zxid order. Never empty.
        txns: Vec<T>,
    },
    /// Leader heartbeat, carrying the leader's epoch (so a follower synced
    /// under an older regime of the same leader detects it must resync) and
    /// the commit watermark (so followers converge even when broadcast
    /// traffic goes quiet).
    Ping {
        /// The leader's current epoch.
        epoch: u32,
        /// The leader's committed zxid.
        commit_to: Zxid,
    },
    /// Follower heartbeat response.
    Pong,
}

wire! {
    [T: Codec<'a, Value = T>] ZabMsg<T> {
        1 => Notification { vote: Vote, established: Option<PeerId> },
        2 => FollowerInfo { last_zxid: Zxid, accepted_epoch: u32 },
        3 => SyncLog {
            epoch: u32,
            snapshot: Option<(Zxid, Data)>,
            entries: Vec<(Zxid, Nested<T>)>,
            commit_to: Zxid,
            reset: bool,
            snap_chunks: u32,
        },
        4 => SnapChunk { epoch: u32, zxid: Zxid, seq: u32, total: u32, crc: u32, data: Data },
        5 => AckSync { epoch: u32 },
        6 => Propose { zxid: Zxid, txns: Vec<Nested<T>> },
        7 => Ack { zxid: Zxid },
        8 => Commit { zxid: Zxid },
        9 => Inform { zxid: Zxid, txns: Vec<Nested<T>> },
        10 => Ping { epoch: u32, commit_to: Zxid },
        11 => Pong,
    }
}

wire! { Vote { candidate: PeerId, candidate_zxid: Zxid, round: u64 } }

wire! { PeerId { 0: u32 } }

/// A zxid on the wire: its epoch, then its counter.
impl<'a> Codec<'a> for Zxid {
    type Value = Zxid;
    const MIN: usize = 8;
    #[inline]
    fn put(z: &Zxid, buf: &mut Vec<u8>) {
        u32::put(&z.epoch(), buf);
        u32::put(&z.counter(), buf);
    }
    #[inline]
    fn get(c: &mut WireCursor<'a>) -> Result<Zxid, WireError> {
        Ok(Zxid::new(c.u32()?, c.u32()?))
    }
}

/// A [`Bytes`] payload on the wire: a `u32`-length-prefixed byte run,
/// copied out of the input on decode.
pub struct Data;

impl<'a> Codec<'a> for Data {
    type Value = Bytes;
    const MIN: usize = 4;
    #[inline]
    fn put(v: &Bytes, buf: &mut Vec<u8>) {
        <&[u8]>::put(&&v[..], buf);
    }
    #[inline]
    fn get(c: &mut WireCursor<'a>) -> Result<Bytes, WireError> {
        Ok(Bytes::copy_from_slice(c.blob()?))
    }
}

/// Timers the state machine asks its runtime to arm. All are periodic
/// rearm-on-fire (the state machine re-requests as needed).
///
/// Each carries a *generation*: the peer bumps it every time it arms that
/// timer kind, and ignores fires whose generation is stale. Without this, a
/// duplicate arm (e.g. a watchdog armed at join *and* at sync) produces two
/// interleaved timer chains whose fires alias each other's liveness flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZabTimer {
    /// While Looking: resend notifications / advance the round.
    Election(u64),
    /// While Leading: send pings and check follower liveness.
    LeaderPing(u64),
    /// While Following: expect leader traffic before this fires.
    FollowerWatchdog(u64),
    /// While Leading with group commit enabled: flush a partially filled
    /// proposal batch (the Nagle timer of [`crate::config::ZabConfig`]).
    /// One-shot, armed when a batch's first transaction is buffered.
    BatchFlush(u64),
}

/// A durable-log mutation the hosting runtime must persist. Emitted as
/// [`ZabAction::Persist`] *before* any dependent [`ZabAction::Send`] in the
/// same action batch: the host must make the event durable (append to its
/// write-ahead log and fsync) before transmitting those later sends,
/// because they acknowledge the logged state to other peers. The one
/// exception is a leader's [`ZabMsg::Propose`], which hands the entries on
/// rather than acknowledging them: it may leave before the fsync, provided
/// the host feeds the peer no input until the fsync is done (so no ack can
/// meet the leader's implicit vote before its copy is durable). A host
/// without durability (pure simulation) may ignore these events entirely —
/// the in-memory fields of the peer carry the same information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEvent<T> {
    /// Append these entries to the durable log, in order.
    Append {
        /// `(zxid, txn)` pairs, strictly ascending, contiguous with the
        /// durable tail.
        entries: Vec<(Zxid, T)>,
    },
    /// The accepted epoch advanced (a promise that must survive a crash —
    /// otherwise a restarted peer could ack a stale leader's traffic).
    Epoch(u32),
    /// The history was replaced wholesale (divergent-tail resync / SNAP
    /// sync): discard the durable log and snapshot, then store `snapshot`
    /// (if any) followed by `entries`, under `epoch`.
    Reset {
        /// The regime whose history this is.
        epoch: u32,
        /// Checkpointed state machine the new history starts from.
        snapshot: Option<(Zxid, Bytes)>,
        /// The complete replacement log suffix.
        entries: Vec<(Zxid, T)>,
    },
}

/// Outputs of the state machine; the hosting runtime executes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZabAction<T> {
    /// Send `msg` to `to`.
    Send {
        /// Destination peer.
        to: PeerId,
        /// Message.
        msg: ZabMsg<T>,
    },
    /// Arm `timer` to fire after `after_ms` (virtual) milliseconds.
    SetTimer {
        /// Which timer.
        timer: ZabTimer,
        /// Delay in milliseconds.
        after_ms: u64,
    },
    /// Apply a committed transaction to the replicated state machine.
    /// Emitted in strictly increasing zxid order.
    Deliver {
        /// The transaction's id.
        zxid: Zxid,
        /// The transaction.
        txn: T,
    },
    /// Discard the applied state machine (a full resync follows as
    /// `Deliver`s). Emitted before replaying a replacement history.
    ResetState,
    /// Replace the applied state machine with a checkpointed snapshot
    /// (decode with the hosting layer's codec), then continue with
    /// `Deliver`s.
    RestoreSnapshot {
        /// The snapshot's zxid watermark.
        zxid: Zxid,
        /// The opaque snapshot blob.
        blob: Bytes,
    },
    /// This peer has become the established leader for `epoch`.
    BecameLeader {
        /// The new epoch.
        epoch: u32,
    },
    /// This peer now follows `leader` in `epoch` (sync complete).
    BecameFollower {
        /// The leader.
        leader: PeerId,
        /// The epoch.
        epoch: u32,
    },
    /// The peer lost its leader/leadership and re-entered election.
    StartedElection,
    /// Make `0` durable before executing any later `Send` in this batch
    /// (see [`PersistEvent`] for the ordering contract).
    Persist(PersistEvent<T>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_ordering_prefers_history_then_id() {
        let a = Vote { candidate: PeerId(0), candidate_zxid: Zxid::new(1, 5), round: 0 };
        let b = Vote { candidate: PeerId(9), candidate_zxid: Zxid::new(1, 4), round: 0 };
        assert!(a.beats(&b), "longer history wins over higher id");
        let c = Vote { candidate: PeerId(1), candidate_zxid: Zxid::new(1, 5), round: 0 };
        assert!(c.beats(&a), "equal history: higher id wins");
        assert!(!a.beats(&a), "a vote does not beat itself");
    }
}
