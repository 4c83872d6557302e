//! What survives a crash: the write-ahead log, the checkpoints that bound
//! it, and the recovery that reads both back.

use bytes::Bytes;
use dufs_wal::{LogStorage, Recovered, Wal, WalConfig, WalError, WalResult};
use dufs_zab::{
    DurableState, EnsembleConfig, PeerId, PersistEvent, ZabAction, ZabConfig, ZabPeer, Zxid,
};
use dufs_zkstore::{snapshot, DataTree};

use super::sessions::minted_by;
use crate::txn::{Txn, TxnOp};

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
/// their reuse is harmless for tags — nothing is in flight after a restart
/// — and bounded for sessions by the checkpoint interval.)
fn watermarks(me: PeerId, log: &[(Zxid, Txn)]) -> (u64, u64) {
    let mut free_tag = 1u64;
    let mut free_session = 1u64;
    for (_, txn) in log {
        if txn.origin == me {
            free_tag = free_tag.max(txn.tag + 1);
        }
        if let TxnOp::CreateSession { session } = txn.op {
            if let Some(counter) = minted_by(me, session) {
                free_session = free_session.max(counter + 1);
            }
        }
    }
    (free_tag, free_session)
}

/// What [`Durability::recover`] hands back.
pub(super) type Recovery = (ZabPeer<Txn>, Vec<ZabAction<Txn>>, (u64, u64));

/// The write-ahead log and the checkpoint schedule.
///
/// Invariant: once a log write, fsync or checkpoint fails the durable
/// suffix is unknown, so the server is *fenced* — the log's unsynced bytes
/// are discarded on the spot and the router emits nothing — until
/// [`Durability::recover`] has re-read the history from storage. Nothing is
/// acknowledged off an un-durable promise.
pub(super) struct Durability {
    /// `None` runs the server purely in memory (the pre-WAL behaviour, used
    /// by the simulator's baseline figures).
    wal: Option<Wal>,
    fenced: bool,
    /// Something was written since the last [`Durability::sync`] that a
    /// crash may still take back.
    owed: bool,
    /// Transactions applied: perf accounting, and the checkpoint clock.
    applied_count: u64,
    /// `applied_count` at which the next checkpoint is due.
    next_checkpoint: u64,
}

impl Durability {
    /// No log yet: a volatile server stays this way, a durable one calls
    /// [`Durability::recover`] with its storage next.
    pub(super) fn new() -> Self {
        Durability {
            wal: None,
            fenced: false,
            owed: false,
            applied_count: 0,
            next_checkpoint: CHECKPOINT_EVERY,
        }
    }

    pub(super) fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    pub(super) fn fenced(&self) -> bool {
        self.fenced
    }

    pub(super) fn applied_count(&self) -> u64 {
        self.applied_count
    }

    /// Fence after a log failure: the server treats itself as crashed on
    /// the spot — including the log, whose buffered (never-synced) bytes
    /// must be discarded now. Leaving them in flight would let a *later*
    /// crash smear them into a segment that has since been sealed, turning
    /// a recoverable torn tail into permanent corruption.
    fn fence(&mut self) {
        self.fenced = true;
        self.crash();
    }

    /// Crash: the storage backend drops every unsynced byte, and with them
    /// the sync they owed.
    pub(super) fn crash(&mut self) {
        self.owed = false;
        if let Some(wal) = self.wal.as_mut() {
            wal.crash();
        }
    }

    /// Read the durable history back and rebuild the ZAB peer from it (with
    /// the actions that start it, and the first tag and session counter the
    /// history leaves free). The one sequence for a cold start (`fresh` is
    /// the storage to open, which a previous incarnation may have written)
    /// and for a restart (`None`: re-scan the log already held). The
    /// recovery truncation and the fresh tail segment are owed a sync,
    /// which the server takes before it emits anything. On failure the
    /// server stays fenced until the next attempt — serving would risk a
    /// forked history — and the half-opened log is crashed so its buffered
    /// tail-segment header cannot leak into a sealed segment later.
    pub(super) fn recover(
        &mut self,
        fresh: Option<Box<dyn LogStorage>>,
        me: PeerId,
        config: &EnsembleConfig,
        zab: ZabConfig,
    ) -> WalResult<Recovery> {
        self.fenced = false;
        let durable = (|| {
            let rec = match fresh {
                Some(storage) => {
                    let (wal, rec) = Wal::open(storage, WalConfig::default())?;
                    self.wal = Some(wal);
                    rec
                }
                None => self.wal.as_mut().expect("only a durable server restarts here").reopen()?,
            };
            self.owed = true;
            decode_recovered(&rec)
        })();
        match durable {
            Ok(durable) => {
                let marks = watermarks(me, &durable.log);
                let (peer, acts) = ZabPeer::recover(me, config.clone(), zab, durable);
                Ok((peer, acts, marks))
            }
            Err(e) => {
                self.fence();
                Err(e)
            }
        }
    }

    /// Mirror one ZAB durability event into the log, and note whether it
    /// owes a [`Durability::sync`]. Log failure ⇒ fence.
    pub(super) fn persist(&mut self, ev: PersistEvent<Txn>) {
        let Some(wal) = self.wal.as_mut() else { return };
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
            Ok(owed) => self.owed |= owed,
            Err(_) => self.fence(),
        }
    }

    /// The group fsync: one for everything persisted since the last one,
    /// none if nothing was. The only place the server asks the log to sync
    /// (the log syncs itself, too, where it rotates a segment, writes a
    /// checkpoint or resets); the server's durability point is its only
    /// caller. Failure ⇒ fence.
    pub(super) fn sync(&mut self) {
        if !std::mem::take(&mut self.owed) {
            return;
        }
        if self.wal.as_mut().is_some_and(|wal| wal.sync().is_err()) {
            self.fence();
        }
    }

    /// Count one applied transaction and, when the schedule says so, take
    /// a checkpoint of `tree` as of `zxid`: the blob is on disk (in durable
    /// mode, truncating the log it covers) before it is returned for the
    /// replication layer to drop the covered log prefix. A checkpoint that
    /// cannot be written fences and returns `None`.
    pub(super) fn checkpoint(&mut self, zxid: u64, tree: &DataTree) -> Option<Bytes> {
        self.applied_count += 1;
        if self.applied_count < self.next_checkpoint {
            return None;
        }
        self.next_checkpoint = self.applied_count + CHECKPOINT_EVERY.max(tree.node_count() as u64);
        let blob = snapshot::encode(tree);
        if self.wal.as_mut().is_some_and(|wal| wal.checkpoint(zxid, &blob).is_err()) {
            self.fence();
            return None;
        }
        Some(blob)
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use dufs_wal::{FaultConfig, FaultyStorage, MemStorage};
    use dufs_zkstore::{CreateMode, MultiOp};

    use super::super::tests::{client_resp, req, single};
    use super::super::{CoordMsg, CoordServer, CoordTimer, ServerIn, ServerOut};
    use super::*;
    use crate::api::{ZkRequest, ZkResponse};

    fn create(i: usize) -> ServerIn {
        let (path, data, mode) = (format!("/n{i}"), Bytes::new(), CreateMode::Persistent);
        let req = ZkRequest::Create { path, data, mode };
        ServerIn::Client { client: 1, req_id: i as u64, session: 0, req }
    }

    /// Once an fsync (or a checkpoint write) fails, the server says nothing
    /// — to any kind of input, nor from a restart that fails again — until
    /// a restart has read the history back; then it serves, and holds every
    /// write it had acknowledged.
    #[test]
    fn a_failed_log_write_silences_the_server_until_a_restart_recovers() {
        // Storage that fails three fsyncs (and snapshot writes) in ten and
        // is otherwise faithful: no torn tails, no flipped bits.
        let cfg = FaultConfig {
            p_sync_fail: 0.3,
            p_torn_tail: 0.0,
            p_bit_flip: 0.0,
            p_short_read: 0.0,
            p_snapshot_fail: 0.3,
        };
        let (mut fenced_runs, mut failed_restarts) = (0, 0);
        for seed in 0..40 {
            let storage = Box::new(FaultyStorage::new(MemStorage::new(), seed, cfg));
            let (me, ens) = (PeerId(0), EnsembleConfig::of_size(1));
            let Ok((mut s, _)) = CoordServer::new_durable(me, ens, ZabConfig::default(), storage)
            else {
                continue; // the very first fsync failed: nothing to fence yet
            };
            let mut acked = Vec::new();
            for i in 0..200 {
                let out = s.handle(1_000_000, create(i));
                if s.is_fenced() {
                    assert!(out.is_empty(), "seed {seed}: the fencing event leaked {out:?}");
                    break;
                }
                assert_eq!(*client_resp(&out), ZkResponse::Created { path: format!("/n{i}") });
                acked.push(i);
            }
            if !s.is_fenced() {
                continue;
            }
            fenced_runs += 1;
            let ping = ServerIn::Client { client: 1, req_id: 0, session: 0, req: ZkRequest::Ping };
            let peer = ServerIn::Peer { from: me, msg: CoordMsg::ForwardReject { tag: 1 } };
            let appended = s.wal_append_count();
            for input in [create(999), ping, peer, ServerIn::Timer(CoordTimer::SessionSweep)] {
                assert!(s.handle(2_000_000, input).is_empty(), "seed {seed}: fenced yet talking");
            }
            assert_eq!(s.wal_append_count(), appended, "seed {seed}: fenced yet logging");
            // Restart over storage that may fail again: silent until one
            // goes through.
            let mut up = Vec::new();
            for _ in 0..64 {
                up = s.on_restart(3_000_000);
                if !s.is_fenced() {
                    break;
                }
                assert!(up.is_empty(), "seed {seed}: a failed restart spoke: {up:?}");
                failed_restarts += 1;
            }
            assert!(!s.is_fenced() && !up.is_empty(), "seed {seed}: never came back");
            assert!(s.is_leader());
            for i in acked {
                assert!(s.tree().get_data(&format!("/n{i}")).is_ok(), "seed {seed}: lost /n{i}");
            }
            // Serving again (unless the storage fails under it once more).
            let out = s.handle(4_000_000, create(1_000));
            assert!(s.is_fenced() || matches!(client_resp(&out), ZkResponse::Created { .. }));
        }
        assert!(fenced_runs >= 10, "only {fenced_runs} of 40 seeds fenced");
        assert!(failed_restarts >= 3, "only {failed_restarts} restarts failed: nothing retried");
    }

    /// A pass of two events shares one durability point. When that sync
    /// fails, the replies both events hold must never leave: the server
    /// says so (`sync` is `false`), and stays silent until a restart.
    #[test]
    fn a_failed_sync_drops_the_whole_pass() {
        let cfg = FaultConfig {
            p_sync_fail: 0.2,
            p_torn_tail: 0.0,
            p_bit_flip: 0.0,
            p_short_read: 0.0,
            p_snapshot_fail: 0.0,
        };
        let replies = |out: &[ServerOut]| {
            out.iter().filter(|o| matches!(o, ServerOut::Client { .. })).count()
        };
        let mut failed_passes = 0;
        for seed in 0..20 {
            let storage = Box::new(FaultyStorage::new(MemStorage::new(), seed, cfg));
            let (me, ens) = (PeerId(0), EnsembleConfig::of_size(1));
            let Ok((mut s, _)) = CoordServer::new_durable(me, ens, ZabConfig::default(), storage)
            else {
                continue;
            };
            let mut acked = Vec::new();
            for pass in 0..50 {
                let (a, b) = (2 * pass, 2 * pass + 1);
                let held: Vec<ServerOut> = [a, b]
                    .into_iter()
                    .flat_map(|i| s.handle_unsynced(1_000_000, create(i)))
                    .collect();
                assert_eq!(replies(&held), 2, "seed {seed}: each event holds its reply");
                if s.sync() {
                    acked.extend([a, b]);
                    continue;
                }
                // The host drops `held`; nothing the server says from here
                // on may stand in for it.
                failed_passes += 1;
                assert!(s.is_fenced());
                let appended = s.wal_append_count();
                for input in [create(998), create(999), ServerIn::Timer(CoordTimer::SessionSweep)] {
                    assert!(s.handle_unsynced(2_000_000, input).is_empty(), "seed {seed}");
                    assert!(!s.sync(), "seed {seed}: a fenced server synced");
                }
                assert_eq!(s.wal_append_count(), appended, "seed {seed}: fenced yet logging");
                let mut up = Vec::new();
                for _ in 0..64 {
                    up = s.on_restart(3_000_000);
                    if !s.is_fenced() {
                        break;
                    }
                }
                assert!(!up.is_empty(), "seed {seed}: never came back");
                for i in &acked {
                    assert!(
                        s.tree().get_data(&format!("/n{i}")).is_ok(),
                        "seed {seed}: lost /n{i}"
                    );
                }
                break;
            }
        }
        assert!(failed_passes >= 5, "only {failed_passes} of 20 seeds failed a pass's sync");
    }

    /// A log failure partway through a pass fails the pass's durability
    /// point too. A checkpoint that cannot be written fences the server on
    /// one write of a pass of two; when that is the second, the first
    /// one's reply is held behind the sync it owes, whose bytes the failure
    /// just discarded, so the sync must say `false` and the reply drop.
    #[test]
    fn a_fence_partway_through_a_pass_fails_its_sync() {
        let cfg = FaultConfig {
            p_sync_fail: 0.0,
            p_torn_tail: 0.0,
            p_bit_flip: 0.0,
            p_short_read: 0.0,
            p_snapshot_fail: 1.0,
        };
        let mut fenced_second = 0;
        // A lead-in write moves the due checkpoint to the pass's other write.
        for lead_in in 0..2 {
            let storage = Box::new(FaultyStorage::new(MemStorage::new(), 7, cfg));
            let (me, ens) = (PeerId(0), EnsembleConfig::of_size(1));
            let (mut s, _) = CoordServer::new_durable(me, ens, ZabConfig::default(), storage)
                .expect("only snapshot writes fail");
            for i in 0..lead_in {
                assert!(matches!(
                    client_resp(&s.handle(0, create(10_000 + i))),
                    ZkResponse::Created { .. }
                ));
            }
            for pass in 0..CHECKPOINT_EVERY {
                let first = s.handle_unsynced(0, create(2 * pass as usize));
                let held_reply = !first.is_empty() && !s.is_fenced();
                let second = s.handle_unsynced(0, create(2 * pass as usize + 1));
                if !s.is_fenced() {
                    assert!(s.sync(), "lead-in {lead_in}: a faithful fsync failed");
                    continue;
                }
                assert!(second.is_empty(), "lead-in {lead_in}: the fencing event spoke");
                assert!(!s.sync(), "lead-in {lead_in}: the pass synced past its log's failure");
                fenced_second += usize::from(held_reply);
                break;
            }
            assert!(s.is_fenced(), "lead-in {lead_in}: no checkpoint came due");
        }
        assert_eq!(fenced_second, 1, "the fence never fell on a pass's second write");
    }

    #[test]
    fn checkpoint_compacts_log_and_restart_restores_from_snapshot() {
        let mut s = single();
        // Drive well past the checkpoint interval.
        let n = CHECKPOINT_EVERY + 500;
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
        let ops = (0..3 * CHECKPOINT_EVERY)
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
        assert_eq!(s.applied_count(), CHECKPOINT_EVERY);
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
}
