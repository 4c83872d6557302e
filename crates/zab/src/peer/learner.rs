//! The learner's side of sync: leader liveness for the watchdog, and the
//! chunked SNAP stream from the leader that cuts it to the one assembling it.

use bytes::Bytes;

use super::Actions;
use crate::config::PeerId;
use crate::msg::{ZabAction, ZabMsg};
use crate::zxid::Zxid;

/// In-progress assembly of a chunk-streamed SNAP transfer (see
/// [`ZabMsg::SnapChunk`]).
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

/// A follower's view of its sync with the leader.
///
/// Invariant: a chunked snapshot reaches a `SyncLog` only as the blob the
/// leader cut — every chunk once, in `seq` order, with consistent metadata,
/// and the assembled whole matching the stream's CRC. Any deviation drops
/// the buffer, and the caller re-requests the sync.
#[derive(Debug, Default)]
pub(super) struct LearnerSync {
    /// Follower-side assembly buffer for a chunked SNAP transfer, consumed
    /// by the closing `SyncLog`.
    pending_snap: Option<PendingSnap>,
    /// Leader traffic seen since the watchdog last looked.
    heard_from_leader: bool,
}

impl LearnerSync {
    /// The leader showed signs of life.
    pub(super) fn heard(&mut self) {
        self.heard_from_leader = true;
    }

    /// The watchdog looks: was the leader heard since it last did?
    pub(super) fn take_heard(&mut self) -> bool {
        std::mem::take(&mut self.heard_from_leader)
    }

    /// No leader any more: forget it and any stream it was sending.
    pub(super) fn reset(&mut self) {
        *self = LearnerSync::default();
    }

    /// Leader side: a snapshot blob above `cap` bytes (`cap > 0`) is
    /// streamed to `to` as fixed-size `SnapChunk` frames ahead of the
    /// `SyncLog`, which then carries the chunk count instead of the inline
    /// blob. Returns what the `SyncLog` carries: the inline snapshot and
    /// the chunk count.
    pub(super) fn stream<T>(
        to: PeerId,
        epoch: u32,
        snapshot: Option<(Zxid, Bytes)>,
        cap: usize,
        out: &mut Actions<T>,
    ) -> (Option<(Zxid, Bytes)>, u32) {
        let Some((zxid, blob)) = snapshot.as_ref().filter(|(_, b)| cap > 0 && b.len() > cap) else {
            return (snapshot, 0);
        };
        let total = blob.len().div_ceil(cap) as u32;
        let crc = dufs_net::crc32(blob);
        for (seq, part) in blob.chunks(cap).enumerate() {
            let data = Bytes::copy_from_slice(part);
            let msg = ZabMsg::SnapChunk { epoch, zxid: *zxid, seq: seq as u32, total, crc, data };
            out.push(ZabAction::Send { to, msg });
        }
        (None, total)
    }

    /// Follower side: take one `SnapChunk`. Chunks must arrive in strict
    /// `seq` order with consistent metadata; the final one doubles as the
    /// digest frame, checking the assembled blob against the CRC. A gap, a
    /// mismatch or a failed digest drops the buffer and returns false (the
    /// caller re-requests the sync) — which is also how a follower that
    /// joined mid-stream (first chunk seen has `seq > 0`) recovers.
    pub(super) fn on_chunk<T>(&mut self, chunk: ZabMsg<T>) -> bool {
        let ZabMsg::SnapChunk { epoch, zxid, seq, total, crc, data } = chunk else { return false };
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
                p.next_seq != total || dufs_net::crc32(&p.data) == crc
            }
            _ => false,
        };
        if !ok {
            self.pending_snap = None;
        }
        ok
    }

    /// The snapshot a closing `SyncLog` of `epoch` installs: the assembled
    /// stream if it announced `snap_chunks > 0`, else its `inline` blob (and
    /// any buffered stream is stale). `None` if the announced stream never
    /// completed — chunks lost on a flapping link, or we joined it
    /// mid-transfer: applying the `SyncLog` anyway would install a hole in
    /// our history.
    pub(super) fn closing_snapshot(
        &mut self,
        epoch: u32,
        snap_chunks: u32,
        inline: Option<(Zxid, Bytes)>,
    ) -> Option<Option<(Zxid, Bytes)>> {
        let pending = self.pending_snap.take();
        if snap_chunks == 0 {
            return Some(inline);
        }
        debug_assert!(inline.is_none(), "chunked sync carries no inline snapshot");
        match pending {
            Some(p) if p.epoch == epoch && p.total == snap_chunks && p.next_seq == p.total => {
                Some(Some((p.zxid, Bytes::from(p.data))))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{EnsembleConfig, Role, Vote, ZabConfig, ZabPeer};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A chunk stream that is shuffled, truncated or corrupted is never
        /// handed to a `SyncLog`; the intact stream always is, bit-exact.
        #[test]
        fn only_the_intact_stream_reaches_a_synclog(
            blob in collection::vec(any::<u8>(), 1..200),
            cap in 1usize..40,
            damage in 0u8..4,
            at in any::<usize>(),
            flip in 1u8..255,
        ) {
            let zxid = Zxid::new(7, 9);
            let mut out: Vec<ZabAction<u32>> = Vec::new();
            let (inline, total) = LearnerSync::stream(PeerId(1), 7, Some((zxid, Bytes::from(blob.clone()))), cap, &mut out);
            prop_assert_eq!(inline.is_some(), blob.len() <= cap);
            let mut chunks: Vec<ZabMsg<u32>> = out.into_iter().map(|a| match a {
                ZabAction::Send { msg: chunk @ ZabMsg::SnapChunk { .. }, .. } => chunk,
                other => panic!("not a chunk: {other:?}"),
            }).collect();
            let n = chunks.len();
            let intact = match damage {
                // Shuffle: swap two chunks.
                0 if n >= 2 => { let (i, j) = (at % n, (at / n + 1) % n); chunks.swap(i, j); i == j }
                // Truncate: drop one chunk.
                1 if n >= 1 => { chunks.remove(at % n); false }
                // Corrupt: flip bits of one byte.
                2 if n >= 1 => {
                    let ZabMsg::SnapChunk { data, .. } = &mut chunks[at % n] else { unreachable!() };
                    let mut bytes = data.to_vec();
                    let k = (at / n) % bytes.len();
                    bytes[k] ^= flip;
                    *data = Bytes::from(bytes);
                    false
                }
                _ => true,
            };
            let mut learner = LearnerSync::default();
            for chunk in chunks {
                learner.on_chunk(chunk);
            }
            match learner.closing_snapshot(7, total, inline.clone()) {
                Some(Some((z, got))) => {
                    prop_assert!(intact, "a damaged stream reached the SyncLog");
                    prop_assert_eq!(z, zxid);
                    prop_assert_eq!(&got[..], &blob[..]);
                }
                Some(None) => prop_assert!(false, "a snapshot sync installed no snapshot"),
                None => prop_assert!(!intact && total > 0, "the intact stream was refused"),
            }
        }
    }

    /// A follower of `leader` that has adopted it via an established hint
    /// but not yet synced (for driving sync transfers by hand).
    fn adopted_follower(leader: PeerId) -> ZabPeer<u32> {
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(1), EnsembleConfig::of_size(3));
        let v = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(2), ZabMsg::Notification { vote: v, established: Some(leader) });
        assert_eq!(f.role(), Role::Following { leader, synced: false });
        f
    }

    #[test]
    fn large_snapshot_streams_in_chunks_and_follower_assembles() {
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
        // taken as a plain reset (that would install a hole); instead the
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
}
