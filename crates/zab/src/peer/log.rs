//! One peer's history: its snapshot, the log entries above it, and the
//! commit and delivery watermarks over them.

use bytes::Bytes;

use super::DurableState;
use crate::zxid::Zxid;

/// The history of one peer — [`DurableState`] plus the two volatile
/// watermarks: how far it is committed, and how far delivered to the state
/// machine.
///
/// Invariant: `entries` is strictly ascending by zxid, so a zxid's index is
/// found by binary search ([`Log::position`], [`Log::range`]) and nothing
/// outside this file indexes them; the first `applied` entries are
/// committed, and `committed` never passes [`Log::last_zxid`].
#[derive(Debug)]
pub(super) struct Log<T> {
    entries: Vec<(Zxid, T)>,
    committed: Zxid,
    /// Index of the next entry to deliver.
    applied: usize,
    /// Checkpointed state machine covering everything up to its zxid; the
    /// delivered entries it covers are compacted away.
    snapshot: Option<(Zxid, Bytes)>,
    accepted_epoch: u32,
}

impl<T: Clone> Log<T> {
    /// The recovered history: entries the snapshot covers are dropped and
    /// the commit watermark starts at the snapshot.
    pub(super) fn new(durable: DurableState<T>) -> Self {
        let DurableState { epoch, snapshot, log: mut entries } = durable;
        let committed = snapshot.as_ref().map_or(Zxid::ZERO, |(z, _)| *z);
        entries.retain(|(z, _)| *z > committed);
        Log { entries, committed, applied: 0, snapshot, accepted_epoch: epoch }
    }

    pub(super) fn epoch(&self) -> u32 {
        self.accepted_epoch
    }

    /// Promise `epoch` (the caller persists the promise).
    pub(super) fn promise(&mut self, epoch: u32) {
        self.accepted_epoch = epoch;
    }

    pub(super) fn committed(&self) -> Zxid {
        self.committed
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn snapshot(&self) -> Option<&(Zxid, Bytes)> {
        self.snapshot.as_ref()
    }

    pub(super) fn snapshot_zxid(&self) -> Zxid {
        self.snapshot.as_ref().map_or(Zxid::ZERO, |(z, _)| *z)
    }

    /// The last entry, or the snapshot once the log is fully compacted.
    pub(super) fn last_zxid(&self) -> Zxid {
        self.entries.last().map_or_else(|| self.snapshot_zxid(), |(z, _)| *z)
    }

    pub(super) fn position(&self, zxid: Zxid) -> Option<usize> {
        self.entries.binary_search_by_key(&zxid, |(z, _)| *z).ok()
    }

    /// The entries in `(after, upto]`.
    pub(super) fn range(&self, after: Zxid, upto: Zxid) -> &[(Zxid, T)] {
        let from = self.entries.partition_point(|(z, _)| *z <= after);
        let to = self.entries.partition_point(|(z, _)| *z <= upto).max(from);
        &self.entries[from..to]
    }

    /// Append `txns` as the batch starting at `first` if it continues the
    /// tail in the accepted epoch — within an epoch counters advance by
    /// one, and a newer epoch starts at counter 1 — and return the entries;
    /// `None` on a gap. Batches are appended whole, so the tail stays
    /// batch-aligned and a partially overlapping batch is a gap too.
    pub(super) fn append_contiguous(
        &mut self,
        first: Zxid,
        txns: Vec<T>,
    ) -> Option<Vec<(Zxid, T)>> {
        let tail = self.last_zxid();
        let continuous = if first.epoch() == tail.epoch() {
            tail == Zxid::ZERO || first.counter() == tail.counter() + 1
        } else {
            first.counter() == 1
        };
        if !continuous || first.epoch() != self.accepted_epoch {
            return None;
        }
        let appended: Vec<(Zxid, T)> =
            (first.counter()..).zip(txns).map(|(c, t)| (Zxid::new(first.epoch(), c), t)).collect();
        self.entries.extend(appended.iter().cloned());
        Some(appended)
    }

    /// Append and return the entries above the tail (a sync suffix may
    /// overlap what is held).
    pub(super) fn extend(&mut self, entries: Vec<(Zxid, T)>) -> Vec<(Zxid, T)> {
        let mut appended = Vec::new();
        for (z, t) in entries {
            if z > self.last_zxid() {
                self.entries.push((z, t.clone()));
                appended.push((z, t));
            }
        }
        appended
    }

    pub(super) fn commit_to(&mut self, zxid: Zxid) {
        self.committed = self.committed.max(zxid.min(self.last_zxid()));
    }

    /// The committed entries not yet delivered, now counted as delivered.
    pub(super) fn deliverable(&mut self) -> &[(Zxid, T)] {
        let from = self.applied;
        self.applied += self.entries[from..].partition_point(|(z, _)| *z <= self.committed);
        &self.entries[from..self.applied]
    }

    /// The state machine was lost: deliver again from the snapshot on.
    pub(super) fn rewind(&mut self) {
        self.applied = 0;
    }

    /// Checkpoint the state machine at `zxid` and drop the delivered
    /// entries it covers; an older checkpoint is ignored.
    ///
    /// # Panics
    /// Panics if `zxid` exceeds the commit watermark.
    pub(super) fn compact(&mut self, zxid: Zxid, blob: Bytes) {
        assert!(zxid <= self.committed, "cannot checkpoint past the commit watermark");
        if zxid <= self.snapshot_zxid() {
            return;
        }
        let dropped = self.entries.partition_point(|(z, _)| *z <= zxid).min(self.applied);
        self.entries.drain(..dropped);
        self.applied -= dropped;
        self.snapshot = Some((zxid, blob));
    }

    /// Replace the history by `snapshot` (committed, undelivered) and the
    /// `entries` above it; returns those entries.
    pub(super) fn replace(
        &mut self,
        snapshot: Option<(Zxid, Bytes)>,
        entries: Vec<(Zxid, T)>,
    ) -> Vec<(Zxid, T)> {
        self.entries.clear();
        self.applied = 0;
        self.committed = snapshot.as_ref().map_or(Zxid::ZERO, |(z, _)| *z);
        self.snapshot = snapshot;
        self.extend(entries)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{EnsembleConfig, PeerId, ZabAction, ZabMsg, ZabPeer};

    /// A naive model of the log: every query is a linear scan.
    struct Model {
        entries: Vec<(Zxid, u32)>,
        committed: Zxid,
        delivered: Zxid,
        snap: Zxid,
    }

    impl Model {
        fn last(&self) -> Zxid {
            self.entries.last().map_or(self.snap, |(z, _)| *z)
        }
    }

    fn check(log: &Log<u32>, m: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(log.len(), m.entries.len());
        prop_assert_eq!(log.last_zxid(), m.last());
        prop_assert_eq!(log.committed(), m.committed);
        prop_assert_eq!(log.snapshot_zxid(), m.snap);
        for (i, (z, _)) in m.entries.iter().enumerate() {
            prop_assert_eq!(log.position(*z), Some(i));
        }
        let middle = m.entries.get(m.entries.len() / 2).map_or(Zxid::ZERO, |(z, _)| *z);
        let probes = [Zxid::ZERO, m.snap, m.committed, middle, m.last(), m.last().next()];
        for &a in &probes {
            prop_assert_eq!(log.position(a), m.entries.iter().position(|(z, _)| *z == a));
            for &b in &probes {
                let want: Vec<_> =
                    m.entries.iter().filter(|(z, _)| *z > a && *z <= b).cloned().collect();
                prop_assert_eq!(log.range(a, b), &want[..]);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Index and zxid agree with a `Vec` model after any sequence of
        /// append / commit / deliver / compact / replace / rewind.
        #[test]
        fn index_and_zxid_agree_with_a_vec_model(
            ops in collection::vec((0u8..8, 0u32..6, any::<bool>()), 1..60),
        ) {
            let mut log = Log::new(DurableState::<u32>::default());
            log.promise(1);
            let mut m = Model { entries: vec![], committed: Zxid::ZERO, delivered: Zxid::ZERO, snap: Zxid::ZERO };
            let mut next = 0u32;
            for (op, k, flag) in ops {
                match op {
                    // Append a batch: at the next counter, in a fresh epoch,
                    // or (`k == 0`) past a gap, which must change nothing.
                    0 | 1 => {
                        if flag {
                            log.promise(log.epoch() + 1);
                        }
                        let tail = m.last();
                        let epoch = log.epoch();
                        let first = match (k, tail.epoch() == epoch) {
                            (0, true) => Zxid::new(epoch, tail.counter() + 2),
                            (0, false) => Zxid::new(epoch, 2),
                            (_, true) => tail.next(),
                            (_, false) => Zxid::first_of_epoch(epoch),
                        };
                        let txns: Vec<u32> = (0..k.max(1)).map(|i| next + i).collect();
                        next += k.max(1);
                        match log.append_contiguous(first, txns.clone()) {
                            Some(appended) => {
                                prop_assert!(k > 0, "a gap was appended");
                                let want: Vec<_> = (first.counter()..)
                                    .zip(txns)
                                    .map(|(c, t)| (Zxid::new(epoch, c), t))
                                    .collect();
                                prop_assert_eq!(&appended, &want);
                                m.entries.extend(want);
                            }
                            None => prop_assert!(k == 0, "a contiguous batch was refused"),
                        }
                    }
                    // Commit to the k-th entry from the tail (clamped to it).
                    2 => {
                        let at = m.entries.len().saturating_sub(k as usize + 1);
                        let z = m.entries.get(at).map_or(Zxid::ZERO, |(z, _)| *z);
                        let z = if flag { z.next() } else { z };
                        log.commit_to(z);
                        m.committed = m.committed.max(z.min(m.last()));
                    }
                    3 => {
                        let got = log.deliverable().to_vec();
                        let want: Vec<_> = m.entries.iter()
                            .filter(|(z, _)| *z > m.delivered && *z <= m.committed)
                            .cloned().collect();
                        prop_assert_eq!(&got, &want);
                        m.delivered = m.delivered.max(m.committed);
                    }
                    // Checkpoint at the delivered watermark (or an older one).
                    4 => {
                        let z = if flag { m.delivered } else { m.snap };
                        log.compact(z, Bytes::new());
                        if z > m.snap {
                            m.entries.retain(|(e, _)| *e > z);
                            m.snap = z;
                        }
                    }
                    // Replace the history by a snapshot at the k-th entry
                    // plus every entry above it (a SNAP sync).
                    5 => {
                        let snap = m.entries.get(k as usize).map_or(m.snap, |(z, _)| *z);
                        let held = m.entries.clone();
                        let kept = log.replace(Some((snap, Bytes::new())), held);
                        m.entries.retain(|(z, _)| *z > snap);
                        prop_assert_eq!(&kept, &m.entries);
                        m.snap = snap;
                        m.committed = snap;
                        m.delivered = snap;
                    }
                    // The state machine is lost: redeliver from the snapshot.
                    6 => {
                        log.rewind();
                        m.delivered = m.snap;
                    }
                    // Extend with a suffix that overlaps the tail.
                    _ => {
                        let tail = m.last();
                        let from = Zxid::new(tail.epoch(), tail.counter().saturating_sub(k));
                        let suffix: Vec<_> =
                            (0..3).map(|i| (Zxid::new(from.epoch(), from.counter() + i), next + i)).collect();
                        next += 3;
                        let got = log.extend(suffix.clone());
                        let want: Vec<_> = suffix.into_iter().filter(|(z, _)| *z > tail).collect();
                        prop_assert_eq!(&got, &want);
                        m.entries.extend(want);
                    }
                }
                check(&log, &m)?;
            }
        }
    }

    #[test]
    fn install_snapshot_is_bounded_by_commit() {
        let (mut l, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(1));
        l.propose(1).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.install_snapshot(Zxid::new(256, 9), Bytes::new())
        }));
        assert!(result.is_err(), "checkpointing past the commit watermark must panic");
    }

    #[test]
    fn compacted_leader_ships_snapshot_to_lagging_follower() {
        let (mut l, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(1));
        for i in 0..5 {
            l.propose(i).unwrap();
        }
        l.install_snapshot(Zxid::new(256, 3), Bytes::from_static(b"checkpoint"));
        assert_eq!(l.log_len(), 2, "entries 1-3 compacted away");
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
    fn leader_sends_suffix_sync_to_lagging_follower() {
        let (mut l, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(1));
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
}
