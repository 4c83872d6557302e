//! Segmented, CRC32-framed append-only log with snapshot checkpoints.
//!
//! ```text
//! segment file:  magic "DUFSWAL1" | segment_id u64
//!                record*                          (all little-endian)
//! record:        len u32 | crc32 u32 | payload[len]
//! payload:       tag u8 ...
//!                  1 Txn   { zxid u64, bytes }
//!                  2 Epoch { epoch u32 }
//!                  3 Reset { snapshot_zxid u64 }
//! snapshot file: magic "DUFSSNP1" | zxid u64 | len u32 | crc32 u32 | blob
//! ```
//!
//! Records and snapshots are the shared record frame and sealed file of
//! `dufs_net::record` (compiled here as `crate::record`), which builds
//! their heads and scans a segment's records. The payload is [`WalRecord`],
//! declared once with the transport's `wire!` (compiled here as
//! `crate::wire`): a txn is written from the caller's slice straight behind
//! the record's head, and read back as a view over the segment's bytes.
//!
//! Recovery scans segments in id order. A record that fails validation in
//! the **final** segment is a torn tail from a crash mid-write: it and
//! everything after it are discarded (after one re-read, to heal transient
//! short reads). The same failure in a **sealed** segment — which was fully
//! fsynced before the next segment was opened — is genuine corruption and
//! recovery refuses to proceed.

use bytes::Bytes;

use crate::record::{self, HEAD};
use crate::storage::LogStorage;
use crate::wire::Rest;
use crate::{wire, Codec, WalError, WalResult, WireCursor, WireError};

const SEG_MAGIC: &[u8; 8] = b"DUFSWAL1";
const SNAP_MAGIC: &[u8; 8] = b"DUFSSNP1";
const SEG_HEADER: usize = 16;

/// One logical log entry, borrowing its txn from the caller or, on
/// recovery, from the segment's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalRecord<'a> {
    /// A replicated transaction at `zxid` (payload is the coord-layer codec).
    Txn { zxid: u64, payload: &'a [u8] },
    /// The peer accepted (promised) this leader epoch.
    Epoch(u32),
    /// The peer's history was replaced by a leader sync: everything before
    /// this record is void; state restarts from `snapshot_zxid` (0 = empty).
    Reset { snapshot_zxid: u64 },
}

wire! {
    WalRecord<'a> {
        1 => Txn { zxid: u64, payload: Rest },
        2 => Epoch { 0: u32 },
        3 => Reset { snapshot_zxid: u64 },
    }
}

impl WalRecord<'_> {
    /// The record as a segment stores it: head, then payload, in one
    /// buffer sized for it.
    fn frame(&self) -> Vec<u8> {
        let txn = if let WalRecord::Txn { payload, .. } = self { payload.len() } else { 0 };
        let mut p = Vec::with_capacity(HEAD + 9 + txn);
        p.extend_from_slice(&[0; HEAD]);
        WalRecord::put(self, &mut p);
        let head = record::head(&[&p[HEAD..]]);
        p[..HEAD].copy_from_slice(&head);
        p
    }

    /// Decode one record's whole payload, rejecting trailing bytes.
    fn decode(p: &[u8]) -> Result<WalRecord<'_>, WireError> {
        let mut c = WireCursor::new(p);
        WalRecord::get(&mut c).and_then(|r| c.expect_end().map(|()| r))
    }
}

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the open one exceeds this many bytes.
    pub segment_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { segment_bytes: 1 << 20 }
    }
}

/// Everything a cold-starting server learns from the log directory.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Last accepted leader epoch found in the log.
    pub epoch: u32,
    /// Snapshot zxid named by the last `Reset` record (0 if none): the
    /// consumer must restore at least this snapshot before replaying.
    pub reset_snapshot_zxid: u64,
    /// Surviving transactions after the last `Reset`, ascending zxid.
    pub entries: Vec<(u64, Bytes)>,
    /// Frame-valid checkpoints, newest first (the consumer tries each until
    /// one decodes).
    pub snapshots: Vec<(u64, Bytes)>,
    /// True if a torn final record was discarded during the scan.
    pub torn_tail: bool,
}

/// The header that opens segment `id`.
fn seg_header(id: u64) -> [u8; SEG_HEADER] {
    let mut hdr = [0u8; SEG_HEADER];
    hdr[..8].copy_from_slice(SEG_MAGIC);
    hdr[8..].copy_from_slice(&id.to_le_bytes());
    hdr
}

/// Scan one segment, handing each record to `sink`, and report where it is
/// torn, if it is. In the final (tail) segment a record that fails
/// validation is a torn write: the scan stops there and reports the length
/// of the well-formed prefix. Anywhere else the same failure is genuine
/// corruption → `Err`, and so is, in any segment, a record whose CRC passes
/// but whose payload does not decode (a codec bug or tampering, never a
/// torn write).
fn parse_segment(
    id: u64,
    data: &[u8],
    is_last: bool,
    mut sink: impl FnMut(WalRecord<'_>),
) -> WalResult<Option<usize>> {
    // The tail segment can legitimately die mid-header (created but never
    // synced): nothing of it is valid then.
    let valid_len = match data.strip_prefix(&seg_header(id)) {
        None => 0,
        Some(body) => {
            let valid = record::scan::<WalError>(body, body.len() as u64, |off, payload| {
                sink(WalRecord::decode(payload).map_err(|_| {
                    WalError::Corrupt(format!(
                        "segment {id}: bad record at {}",
                        SEG_HEADER as u64 + off
                    ))
                })?);
                Ok(())
            })?;
            SEG_HEADER + valid as usize
        }
    };
    if valid_len == data.len() && valid_len > 0 {
        Ok(None)
    } else if is_last {
        Ok(Some(valid_len))
    } else {
        Err(WalError::Corrupt(format!("sealed segment {id}: bad record at {valid_len}")))
    }
}

/// The write-ahead log: owns a [`LogStorage`] and layers record framing,
/// rotation, checkpoint truncation and recovery on top.
pub struct Wal {
    storage: Box<dyn LogStorage>,
    cfg: WalConfig,
    /// Id of the open (tail) segment.
    open: u64,
    open_bytes: usize,
    /// Highest txn zxid appended so far (across all segments).
    last_zxid: u64,
    /// Sealed segments: `(id, highest txn zxid at seal time)`.
    sealed: Vec<(u64, u64)>,
    /// Last epoch appended (re-logged after truncation so it survives).
    epoch: u32,
    dirty: bool,
    syncs: u64,
    appends: u64,
}

impl Wal {
    /// Open a log directory: scan whatever survived, then position a fresh
    /// tail segment for new appends. Returns the recovered state.
    pub fn open(storage: Box<dyn LogStorage>, cfg: WalConfig) -> WalResult<(Wal, Recovered)> {
        let mut wal = Wal {
            storage,
            cfg,
            open: 0,
            open_bytes: 0,
            last_zxid: 0,
            sealed: Vec::new(),
            epoch: 0,
            dirty: false,
            syncs: 0,
            appends: 0,
        };
        let rec = wal.reopen()?;
        Ok((wal, rec))
    }

    /// Re-scan storage after a crash (the storage backend has already
    /// dropped unsynced bytes) and position a fresh tail segment.
    pub fn reopen(&mut self) -> WalResult<Recovered> {
        // Bytes appended but never synced are not recoverable state, yet
        // some backends' reads still show them. Crash the storage first
        // (idempotent — callers that already crashed have nothing pending)
        // so the scan below can never count in-flight bytes as durable, and
        // so none of them linger to be smeared into a sealed segment later.
        self.storage.crash();
        self.dirty = false;
        let mut rec = Recovered::default();

        // Snapshots: keep every frame-valid one, newest first.
        let mut snaps = self.storage.list_snapshots()?;
        snaps.sort_unstable_by(|a, b| b.cmp(a));
        for zxid in snaps {
            let raw = self.storage.read_snapshot(zxid)?;
            if let Some(blob) = record::unseal(&snap_prefix(zxid), &raw) {
                rec.snapshots.push((zxid, Bytes::copy_from_slice(blob)));
            }
        }

        // Segments, in id order; only the final one may be torn.
        let ids = self.storage.list_segments()?;
        self.sealed.clear();
        self.last_zxid = 0;
        let mut max_id = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            let is_last = i + 1 == ids.len();
            max_id = id;
            let data = self.read_segment_stable(id)?;
            let torn_at = parse_segment(id, &data, is_last, |r| match r {
                WalRecord::Txn { zxid, payload } => {
                    // A smaller-or-equal zxid after a larger one marks a
                    // history rewrite point: drop the stale suffix.
                    while rec.entries.last().is_some_and(|&(z, _)| z >= zxid) {
                        rec.entries.pop();
                    }
                    rec.entries.push((zxid, Bytes::copy_from_slice(payload)));
                    self.last_zxid = zxid;
                }
                WalRecord::Epoch(e) => {
                    rec.epoch = rec.epoch.max(e);
                }
                WalRecord::Reset { snapshot_zxid } => {
                    rec.entries.clear();
                    rec.reset_snapshot_zxid = snapshot_zxid;
                    self.last_zxid = snapshot_zxid;
                }
            })?;
            if let Some(valid_len) = torn_at {
                rec.torn_tail = true;
                if valid_len < SEG_HEADER {
                    // Not even a durable header: the segment carries nothing.
                    self.storage.remove_segment(id)?;
                    continue;
                }
                // Erase the torn bytes so this segment is well-formed once it
                // stops being the tail.
                self.storage.truncate_segment(id, valid_len as u64)?;
            }
            // The old tail is never appended to again (its end may be torn);
            // it becomes sealed *logically* at its surviving prefix, which
            // recovery just validated.
            self.sealed.push((id, self.last_zxid));
        }
        self.epoch = rec.epoch;

        // Fresh tail segment strictly after everything that exists.
        self.open_segment(max_id + 1)?;
        Ok(rec)
    }

    /// Create segment `id`, write its header, and make it the tail.
    fn open_segment(&mut self, id: u64) -> WalResult<()> {
        self.open = id;
        self.storage.create_segment(id)?;
        self.storage.append(id, &seg_header(id))?;
        self.open_bytes = SEG_HEADER;
        self.dirty = true;
        Ok(())
    }

    /// Read a segment until two consecutive reads agree on length, keeping
    /// the longest buffer seen. A transient short read can stop at a record
    /// boundary and masquerade as a clean (shorter) segment, so parse
    /// failure alone cannot detect it — re-reading can.
    fn read_segment_stable(&mut self, id: u64) -> WalResult<Vec<u8>> {
        let mut best = self.storage.read_segment(id)?;
        for _ in 0..2 {
            let again = self.storage.read_segment(id)?;
            let stable = again.len() == best.len();
            if again.len() > best.len() {
                best = again;
            }
            if stable {
                break;
            }
        }
        Ok(best)
    }

    fn append_record(&mut self, r: &WalRecord<'_>) -> WalResult<()> {
        let frame = r.frame();
        if self.open_bytes + frame.len() > self.cfg.segment_bytes && self.open_bytes > SEG_HEADER {
            self.rotate()?;
        }
        self.storage.append(self.open, &frame)?;
        self.open_bytes += frame.len();
        self.dirty = true;
        self.appends += 1;
        if let WalRecord::Txn { zxid, .. } = r {
            self.last_zxid = *zxid;
        }
        if let WalRecord::Epoch(e) = r {
            self.epoch = (*e).max(self.epoch);
        }
        Ok(())
    }

    /// Seal the open segment (fsyncing it first — sealed segments are never
    /// torn) and start a new one.
    fn rotate(&mut self) -> WalResult<()> {
        self.sync()?;
        self.sealed.push((self.open, self.last_zxid));
        self.open_segment(self.open + 1)
    }

    /// Append one transaction (buffered until [`Wal::sync`]).
    pub fn append_txn(&mut self, zxid: u64, payload: &[u8]) -> WalResult<()> {
        self.append_record(&WalRecord::Txn { zxid, payload })
    }

    /// Record an accepted leader epoch (buffered until [`Wal::sync`]).
    pub fn append_epoch(&mut self, epoch: u32) -> WalResult<()> {
        self.append_record(&WalRecord::Epoch(epoch))
    }

    /// Group-commit point: make everything appended so far durable. One call
    /// per ZAB batch, not per transaction — this is where group fsync saves
    /// its `batch-1 × fsync` cost.
    pub fn sync(&mut self) -> WalResult<()> {
        if self.dirty {
            self.storage.sync(self.open)?;
            self.dirty = false;
            self.syncs += 1;
        }
        Ok(())
    }

    /// Replace history: durable snapshot (if any) + `entries` become the
    /// entire log. Used when a leader re-syncs this peer from scratch.
    pub fn reset(
        &mut self,
        snapshot: Option<(u64, &[u8])>,
        entries: &[(u64, Bytes)],
        epoch: u32,
    ) -> WalResult<()> {
        let snap_zxid = snapshot.map_or(0, |(z, _)| z);
        if let Some((zxid, blob)) = snapshot {
            self.write_snapshot_framed(zxid, blob)?;
        }
        // Make the outgoing tail segment well-formed before it is sealed —
        // sealed segments must never be torn (its content is void after the
        // Reset anyway).
        self.sync()?;
        let old: Vec<u64> = self.sealed.iter().map(|&(id, _)| id).collect();
        let old_open = self.open;
        self.sealed.clear();
        self.open_segment(old_open + 1)?;
        self.last_zxid = snap_zxid;
        self.append_record(&WalRecord::Reset { snapshot_zxid: snap_zxid })?;
        if epoch > 0 {
            self.append_record(&WalRecord::Epoch(epoch))?;
        }
        for (zxid, payload) in entries {
            self.append_record(&WalRecord::Txn { zxid: *zxid, payload })?;
        }
        self.sync()?;
        // New history is durable; old segments and stale snapshots can go.
        for id in old {
            self.storage.remove_segment(id)?;
        }
        self.storage.remove_segment(old_open)?;
        self.prune_snapshots(snap_zxid)?;
        Ok(())
    }

    /// Checkpoint: write the snapshot durably, then delete every sealed
    /// segment whose transactions it fully covers (log truncation).
    pub fn checkpoint(&mut self, zxid: u64, blob: &[u8]) -> WalResult<()> {
        self.write_snapshot_framed(zxid, blob)?;
        // Re-log the current epoch so it survives even if every old segment
        // is deleted below.
        if self.epoch > 0 {
            self.append_record(&WalRecord::Epoch(self.epoch))?;
            self.sync()?;
        }
        let (drop, keep): (Vec<_>, Vec<_>) =
            self.sealed.iter().copied().partition(|&(_, last)| last <= zxid);
        for (id, _) in drop {
            self.storage.remove_segment(id)?;
        }
        self.sealed = keep;
        self.prune_snapshots(zxid)?;
        Ok(())
    }

    fn write_snapshot_framed(&mut self, zxid: u64, blob: &[u8]) -> WalResult<()> {
        // The header goes to storage beside the blob, not joined to a copy
        // of it: a checkpoint's blob is as large as the whole tree.
        let head = record::seal(&snap_prefix(zxid), blob);
        self.storage.write_snapshot(zxid, &head, blob)?;
        Ok(())
    }

    /// Keep the newest snapshot at-or-below `upto` plus `upto` itself;
    /// delete anything older (belt-and-braces: one previous checkpoint is
    /// retained as a fallback).
    fn prune_snapshots(&mut self, upto: u64) -> WalResult<()> {
        let mut zxids = self.storage.list_snapshots()?;
        zxids.sort_unstable_by(|a, b| b.cmp(a));
        for &z in zxids.iter().skip(2) {
            if z < upto {
                self.storage.remove_snapshot(z)?;
            }
        }
        Ok(())
    }

    /// Simulation hook: the machine dies. Unsynced bytes are dropped (or
    /// mangled) by the storage backend; call [`Wal::reopen`] on restart.
    pub fn crash(&mut self) {
        self.storage.crash();
        self.dirty = false;
    }

    /// Number of fsyncs issued so far (drives the simulator's cost model).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Number of records appended so far.
    pub fn append_count(&self) -> u64 {
        self.appends
    }

    /// Live segment count (sealed + open).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Highest transaction zxid written.
    pub fn last_zxid(&self) -> u64 {
        self.last_zxid
    }

    /// Consume the log and hand back its storage (test observability).
    pub fn into_storage(self) -> Box<dyn LogStorage> {
        self.storage
    }
}

/// What a snapshot file starts with: the magic, then the zxid it covers.
fn snap_prefix(zxid: u64) -> [u8; 16] {
    let mut prefix = [0u8; 16];
    prefix[..8].copy_from_slice(SNAP_MAGIC);
    prefix[8..].copy_from_slice(&zxid.to_le_bytes());
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn mem_wal(segment_bytes: usize) -> Wal {
        let (wal, rec) =
            Wal::open(Box::new(MemStorage::new()), WalConfig { segment_bytes }).unwrap();
        assert!(rec.entries.is_empty());
        wal
    }

    fn reopen_in_place(wal: &mut Wal) -> Recovered {
        wal.reopen().unwrap()
    }

    #[test]
    fn synced_txns_survive_crash_and_reopen() {
        let mut wal = mem_wal(1 << 20);
        for z in 1..=10u64 {
            wal.append_txn(z, format!("txn-{z}").as_bytes()).unwrap();
        }
        wal.sync().unwrap();
        wal.append_txn(11, b"unsynced").unwrap();
        wal.crash();
        let rec = reopen_in_place(&mut wal);
        assert_eq!(rec.entries.len(), 10);
        assert_eq!(rec.entries[9].0, 10);
        assert_eq!(&rec.entries[4].1[..], b"txn-5");
        assert!(!rec.torn_tail, "unsynced bytes vanished cleanly in MemStorage");
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let mut wal = mem_wal(128);
        for z in 1..=50u64 {
            wal.append_txn(z, &[0u8; 16]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 3, "expected rotation, got {}", wal.segment_count());
        let rec = reopen_in_place(&mut wal);
        assert_eq!(rec.entries.len(), 50);
        assert_eq!(rec.entries.last().unwrap().0, 50);
    }

    #[test]
    fn checkpoint_truncates_covered_segments() {
        let mut wal = mem_wal(128);
        for z in 1..=60u64 {
            wal.append_txn(z, &[7u8; 16]).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.segment_count();
        wal.checkpoint(40, b"snapshot-covering-1-to-40").unwrap();
        assert!(wal.segment_count() < before, "checkpoint must drop covered segments");
        let rec = reopen_in_place(&mut wal);
        assert_eq!(rec.snapshots[0].0, 40);
        assert_eq!(&rec.snapshots[0].1[..], b"snapshot-covering-1-to-40");
        // Entries above the checkpoint survive in the remaining segments.
        assert!(rec.entries.iter().any(|&(z, _)| z == 60));
        // Replay = snapshot + entries after it.
        let past: Vec<u64> = rec.entries.iter().map(|&(z, _)| z).filter(|&z| z > 40).collect();
        assert_eq!(past, (41..=60).collect::<Vec<_>>());
    }

    #[test]
    fn epoch_survives_checkpoint_truncation() {
        let mut wal = mem_wal(64);
        wal.append_epoch(0x0300).unwrap();
        for z in 1..=30u64 {
            wal.append_txn(z, &[1u8; 24]).unwrap();
        }
        wal.sync().unwrap();
        wal.checkpoint(30, b"snap").unwrap();
        let rec = reopen_in_place(&mut wal);
        assert_eq!(rec.epoch, 0x0300);
    }

    #[test]
    fn reset_replaces_history() {
        let mut wal = mem_wal(1 << 20);
        for z in 1..=5u64 {
            wal.append_txn(z, b"old").unwrap();
        }
        wal.sync().unwrap();
        let entries: Vec<(u64, Bytes)> =
            (100..103).map(|z| (z, Bytes::from_static(b"new"))).collect();
        wal.reset(Some((99, b"snap-at-99")), &entries, 0x0201).unwrap();
        let rec = reopen_in_place(&mut wal);
        assert_eq!(rec.reset_snapshot_zxid, 99);
        assert_eq!(rec.snapshots[0].0, 99);
        assert_eq!(rec.entries.iter().map(|&(z, _)| z).collect::<Vec<_>>(), vec![100, 101, 102]);
        assert_eq!(rec.epoch, 0x0201);
    }

    #[test]
    fn conflicting_suffix_is_dropped_on_replay() {
        // A txn at zxid <= an earlier one marks a history rewrite.
        let mut wal = mem_wal(1 << 20);
        wal.append_txn(5, b"a").unwrap();
        wal.append_txn(6, b"b-stale").unwrap();
        wal.append_txn(7, b"c-stale").unwrap();
        wal.append_txn(6, b"b-final").unwrap();
        wal.append_txn(7, b"c-final").unwrap();
        wal.sync().unwrap();
        let rec = reopen_in_place(&mut wal);
        let got: Vec<(u64, &[u8])> = rec.entries.iter().map(|(z, p)| (*z, &p[..])).collect();
        assert_eq!(got, vec![(5, &b"a"[..]), (6, b"b-final"), (7, b"c-final")]);
    }

    /// One record of every kind, framed and read back; a kind added to
    /// [`WalRecord`] without an entry here fails the tag check.
    #[test]
    fn every_declared_tag_is_framed_and_read_back() {
        let records = [
            WalRecord::Txn { zxid: 7, payload: b"txn" },
            WalRecord::Epoch(2),
            WalRecord::Reset { snapshot_zxid: 5 },
        ];
        let mut tags = Vec::new();
        for r in records {
            let frame = r.frame();
            if let WalRecord::Txn { .. } = r {
                assert_eq!(frame.len(), frame.capacity(), "a txn's frame is sized for it");
            }
            assert!(frame.len() - HEAD >= <WalRecord<'_> as Codec<'_>>::MIN, "{r:?}");
            assert_eq!(WalRecord::decode(&frame[HEAD..]), Ok(r));
            let mut long = frame[HEAD..].to_vec();
            long.push(0);
            let decoded = WalRecord::decode(&long);
            assert!(decoded.is_err() || matches!(r, WalRecord::Txn { .. }), "{r:?}: trailing byte");
            assert!(WalRecord::decode(&frame[HEAD..HEAD + 4]).is_err(), "{r:?}: cut short");
            tags.push(frame[HEAD]);
        }
        assert_eq!(tags, <WalRecord<'_> as Codec<'_>>::TAGS);
    }

    /// Build the raw bytes of one well-formed segment holding `n` txns.
    fn raw_segment(id: u64, n: u64) -> Vec<u8> {
        let mut buf = seg_header(id).to_vec();
        for z in 1..=n {
            let payload = format!("payload-{z}");
            buf.extend_from_slice(&WalRecord::Txn { zxid: z, payload: payload.as_bytes() }.frame());
        }
        buf
    }

    #[test]
    fn torn_tail_in_final_segment_is_discarded() {
        let full = raw_segment(1, 3);
        // Chop at every possible point: the parse must yield a valid prefix
        // of the records, never an error and never a mangled record.
        for cut in SEG_HEADER..full.len() {
            let mut s = MemStorage::new();
            s.create_segment(1).unwrap();
            s.append(1, &full[..cut]).unwrap();
            s.sync(1).unwrap();
            let (_, rec) = Wal::open(Box::new(s), WalConfig::default()).unwrap();
            assert!(rec.entries.len() < 3, "cut {cut} cannot keep all records");
            for (i, (z, p)) in rec.entries.iter().enumerate() {
                assert_eq!(*z, i as u64 + 1);
                assert_eq!(&p[..], format!("payload-{z}").as_bytes(), "cut {cut}");
            }
        }
        // Untruncated parses completely.
        let mut s = MemStorage::new();
        s.create_segment(1).unwrap();
        s.append(1, &full).unwrap();
        s.sync(1).unwrap();
        let (_, rec) = Wal::open(Box::new(s), WalConfig::default()).unwrap();
        assert_eq!(rec.entries.len(), 3);
    }

    #[test]
    fn corruption_in_sealed_segment_is_a_hard_error() {
        let full = raw_segment(1, 3);
        let mut s = MemStorage::new();
        s.create_segment(1).unwrap();
        // Truncated mid-record…
        s.append(1, &full[..full.len() - 4]).unwrap();
        s.sync(1).unwrap();
        // …followed by another segment, making segment 1 *sealed*.
        s.create_segment(2).unwrap();
        let seg2 = raw_segment(2, 0);
        s.append(2, &seg2).unwrap();
        s.sync(2).unwrap();
        match Wal::open(Box::new(s), WalConfig::default()) {
            Err(WalError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|(_, r)| r)),
        }
    }
}
