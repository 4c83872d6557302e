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
//! Recovery scans segments in id order. A record that fails validation in
//! the **final** segment is a torn tail from a crash mid-write: it and
//! everything after it are discarded (after one re-read, to heal transient
//! short reads). The same failure in a **sealed** segment — which was fully
//! fsynced before the next segment was opened — is genuine corruption and
//! recovery refuses to proceed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::storage::LogStorage;
use crate::{crc32, WalError, WalResult};

const SEG_MAGIC: &[u8; 8] = b"DUFSWAL1";
const SNAP_MAGIC: &[u8; 8] = b"DUFSSNP1";
const SEG_HEADER: usize = 16;
/// Sanity cap on a single framed record (a torn length field must not make
/// recovery attempt a multi-gigabyte allocation).
const MAX_RECORD: usize = 64 << 20;

/// One logical log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A replicated transaction at `zxid` (payload is the coord-layer codec).
    Txn {
        /// Transaction id.
        zxid: u64,
        /// Opaque encoded transaction.
        payload: Bytes,
    },
    /// The peer accepted (promised) this leader epoch.
    Epoch(u32),
    /// The peer's history was replaced by a leader sync: everything before
    /// this record is void; state restarts from `snapshot_zxid` (0 = empty).
    Reset {
        /// Zxid of the snapshot the new history starts from.
        snapshot_zxid: u64,
    },
}

impl WalRecord {
    fn encode(&self) -> BytesMut {
        let mut p = BytesMut::with_capacity(32);
        match self {
            WalRecord::Txn { zxid, payload } => {
                p.put_u8(1);
                p.put_u64_le(*zxid);
                p.put_slice(payload);
            }
            WalRecord::Epoch(e) => {
                p.put_u8(2);
                p.put_u32_le(*e);
            }
            WalRecord::Reset { snapshot_zxid } => {
                p.put_u8(3);
                p.put_u64_le(*snapshot_zxid);
            }
        }
        p
    }

    fn decode(mut p: &[u8]) -> Option<WalRecord> {
        if p.is_empty() {
            return None;
        }
        match p.get_u8() {
            1 => {
                if p.remaining() < 8 {
                    return None;
                }
                let zxid = p.get_u64_le();
                Some(WalRecord::Txn { zxid, payload: Bytes::copy_from_slice(p) })
            }
            2 => {
                if p.remaining() != 4 {
                    return None;
                }
                Some(WalRecord::Epoch(p.get_u32_le()))
            }
            3 => {
                if p.remaining() != 8 {
                    return None;
                }
                Some(WalRecord::Reset { snapshot_zxid: p.get_u64_le() })
            }
            _ => None,
        }
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

struct SegScan {
    records: Vec<WalRecord>,
    /// Byte offset up to which the segment is well-formed.
    valid_len: usize,
    /// True if trailing bytes past `valid_len` failed validation.
    torn: bool,
}

/// Scan one segment. In the final (tail) segment a record that fails
/// validation is a torn write: the scan stops there and reports `torn`.
/// Anywhere else the same failure is genuine corruption → `Err`.
fn parse_segment(id: u64, data: &[u8], is_last: bool) -> WalResult<SegScan> {
    let corrupt = |what: &str| -> WalResult<SegScan> {
        if is_last {
            // The tail segment can legitimately die mid-header (created but
            // never synced) or mid-record; everything unparsable is torn.
            Ok(SegScan { records: Vec::new(), valid_len: 0, torn: true })
        } else {
            Err(WalError::Corrupt(format!("sealed segment {id}: {what}")))
        }
    };
    if data.len() < SEG_HEADER {
        return corrupt("short header");
    }
    if &data[..8] != SEG_MAGIC || (&data[8..16]).get_u64_le() != id {
        return corrupt("bad header");
    }
    let mut recs = Vec::new();
    let mut pos = SEG_HEADER;
    while pos < data.len() {
        let torn = |recs: Vec<WalRecord>, pos: usize, what: &str| -> WalResult<SegScan> {
            if is_last {
                Ok(SegScan { records: recs, valid_len: pos, torn: true })
            } else {
                Err(WalError::Corrupt(format!("sealed segment {id}: {what} at {pos}")))
            }
        };
        if data.len() - pos < 8 {
            return torn(recs, pos, "truncated frame");
        }
        let len = (&data[pos..]).get_u32_le() as usize;
        let crc = (&data[pos + 4..]).get_u32_le();
        if len == 0 || len > MAX_RECORD || data.len() - pos - 8 < len {
            return torn(recs, pos, "bad frame length");
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return torn(recs, pos, "crc mismatch");
        }
        match WalRecord::decode(payload) {
            Some(r) => recs.push(r),
            // CRC passed but the payload is malformed: a codec bug or
            // deliberate tampering, never a torn write — refuse everywhere.
            None => return Err(WalError::Corrupt(format!("segment {id}: bad record at {pos}"))),
        }
        pos += 8 + len;
    }
    Ok(SegScan { records: recs, valid_len: pos, torn: false })
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
            if let Some(blob) = decode_snapshot_frame(zxid, &raw) {
                rec.snapshots.push((zxid, blob));
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
            let scan = parse_segment(id, &data, is_last)?;
            if scan.torn {
                rec.torn_tail = true;
                if scan.valid_len < SEG_HEADER {
                    // Not even a durable header: the segment carries nothing.
                    self.storage.remove_segment(id)?;
                    continue;
                }
                // Erase the torn bytes so this segment is well-formed once it
                // stops being the tail.
                self.storage.truncate_segment(id, scan.valid_len as u64)?;
            }
            for r in scan.records {
                match r {
                    WalRecord::Txn { zxid, payload } => {
                        // A smaller-or-equal zxid after a larger one marks a
                        // history rewrite point: drop the stale suffix.
                        while rec.entries.last().is_some_and(|&(z, _)| z >= zxid) {
                            rec.entries.pop();
                        }
                        rec.entries.push((zxid, payload));
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
                }
            }
            // The old tail is never appended to again (its end may be torn);
            // it becomes sealed *logically* at its surviving prefix, which
            // recovery just validated.
            self.sealed.push((id, self.last_zxid));
        }
        self.epoch = rec.epoch;

        // Fresh tail segment strictly after everything that exists.
        self.open = max_id + 1;
        self.storage.create_segment(self.open)?;
        let mut hdr = BytesMut::with_capacity(SEG_HEADER);
        hdr.put_slice(SEG_MAGIC);
        hdr.put_u64_le(self.open);
        self.storage.append(self.open, &hdr)?;
        self.open_bytes = SEG_HEADER;
        self.dirty = true;
        Ok(rec)
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

    fn append_record(&mut self, r: &WalRecord) -> WalResult<()> {
        let payload = r.encode();
        let mut frame = BytesMut::with_capacity(8 + payload.len());
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(&payload));
        frame.put_slice(&payload);
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
        self.open += 1;
        self.storage.create_segment(self.open)?;
        let mut hdr = BytesMut::with_capacity(SEG_HEADER);
        hdr.put_slice(SEG_MAGIC);
        hdr.put_u64_le(self.open);
        self.storage.append(self.open, &hdr)?;
        self.open_bytes = SEG_HEADER;
        self.dirty = true;
        Ok(())
    }

    /// Append one transaction (buffered until [`Wal::sync`]).
    pub fn append_txn(&mut self, zxid: u64, payload: &[u8]) -> WalResult<()> {
        self.append_record(&WalRecord::Txn { zxid, payload: Bytes::copy_from_slice(payload) })
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
        self.open += 1;
        self.storage.create_segment(self.open)?;
        let mut hdr = BytesMut::with_capacity(SEG_HEADER);
        hdr.put_slice(SEG_MAGIC);
        hdr.put_u64_le(self.open);
        self.storage.append(self.open, &hdr)?;
        self.open_bytes = SEG_HEADER;
        self.dirty = true;
        self.last_zxid = snap_zxid;
        self.append_record(&WalRecord::Reset { snapshot_zxid: snap_zxid })?;
        if epoch > 0 {
            self.append_record(&WalRecord::Epoch(epoch))?;
        }
        for (zxid, payload) in entries {
            self.append_record(&WalRecord::Txn { zxid: *zxid, payload: payload.clone() })?;
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
        let mut head = BytesMut::with_capacity(24);
        head.put_slice(SNAP_MAGIC);
        head.put_u64_le(zxid);
        head.put_u32_le(blob.len() as u32);
        head.put_u32_le(crc32(blob));
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

fn decode_snapshot_frame(zxid: u64, raw: &[u8]) -> Option<Bytes> {
    if raw.len() < 24 || &raw[..8] != SNAP_MAGIC {
        return None;
    }
    let mut b = &raw[8..];
    if b.get_u64_le() != zxid {
        return None;
    }
    let len = b.get_u32_le() as usize;
    let crc = b.get_u32_le();
    if b.remaining() != len || crc32(b) != crc {
        return None;
    }
    Some(Bytes::copy_from_slice(b))
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

    /// Build the raw bytes of one well-formed segment holding `n` txns.
    fn raw_segment(id: u64, n: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(SEG_MAGIC);
        buf.put_u64_le(id);
        for z in 1..=n {
            let payload = WalRecord::Txn {
                zxid: z,
                payload: Bytes::copy_from_slice(format!("payload-{z}").as_bytes()),
            }
            .encode();
            buf.put_u32_le(payload.len() as u32);
            buf.put_u32_le(crc32(&payload));
            buf.put_slice(&payload);
        }
        buf.to_vec()
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
