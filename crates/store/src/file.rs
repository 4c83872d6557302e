//! File-backed storage engine: one directory per storage target.
//!
//! ## On-disk layout
//!
//! Each target directory holds two files:
//!
//! * `extents.dat` — an append-only extent log. 8-byte magic `DUFSSTO1`,
//!   then records framed exactly like the WAL and the wire protocol:
//!   `len: u32 LE | crc32: u32 LE | payload`. The payload's first byte is
//!   a tag — `1` Put, `2` Delete, `3` Truncate — followed by the record
//!   fields; a Put carries the stripe-chunk bytes inline, and reads later
//!   `pread` them straight off the log (data is written once and never
//!   copied into the heap index).
//! * `index.bin` — a checkpoint of the in-memory allocation index (which
//!   byte spans of which records make up each chunk), framed with the same
//!   `len|crc` discipline and replaced atomically (tmp file + rename +
//!   directory fsync, the WAL snapshot idiom). It records how many extent
//!   bytes it covers; open() replays only the tail past the checkpoint.
//!
//! ## Recovery
//!
//! On open the engine loads the checkpoint if present and intact, then
//! scans `extents.dat` from the covered offset. The first torn or corrupt
//! frame ends the scan and the file is truncated back to the last good
//! record — a torn final write (the only kind of damage a crash can leave
//! on an append-only log) is discarded, never misread. A stale or damaged
//! checkpoint degrades to a full log scan, never to wrong data.
//!
//! ## Durability knob
//!
//! [`FsyncPolicy`] decides when appended records are forced down:
//! `PerWrite` fsyncs inside every [`StorageEngine::write`]; `Group` and
//! `None` leave syncing to explicit [`StorageEngine::sync`] calls — the
//! store server turns that into WAL-style group commit (one fsync per
//! drained batch, acks after).
//!
//! The log is purely log-structured: overwrites and deletes append; space
//! is reclaimed only by recreating the target (acceptable for benchmark
//! lifetimes, noted in DESIGN.md).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use dufs_backendfs::StorageEngine;
use dufs_net::{crc32, crc32_parts, WireCursor, WireError};

use crate::msg::{get_u128, put_u128, put_u32, put_u64};

const MAGIC: &[u8; 8] = b"DUFSSTO1";
const INDEX_MAGIC: &[u8; 8] = b"DUFSSIX1";
const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_TRUNCATE: u8 = 3;
/// Frame-size sanity bound, matching the transport's `MAX_FRAME`.
const MAX_RECORD: u32 = 64 << 20;
/// Bytes of new extent data between automatic index checkpoints.
const CHECKPOINT_EVERY: u64 = 8 << 20;
/// Byte offset of a Put record's chunk data inside its payload:
/// tag(1) + obj(16) + stripe(8) + within(4).
const PUT_HDR: u64 = 29;

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` inside every write — strongest, slowest.
    PerWrite,
    /// Sync only on [`StorageEngine::sync`]; the server calls it once per
    /// drained request batch before acking (WAL-style group commit), so an
    /// acked write is still always durable.
    Group,
    /// Sync only on explicit client `Sync` requests. Acked writes since
    /// the last barrier can be lost to a crash — the documented trade-off.
    None,
}

impl FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-write" => Ok(FsyncPolicy::PerWrite),
            "group" => Ok(FsyncPolicy::Group),
            "none" => Ok(FsyncPolicy::None),
            other => Err(format!("unknown fsync policy '{other}' (per-write|group|none)")),
        }
    }
}

/// One byte span of a chunk, resolved to its location in `extents.dat`.
#[derive(Debug, Clone, Copy)]
struct Span {
    within: u32,
    len: u32,
    /// Absolute file offset of the span's first data byte.
    off: u64,
}

/// Index entry for one stripe chunk: logical length plus the ordered spans
/// (later spans overlay earlier ones, append order).
#[derive(Debug, Clone, Default)]
struct Chunk {
    len: u32,
    spans: Vec<Span>,
}

/// Durable [`StorageEngine`] over one target directory.
#[derive(Debug)]
pub struct FileEngine {
    dir: PathBuf,
    log: File,
    /// Current end of `extents.dat` (next append offset).
    log_len: u64,
    /// Extent bytes appended since the last index checkpoint.
    since_checkpoint: u64,
    policy: FsyncPolicy,
    chunks: BTreeMap<(u128, u64), Chunk>,
    bytes: u64,
}

impl FileEngine {
    /// Open (or create) the target directory, recover the index, and trim
    /// any torn tail off the extent log.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log_path = dir.join("extents.dat");
        // Append mode: every write lands at the end of the file, which
        // `open` and `append` keep equal to `log_len` — so a record needs
        // no seek before it and reads (`pread`) never move a cursor.
        let mut log = OpenOptions::new().read(true).append(true).create(true).open(&log_path)?;
        let mut file_len = log.metadata()?.len();
        if file_len < MAGIC.len() as u64 {
            // Fresh target (or a crash tore the very first write): start over.
            log.set_len(0)?;
            log.write_all(MAGIC)?;
            log.sync_data()?;
            sync_dir(&dir)?;
            file_len = MAGIC.len() as u64;
        } else {
            let mut magic = [0u8; 8];
            log.read_exact_at(&mut magic, 0)?;
            if &magic != MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: bad extent-log magic", log_path.display()),
                ));
            }
        }

        let mut eng = FileEngine {
            dir,
            log,
            log_len: file_len,
            since_checkpoint: 0,
            policy,
            chunks: BTreeMap::new(),
            bytes: 0,
        };

        let mut covered = MAGIC.len() as u64;
        if let Some((chunks, cov)) = eng.load_checkpoint()? {
            if cov <= file_len {
                eng.chunks = chunks;
                covered = cov;
            }
        }
        eng.replay_from(covered, file_len)?;
        eng.bytes = eng.chunks.values().map(|c| c.len as u64).sum();
        Ok(eng)
    }

    /// Replay extent records in `[from, to)`, truncating at the first torn
    /// or corrupt frame.
    fn replay_from(&mut self, from: u64, to: u64) -> io::Result<()> {
        let mut pos = from;
        // A cloned handle for the scan so `self` stays free for index
        // mutation; both handles share the file offset's underlying file.
        let mut scan = self.log.try_clone()?;
        scan.seek(SeekFrom::Start(pos))?;
        let mut rd = io::BufReader::new(scan);
        loop {
            if pos + 8 > to {
                break;
            }
            let mut head = [0u8; 8];
            if rd.read_exact(&mut head).is_err() {
                break;
            }
            let len = u32::from_le_bytes(head[0..4].try_into().unwrap());
            let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
            if len == 0 || len > MAX_RECORD || pos + 8 + len as u64 > to {
                break;
            }
            let mut payload = vec![0u8; len as usize];
            if rd.read_exact(&mut payload).is_err() {
                break;
            }
            if crc32(&payload) != crc {
                break;
            }
            if self.apply_record(&payload, pos).is_err() {
                break;
            }
            pos += 8 + len as u64;
        }
        if pos < to {
            // Torn tail: cut the log back to the last intact record.
            self.log.set_len(pos)?;
            self.log.sync_data()?;
        }
        self.log_len = pos;
        Ok(())
    }

    /// Apply one decoded record to the in-memory index. `record_off` is the
    /// file offset of the record's length header. A malformed payload is an
    /// error (treated like a torn frame by the caller).
    fn apply_record(&mut self, payload: &[u8], record_off: u64) -> Result<(), WireError> {
        let mut rd = WireCursor::new(payload);
        match rd.u8()? {
            TAG_PUT => {
                let (obj, stripe, within) = (get_u128(&mut rd)?, rd.u64()?, rd.u32()?);
                let data_len = rd.remaining() as u32;
                self.index_put(obj, stripe, within, data_len, record_off + 8 + PUT_HDR);
            }
            TAG_DELETE => self.index_delete(get_u128(&mut rd)?),
            TAG_TRUNCATE => {
                let (obj, keep) = (get_u128(&mut rd)?, rd.u64()?);
                let trim = if rd.u8()? != 0 { Some((rd.u64()?, rd.u32()?)) } else { None };
                self.index_truncate(obj, keep, trim);
            }
            t => return Err(WireError::BadTag(t)),
        }
        Ok(())
    }

    fn index_put(&mut self, obj: u128, stripe: u64, within: u32, len: u32, data_off: u64) {
        let chunk = self.chunks.entry((obj, stripe)).or_default();
        let end = within + len;
        if end > chunk.len {
            self.bytes += (end - chunk.len) as u64;
            chunk.len = end;
        }
        if len > 0 {
            chunk.spans.push(Span { within, len, off: data_off });
        }
    }

    fn index_delete(&mut self, obj: u128) {
        let doomed: Vec<(u128, u64)> =
            self.chunks.range((obj, 0)..=(obj, u64::MAX)).map(|(&k, _)| k).collect();
        for k in doomed {
            if let Some(c) = self.chunks.remove(&k) {
                self.bytes -= c.len as u64;
            }
        }
    }

    fn index_truncate(&mut self, obj: u128, keep: u64, trim: Option<(u64, u32)>) {
        let doomed: Vec<(u128, u64)> =
            self.chunks.range((obj, keep)..=(obj, u64::MAX)).map(|(&k, _)| k).collect();
        for k in doomed {
            if let Some(c) = self.chunks.remove(&k) {
                self.bytes -= c.len as u64;
            }
        }
        if let Some((stripe, new_len)) = trim {
            if let Some(c) = self.chunks.get_mut(&(obj, stripe)) {
                if c.len > new_len {
                    self.bytes -= (c.len - new_len) as u64;
                    c.len = new_len;
                    // Cut spans so a later re-extend cannot resurrect
                    // truncated bytes.
                    c.spans.retain_mut(|s| {
                        if s.within >= new_len {
                            return false;
                        }
                        s.len = s.len.min(new_len - s.within);
                        true
                    });
                }
            }
        }
    }

    /// Append one record framed `len | crc | fixed ‖ data` with a single
    /// vectored write — the checksum is streamed over the two parts, so a
    /// Put's chunk bytes go from the caller's buffer to the file without
    /// being joined to their header first. Returns the file offset of the
    /// record's length header.
    fn append(&mut self, fixed: &[u8], data: &[u8]) -> io::Result<u64> {
        let off = self.log_len;
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&((fixed.len() + data.len()) as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32_parts(&[fixed, data]).to_le_bytes());
        let mut parts = [IoSlice::new(&head), IoSlice::new(fixed), IoSlice::new(data)];
        let mut left = &mut parts[..];
        while !left.is_empty() {
            match self.log.write_vectored(left) {
                Ok(0) => return self.torn(off, io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.torn(off, e),
            }
        }
        let rec_len = (8 + fixed.len() + data.len()) as u64;
        self.log_len += rec_len;
        self.since_checkpoint += rec_len;
        if self.policy == FsyncPolicy::PerWrite {
            self.log.sync_data()?;
        }
        Ok(off)
    }

    /// A record write failed part-way: cut the partial bytes off so the
    /// file still ends at `log_len`, where the next append will land.
    fn torn(&mut self, off: u64, e: io::Error) -> io::Result<u64> {
        let _ = self.log.set_len(off);
        Err(e)
    }

    // ------------------------------------------------------------------
    // Index checkpointing
    // ------------------------------------------------------------------

    /// Atomically checkpoint the in-memory index so the next open replays
    /// only the log tail. tmp + rename + dir fsync, the WAL snapshot idiom.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let mut body = Vec::new();
        put_u64(&mut body, self.log_len);
        put_u64(&mut body, self.chunks.len() as u64);
        for (&(obj, stripe), chunk) in &self.chunks {
            put_u128(&mut body, obj);
            put_u64(&mut body, stripe);
            put_u32(&mut body, chunk.len);
            put_u32(&mut body, chunk.spans.len() as u32);
            for s in &chunk.spans {
                put_u32(&mut body, s.within);
                put_u32(&mut body, s.len);
                put_u64(&mut body, s.off);
            }
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(INDEX_MAGIC);
        put_u32(&mut out, body.len() as u32);
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);

        let tmp = self.dir.join("index.tmp");
        let final_path = self.dir.join("index.bin");
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_data()?;
        std::fs::rename(&tmp, &final_path)?;
        sync_dir(&self.dir)?;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Load `index.bin` if present and intact. Returns the chunk index and
    /// the extent-log offset it covers; `None` (never an error) on any
    /// damage — recovery then falls back to a full log scan.
    #[allow(clippy::type_complexity)]
    fn load_checkpoint(&self) -> io::Result<Option<(BTreeMap<(u128, u64), Chunk>, u64)>> {
        let raw = match std::fs::read(self.dir.join("index.bin")) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Some((magic, rest)) = raw.split_at_checked(8) else { return Ok(None) };
        if magic != INDEX_MAGIC {
            return Ok(None);
        }
        let Some((head, body)) = rest.split_at_checked(8) else { return Ok(None) };
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if body.len() != len || crc32(body) != crc {
            return Ok(None);
        }
        Ok(parse_index(body).ok())
    }
}

/// Decode the body of `index.bin`: the covered log offset, then the chunks.
#[allow(clippy::type_complexity)]
fn parse_index(body: &[u8]) -> Result<(BTreeMap<(u128, u64), Chunk>, u64), WireError> {
    let mut rd = WireCursor::new(body);
    let (covered, n_chunks) = (rd.u64()?, rd.u64()?);
    let mut chunks = BTreeMap::new();
    for _ in 0..n_chunks {
        let (obj, stripe, len) = (get_u128(&mut rd)?, rd.u64()?, rd.u32()?);
        let n_spans = rd.count(16)?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            spans.push(Span { within: rd.u32()?, len: rd.u32()?, off: rd.u64()? });
        }
        chunks.insert((obj, stripe), Chunk { len, spans });
    }
    Ok((chunks, covered))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

impl StorageEngine for FileEngine {
    fn write(&mut self, obj: u128, stripe: u64, within: u32, data: &[u8]) -> io::Result<()> {
        let mut fixed = Vec::with_capacity(PUT_HDR as usize);
        fixed.push(TAG_PUT);
        put_u128(&mut fixed, obj);
        put_u64(&mut fixed, stripe);
        put_u32(&mut fixed, within);
        let off = self.append(&fixed, data)?;
        self.index_put(obj, stripe, within, data.len() as u32, off + 8 + PUT_HDR);
        Ok(())
    }

    fn read(&mut self, obj: u128, stripe: u64, within: u32, out: &mut [u8]) -> io::Result<usize> {
        let Some(chunk) = self.chunks.get(&(obj, stripe)) else { return Ok(0) };
        if within >= chunk.len {
            return Ok(0);
        }
        let have = ((chunk.len - within) as usize).min(out.len());
        let dst = &mut out[..have];
        let (lo, hi) = (within as u64, within as u64 + have as u64);
        // Holes inside the chunk read as zeros; when one span covers the
        // whole range (a chunk written in one piece) there are none.
        if !chunk
            .spans
            .iter()
            .any(|s| s.within as u64 <= lo && hi <= s.within as u64 + s.len as u64)
        {
            dst.fill(0);
        }
        for s in &chunk.spans {
            let (s_lo, s_hi) = (s.within as u64, s.within as u64 + s.len as u64);
            let ov_lo = lo.max(s_lo);
            let ov_hi = hi.min(s_hi);
            if ov_lo >= ov_hi {
                continue;
            }
            let file_off = s.off + (ov_lo - s_lo);
            let dst_range = &mut dst[(ov_lo - lo) as usize..(ov_hi - lo) as usize];
            self.log.read_exact_at(dst_range, file_off)?;
        }
        Ok(have)
    }

    fn truncate(
        &mut self,
        obj: u128,
        keep_stripes: u64,
        trim: Option<(u64, u32)>,
    ) -> io::Result<()> {
        let mut payload = Vec::with_capacity(30);
        payload.push(TAG_TRUNCATE);
        put_u128(&mut payload, obj);
        put_u64(&mut payload, keep_stripes);
        match trim {
            Some((s, l)) => {
                payload.push(1);
                put_u64(&mut payload, s);
                put_u32(&mut payload, l);
            }
            None => payload.push(0),
        }
        self.append(&payload, &[])?;
        self.index_truncate(obj, keep_stripes, trim);
        Ok(())
    }

    fn delete(&mut self, obj: u128) -> io::Result<bool> {
        let existed = self.chunks.range((obj, 0)..=(obj, u64::MAX)).next().is_some();
        if existed {
            let mut payload = Vec::with_capacity(17);
            payload.push(TAG_DELETE);
            put_u128(&mut payload, obj);
            self.append(&payload, &[])?;
            self.index_delete(obj);
        }
        Ok(existed)
    }

    fn last_stripe(&self, obj: u128) -> Option<(u64, u32)> {
        self.chunks.range((obj, 0)..=(obj, u64::MAX)).next_back().map(|(&(_, s), c)| (s, c.len))
    }

    fn bytes_stored(&self) -> u64 {
        self.bytes
    }

    fn sync(&mut self) -> io::Result<()> {
        self.log.sync_data()?;
        if self.since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn objects(&self) -> Vec<u128> {
        let mut out: Vec<u128> = self.chunks.keys().map(|&(o, _)| o).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_backendfs::StripedStore;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dufs-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let dir = tmp("reopen");
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            e.write(7, 0, 0, b"hello").unwrap();
            e.write(7, 3, 2, b"world").unwrap();
            e.write(9, 1, 0, b"nine").unwrap();
            e.sync().unwrap();
        }
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(e.read(7, 0, 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(e.read(7, 3, 0, &mut buf).unwrap(), 7);
        assert_eq!(&buf[..7], b"\0\0world");
        assert_eq!(e.last_stripe(7), Some((3, 7)));
        assert_eq!(e.objects(), vec![7, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_writes_overlay_in_order() {
        let dir = tmp("overlay");
        let mut e = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
        e.write(1, 0, 0, b"aaaaaaaa").unwrap();
        e.write(1, 0, 2, b"bbb").unwrap();
        e.write(1, 0, 4, b"c").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(e.read(1, 0, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"aabbcaaa");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_on_open() {
        let dir = tmp("torn");
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            e.write(1, 0, 0, b"durable!").unwrap();
            e.write(1, 1, 0, b"torn-victim").unwrap();
            e.sync().unwrap();
        }
        // Tear the final record mid-payload, as a crash mid-append would.
        let log = dir.join("extents.dat");
        let len = std::fs::metadata(&log).unwrap().len();
        OpenOptions::new().write(true).open(&log).unwrap().set_len(len - 5).unwrap();

        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(e.read(1, 0, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf[..8], b"durable!");
        assert_eq!(e.read(1, 1, 0, &mut buf).unwrap(), 0, "torn write must vanish");
        // And the log is writable again right where the tear was cut.
        e.write(1, 1, 0, b"rewritten").unwrap();
        e.sync().unwrap();
        assert_eq!(e.read(1, 1, 0, &mut buf).unwrap(), 9);
        assert_eq!(&buf[..9], b"rewritten");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_log_record_truncates_from_there() {
        let dir = tmp("bitflip");
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            e.write(1, 0, 0, b"first").unwrap();
            e.write(1, 1, 0, b"second").unwrap();
            e.sync().unwrap();
        }
        // Flip a byte inside the second record's payload.
        let log = dir.join("extents.dat");
        let mut raw = std::fs::read(&log).unwrap();
        let n = raw.len();
        raw[n - 3] ^= 0xFF;
        std::fs::write(&log, &raw).unwrap();

        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(e.read(1, 0, 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"first");
        assert_eq!(e.read(1, 1, 0, &mut buf).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_skips_replay_and_tolerates_damage() {
        let dir = tmp("ckpt");
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            for i in 0..50u64 {
                e.write(1, i, 0, format!("stripe-{i}").as_bytes()).unwrap();
            }
            e.sync().unwrap();
            e.checkpoint().unwrap();
            e.write(1, 50, 0, b"after-checkpoint").unwrap();
            e.sync().unwrap();
        }
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            let mut buf = [0u8; 32];
            let n = e.read(1, 50, 0, &mut buf).unwrap();
            assert_eq!(&buf[..n], b"after-checkpoint");
            assert_eq!(e.last_stripe(1), Some((50, 16)));
        }
        // Corrupt the checkpoint: open() must fall back to a full scan.
        let idx = dir.join("index.bin");
        let mut raw = std::fs::read(&idx).unwrap();
        let n = raw.len();
        raw[n / 2] ^= 0x01;
        std::fs::write(&idx, &raw).unwrap();
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(e.read(1, 7, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf[..8], b"stripe-7");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matches_mem_engine_through_striped_store() {
        let dirs: Vec<PathBuf> = (0..3).map(|t| tmp(&format!("parity-{t}"))).collect();
        let engines: Vec<FileEngine> =
            dirs.iter().map(|d| FileEngine::open(d, FsyncPolicy::None).unwrap()).collect();
        let mut durable = StripedStore::new(engines, 16);
        let mut model = StripedStore::in_memory(3, 16);

        let obj = 0xFEEDu128;
        let ops: &[(u64, &[u8])] = &[(0, b"abcdefgh"), (30, b"xyz"), (14, b"0123456789")];
        for &(off, data) in ops {
            durable.write(obj, off, data).unwrap();
            model.write(obj, off, data).unwrap();
        }
        durable.truncate_data(obj, 20).unwrap();
        model.truncate_data(obj, 20).unwrap();
        durable.write(obj, 25, b"tail").unwrap();
        model.write(obj, 25, b"tail").unwrap();

        let mut a = vec![0u8; 40];
        let mut b = vec![0u8; 40];
        durable.read_into(obj, 0, &mut a).unwrap();
        model.read_into(obj, 0, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(durable.written_extent(obj), model.written_extent(obj));
        for d in &dirs {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn delete_forgets_and_reports() {
        let dir = tmp("delete");
        let mut e = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
        e.write(5, 0, 0, b"data").unwrap();
        assert!(e.delete(5).unwrap());
        assert!(!e.delete(5).unwrap());
        assert_eq!(e.last_stripe(5), None);
        assert_eq!(e.bytes_stored(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
