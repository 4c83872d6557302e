//! File-backed storage engine: one directory per storage target.
//!
//! ## On-disk layout
//!
//! Each target directory holds two files:
//!
//! * `extents.dat` — an append-only extent log. 8-byte magic `DUFSSTO1`,
//!   then records in the one record frame the WAL and the wire protocol use
//!   (`dufs_net::record`): `len: u32 LE | crc32: u32 LE | payload`. The
//!   payload is an [`Extent`], declared once with `dufs_net::wire!`: a
//!   tag — `1` Put, `2` Delete, `3` Truncate — followed by the record
//!   fields. A Put's stripe-chunk bytes follow its fields, outside the
//!   declaration: they go from the caller's buffer to the file in the same
//!   `writev` as the head and fields, and reads later `pread` them straight
//!   off the log (data is written once and never copied into the heap
//!   index). Chunk offsets are `u32`: a write ending past `u32::MAX` is
//!   refused, and such a record, found on replay, fails the open.
//! * `index.bin` — a checkpoint of the in-memory allocation index (which
//!   byte spans of which records make up each chunk): a sealed file
//!   (`DUFSSIX1 | len | crc | body`, as the WAL's snapshots are) put in
//!   place by the shared atomic replace (tmp file + rename + directory
//!   fsync). Its body is the extent bytes it covers and a chunk count, then
//!   each chunk's key and its declared `Chunk`; open() replays only the
//!   tail past the checkpoint.
//!
//! ## Recovery
//!
//! On open the engine loads the checkpoint if present and intact, then
//! scans `extents.dat` from the covered offset with the shared log scanner.
//! The first torn or corrupt frame ends the scan and the file is truncated
//! back to the last good record — a torn final write (the only kind of
//! damage a crash can leave on an append-only log) is discarded, never
//! misread. A record whose frame is intact but whose payload does not
//! decode (an unknown tag from a newer build, a codec bug) is no torn
//! write: open fails with `InvalidData` and leaves the file as it is, as
//! the WAL refuses the same case. A stale or damaged checkpoint degrades to
//! a full log scan, never to wrong data.
//!
//! ## Durability knob
//!
//! [`FsyncPolicy`] decides when appended records are forced down:
//! `PerWrite` fsyncs inside every [`StorageEngine::write`]; `Group` and
//! `None` leave syncing to explicit [`StorageEngine::sync`] calls — the
//! store server turns that into WAL-style group commit (one fsync per
//! drained batch, acks after).
//!
//! ## Reclaiming space
//!
//! Overwrites and deletes append, so the log holds dead bytes beside the
//! live ones. After each [`StorageEngine::sync`] the engine compares them:
//! once the dead bytes (log length − magic − live bytes) exceed the larger
//! of the live bytes and `REWRITE_SLACK` (64 MiB), it rewrites the log
//! with only the live chunks, as ordinary Put records — so the log never
//! holds more than about twice its live bytes, or twice the slack, plus
//! one batch. The rewrite is crash-safe in this order:
//!
//! 1. the live chunks go into `extents.tmp`, which is then synced;
//! 2. `index.bin` is removed and the directory synced — its spans point
//!    into the old log, and no later step may meet it beside the new one;
//! 3. `extents.tmp` is renamed over `extents.dat`, the directory synced;
//! 4. the spans are re-pointed into the new log and a checkpoint taken.
//!
//! A crash before step 3 leaves the old log (with or without its index),
//! one after it the new log without an index: either replays to the same
//! contents, and `open` deletes a leftover `extents.tmp`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::thread::{self, JoinHandle};

use dufs_backendfs::StorageEngine;
use dufs_net::record::{self, sync_dir};
use dufs_net::{wire, Codec, Wire, WireCursor, WireError};

use crate::msg::HiLo;

const MAGIC: &[u8; 8] = b"DUFSSTO1";
const INDEX_MAGIC: &[u8; 8] = b"DUFSSIX1";
/// Bytes of new extent data between automatic index checkpoints.
const CHECKPOINT_EVERY: u64 = 8 << 20;
/// Dead extent bytes the log may carry before a sync rewrites it, when the
/// live bytes are fewer than this.
const REWRITE_SLACK: u64 = 64 << 20;
/// Largest chunk piece the rewrite puts in one record, and the size of its
/// one copy buffer.
const REWRITE_PIECE: u32 = 1 << 20;
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

/// One extent-log record: the payload of a record frame in `extents.dat`.
/// A Put's chunk bytes follow its fields, outside the declaration, so a
/// Put is written as its encoding and the caller's bytes side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// Bytes stored at `within` of chunk `stripe` of `obj`; they are the
    /// rest of the record.
    Put {
        /// Object (FID) the chunk belongs to.
        obj: u128,
        /// Global stripe index.
        stripe: u64,
        /// Byte offset inside the chunk.
        within: u32,
    },
    /// Every chunk of the object is dropped.
    Delete(u128),
    /// Every chunk of `obj` from stripe `keep` on is dropped, and chunk
    /// `trim.0`, if given, is cut to `trim.1` bytes.
    Truncate {
        /// Object (FID).
        obj: u128,
        /// First stripe dropped.
        keep: u64,
        /// A chunk to cut, and the length it keeps.
        trim: Option<(u64, u32)>,
    },
}

wire! {
    Extent {
        1 => Put { obj: HiLo, stripe: u64, within: u32 },
        2 => Delete { 0: HiLo },
        3 => Truncate { obj: HiLo, keep: u64, trim: Option<(u64, u32)> },
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

// `index.bin`'s body: a `(covered, count)` head of two `u64`s, then
// `count` times an object (`HiLo`), a stripe (`u64`) and its chunk.
wire! { Span { within: u32, len: u32, off: u64 } }
wire! { Chunk { len: u32, spans: Vec<Span> } }

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
    /// Closes the log the last rewrite replaced; joined by the next and on drop.
    closer: Option<JoinHandle<()>>,
}

impl FileEngine {
    /// Open (or create) the target directory, recover the index, and trim
    /// any torn tail off the extent log.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A rewrite that never reached its rename: the old log is whole.
        remove_if_present(&dir.join("extents.tmp"))?;
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
            closer: None,
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
    /// or corrupt frame; an intact record that does not decode is an error.
    fn replay_from(&mut self, from: u64, to: u64) -> io::Result<()> {
        // A cloned handle for the scan so `self` stays free for index
        // mutation; both handles share the file offset's underlying file.
        let mut scan = self.log.try_clone()?;
        scan.seek(SeekFrom::Start(from))?;
        let valid = record::scan(io::BufReader::new(scan), to - from, |off, payload| {
            self.apply_record(payload, from + off).map_err(|e| {
                let at = format!("{}: record at {}: {e}", self.dir.display(), from + off);
                io::Error::new(io::ErrorKind::InvalidData, at)
            })
        })?;
        let pos = from + valid;
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
    /// error, and so is a Put no chunk could hold.
    fn apply_record(&mut self, payload: &[u8], record_off: u64) -> Result<(), WireError> {
        let mut rd = WireCursor::new(payload);
        // What follows a Put's fields is its chunk bytes.
        match Extent::get(&mut rd)? {
            Extent::Put { obj, stripe, within } => {
                let len = rd.remaining();
                chunk_end(within, len).map_err(|_| WireError::Invalid("a Put past its chunk"))?;
                self.index_put(obj, stripe, within, len as u32, record_off + 8 + PUT_HDR);
            }
            _ if rd.remaining() > 0 => return Err(WireError::Trailing),
            Extent::Delete(obj) => self.index_delete(obj),
            Extent::Truncate { obj, keep, trim } => self.index_truncate(obj, keep, trim),
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
        let head = record::head(&[fixed, data]);
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

    /// Replace the log with one holding only the live chunks, each as Put
    /// records of at most [`REWRITE_PIECE`] bytes (holes written as the
    /// zeros they read as). The steps and their crash states are in the
    /// module doc.
    fn rewrite(&mut self) -> io::Result<()> {
        self.closer.take().map(JoinHandle::join);
        let tmp = self.dir.join("extents.tmp");
        remove_if_present(&tmp)?;
        let new = OpenOptions::new().read(true).append(true).create_new(true).open(&tmp)?;
        let mut out = io::BufWriter::new(&new);
        out.write_all(MAGIC)?;
        let mut len = MAGIC.len() as u64;
        let mut chunks = BTreeMap::new();
        let longest = self.chunks.values().map(|c| c.len).max().unwrap_or(0);
        let mut buf = vec![0u8; REWRITE_PIECE.min(longest) as usize];
        for (&(obj, stripe), chunk) in &self.chunks {
            let mut spans = Vec::new();
            let mut within = 0;
            // A zero-length chunk still gets its (empty) record.
            loop {
                let piece = &mut buf[..REWRITE_PIECE.min(chunk.len - within) as usize];
                read_chunk(&self.log, chunk, within, piece)?;
                let fixed = Extent::Put { obj, stripe, within }.to_wire();
                out.write_all(&record::head(&[&fixed, piece]))?;
                out.write_all(&fixed)?;
                out.write_all(piece)?;
                if !piece.is_empty() {
                    spans.push(Span { within, len: piece.len() as u32, off: len + 8 + PUT_HDR });
                }
                len += 8 + PUT_HDR + piece.len() as u64;
                within += piece.len() as u32;
                if within == chunk.len {
                    break;
                }
            }
            chunks.insert((obj, stripe), Chunk { len: chunk.len, spans });
        }
        out.flush()?;
        drop(out);
        new.sync_data()?;
        remove_if_present(&self.dir.join("index.bin"))?;
        sync_dir(&self.dir)?;
        std::fs::rename(&tmp, self.dir.join("extents.dat"))?;
        let old = std::mem::replace(&mut self.log, new);
        // Freeing a full log's blocks takes tens of ms: not on this thread.
        self.closer = thread::Builder::new().name("store-close".into()).spawn(|| drop(old)).ok();
        self.log_len = len;
        self.chunks = chunks;
        sync_dir(&self.dir)?;
        self.checkpoint()
    }

    // ------------------------------------------------------------------
    // Index checkpointing
    // ------------------------------------------------------------------

    /// Atomically checkpoint the in-memory index so the next open replays
    /// only the log tail: a sealed file, put in place by the shared atomic
    /// replace, as the WAL's snapshots are.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let mut body = Vec::new();
        <(u64, u64)>::put(&(self.log_len, self.chunks.len() as u64), &mut body);
        for (&(obj, stripe), chunk) in &self.chunks {
            HiLo::put(&obj, &mut body);
            u64::put(&stripe, &mut body);
            Chunk::put(chunk, &mut body);
        }
        let head = record::seal(INDEX_MAGIC, &body);
        record::replace(&self.dir.join("index.bin"), &[&head, &body])?;
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
        Ok(record::unseal(INDEX_MAGIC, &raw).and_then(|body| parse_index(body).ok()))
    }
}

/// Where `len` bytes written at `within` end in their chunk; an error if
/// they end past what a chunk's `u32` offsets can say.
pub(crate) fn chunk_end(within: u32, len: usize) -> io::Result<u32> {
    let end = u32::try_from(len).ok().and_then(|n| n.checked_add(within));
    let past = "a write ending past a chunk's u32 offsets";
    end.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, past))
}

/// Read `chunk`'s bytes from `within` into `out`, up to the chunk's end;
/// returns how many. Later spans overlay earlier ones, and holes read as
/// zeros.
fn read_chunk(log: &File, chunk: &Chunk, within: u32, out: &mut [u8]) -> io::Result<usize> {
    if within >= chunk.len {
        return Ok(0);
    }
    let have = ((chunk.len - within) as usize).min(out.len());
    let dst = &mut out[..have];
    let (lo, hi) = (within as u64, within as u64 + have as u64);
    // Holes inside the chunk read as zeros; when one span covers the
    // whole range (a chunk written in one piece) there are none.
    if !chunk.spans.iter().any(|s| s.within as u64 <= lo && hi <= s.within as u64 + s.len as u64) {
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
        log.read_exact_at(dst_range, file_off)?;
    }
    Ok(have)
}

/// Decode the body of `index.bin`: the covered log offset, then the chunks.
#[allow(clippy::type_complexity)]
fn parse_index(body: &[u8]) -> Result<(BTreeMap<(u128, u64), Chunk>, u64), WireError> {
    let mut rd = WireCursor::new(body);
    let (covered, n_chunks) = <(u64, u64)>::get(&mut rd)?;
    let mut chunks = BTreeMap::new();
    for _ in 0..n_chunks {
        let (obj, stripe, chunk) = <(HiLo, u64, Chunk)>::get(&mut rd)?;
        chunks.insert((obj, stripe), chunk);
    }
    Ok((chunks, covered))
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

impl Drop for FileEngine {
    fn drop(&mut self) {
        self.closer.take().map(JoinHandle::join);
    }
}

impl StorageEngine for FileEngine {
    fn write(&mut self, obj: u128, stripe: u64, within: u32, data: &[u8]) -> io::Result<()> {
        chunk_end(within, data.len())?;
        let off = self.append(&Extent::Put { obj, stripe, within }.to_wire(), data)?;
        self.index_put(obj, stripe, within, data.len() as u32, off + 8 + PUT_HDR);
        Ok(())
    }

    fn read(&mut self, obj: u128, stripe: u64, within: u32, out: &mut [u8]) -> io::Result<usize> {
        match self.chunks.get(&(obj, stripe)) {
            Some(chunk) => read_chunk(&self.log, chunk, within, out),
            None => Ok(0),
        }
    }

    fn truncate(
        &mut self,
        obj: u128,
        keep_stripes: u64,
        trim: Option<(u64, u32)>,
    ) -> io::Result<()> {
        self.append(&Extent::Truncate { obj, keep: keep_stripes, trim }.to_wire(), &[])?;
        self.index_truncate(obj, keep_stripes, trim);
        Ok(())
    }

    fn delete(&mut self, obj: u128) -> io::Result<bool> {
        let existed = self.chunks.range((obj, 0)..=(obj, u64::MAX)).next().is_some();
        if existed {
            self.append(&Extent::Delete(obj).to_wire(), &[])?;
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
        let dead = (self.log_len - MAGIC.len() as u64).saturating_sub(self.bytes);
        if dead > self.bytes.max(REWRITE_SLACK) {
            self.rewrite()?;
        } else if self.since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_backendfs::engine::{read_at, truncate_at, write_at};
    use dufs_backendfs::MemEngine;

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
        assert_eq!(e.last_stripe(9), Some((1, 4)));
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
    fn an_intact_record_that_does_not_decode_fails_the_open_and_keeps_the_log() {
        let dir = tmp("unknown-tag");
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            e.write(1, 0, 0, b"A").unwrap();
            e.sync().unwrap();
        }
        // A record of a newer build (tag 9), then an acked Put after it.
        let log = dir.join("extents.dat");
        let mut raw = std::fs::read(&log).unwrap();
        for (fixed, data) in [
            (vec![9, 1, 2, 3], &b""[..]),
            (Extent::Put { obj: 1, stripe: 1, within: 0 }.to_wire(), &b"B"[..]),
        ] {
            raw.extend_from_slice(&record::head(&[&fixed, data]));
            raw.extend_from_slice(&fixed);
            raw.extend_from_slice(data);
        }
        std::fs::write(&log, &raw).unwrap();
        let err = FileEngine::open(&dir, FsyncPolicy::Group).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(std::fs::read(&log).unwrap(), raw, "open leaves the log as it was");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_put_ending_past_a_chunks_u32_offsets_fails_the_open_and_keeps_the_log() {
        let dir = tmp("past-u32");
        {
            let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
            e.write(1, 0, 0, b"A").unwrap();
            let err = e.write(1, 1, u32::MAX, b"ab").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            e.sync().unwrap();
        }
        // The record an older build appended for the same write.
        let log = dir.join("extents.dat");
        let mut raw = std::fs::read(&log).unwrap();
        let fixed = Extent::Put { obj: 1, stripe: 1, within: u32::MAX }.to_wire();
        raw.extend_from_slice(&record::head(&[&fixed, b"ab"]));
        raw.extend_from_slice(&fixed);
        raw.extend_from_slice(b"ab");
        std::fs::write(&log, &raw).unwrap();
        let err = FileEngine::open(&dir, FsyncPolicy::Group).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(std::fs::read(&log).unwrap(), raw, "open leaves the log as it was");
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
    fn matches_mem_engine_through_the_stripe_functions() {
        let dir = tmp("parity");
        let mut durable = FileEngine::open(&dir, FsyncPolicy::None).unwrap();
        let mut model = MemEngine::new();

        let obj = 0xFEEDu128;
        let ops: &[(u64, &[u8])] = &[(0, b"abcdefgh"), (30, b"xyz"), (14, b"0123456789")];
        for &(off, data) in ops {
            write_at(&mut durable, 16, obj, off, data).unwrap();
            write_at(&mut model, 16, obj, off, data).unwrap();
        }
        truncate_at(&mut durable, 16, obj, 20).unwrap();
        truncate_at(&mut model, 16, obj, 20).unwrap();
        write_at(&mut durable, 16, obj, 25, b"tail").unwrap();
        write_at(&mut model, 16, obj, 25, b"tail").unwrap();

        let mut a = vec![0u8; 40];
        let mut b = vec![0u8; 40];
        read_at(&mut durable, 16, obj, 0, &mut a).unwrap();
        read_at(&mut model, 16, obj, 0, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(durable.last_stripe(obj), model.last_stripe(obj));
        assert_eq!(durable.bytes_stored(), model.bytes_stored());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every chunk's full contents, in key order: what a reopen must
    /// reproduce byte for byte.
    fn contents(e: &mut FileEngine) -> Vec<((u128, u64), Vec<u8>)> {
        let keys: Vec<(u128, u64, u32)> =
            e.chunks.iter().map(|(&(o, s), c)| (o, s, c.len)).collect();
        keys.into_iter()
            .map(|(obj, stripe, len)| {
                let mut buf = vec![0u8; len as usize];
                assert_eq!(e.read(obj, stripe, 0, &mut buf).unwrap(), len as usize);
                ((obj, stripe), buf)
            })
            .collect()
    }

    /// Bytes of 1 MiB object `obj`, generation `gen`.
    fn object(obj: u128, gen: u64) -> Vec<u8> {
        let mut buf = vec![(obj as u8) ^ (gen as u8); 1 << 20];
        buf[..16].copy_from_slice(&obj.to_le_bytes());
        buf[16..24].copy_from_slice(&gen.to_le_bytes());
        buf
    }

    #[test]
    fn rewrite_bounds_the_log_by_live_bytes() {
        let dir = tmp("bound");
        let log = dir.join("extents.dat");
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        // Sixteen live slots; each batch of four 1 MiB objects overwrites
        // one slot's object in place, deletes another's and writes its
        // successor, or truncates one and rewrites it, then syncs.
        const BATCH: u64 = 4;
        let mut live: Vec<(u128, u64)> = (0..16).map(|i| (i as u128, 0)).collect();
        let mut next_obj = 16u128;
        let mut peak = 0;
        for round in 0..80u64 {
            for k in 0..BATCH {
                let slot = ((round * BATCH + k) * 7 % 16) as usize;
                let (obj, gen) = live[slot];
                live[slot] = match k % 3 {
                    0 => (obj, gen + 1),
                    1 => {
                        e.delete(obj).unwrap();
                        next_obj += 1;
                        (next_obj, 0)
                    }
                    _ => {
                        e.truncate(obj, 0, None).unwrap();
                        (obj, gen + 1)
                    }
                };
                let (obj, gen) = live[slot];
                e.write(obj, 0, 0, &object(obj, gen)).unwrap();
            }
            e.sync().unwrap();
            peak = peak.max(std::fs::metadata(&log).unwrap().len());
        }
        let batch_bytes = BATCH * ((1 << 20) + 8 + PUT_HDR + 64);
        assert!(peak <= 2 * REWRITE_SLACK + batch_bytes, "extents.dat peaked at {peak} bytes");
        let check = |e: &mut FileEngine| {
            let mut buf = vec![0u8; 1 << 20];
            for &(obj, gen) in &live {
                assert_eq!(e.read(obj, 0, 0, &mut buf).unwrap(), 1 << 20, "object {obj}");
                assert!(buf == object(obj, gen), "object {obj} generation {gen}");
            }
            assert_eq!(e.bytes_stored(), 16 << 20);
            // Every deleted object is gone; every live one is one stripe.
            for obj in 0..=next_obj {
                let live = live.iter().any(|&(o, _)| o == obj);
                assert_eq!(e.last_stripe(obj), live.then_some((0, 1 << 20)), "object {obj}");
            }
        };
        check(&mut e);
        drop(e);
        check(&mut FileEngine::open(&dir, FsyncPolicy::Group).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A synced target with overwrites, a delete, a truncate, holes and an
    /// empty chunk, and a checkpoint part-way: the state a rewrite starts
    /// from. Returns its contents.
    fn pre_rewrite(dir: &Path) -> Vec<((u128, u64), Vec<u8>)> {
        let mut e = FileEngine::open(dir, FsyncPolicy::Group).unwrap();
        e.write(1, 0, 0, b"first version").unwrap();
        e.write(1, 0, 6, b"VERSION").unwrap();
        e.write(1, 2, 5, b"after a hole").unwrap();
        e.write(2, 0, 0, &object(2, 0)).unwrap();
        e.write(2, 1, 0, &[7; 3 << 20]).unwrap();
        e.checkpoint().unwrap();
        e.write(3, 0, 0, b"doomed").unwrap();
        assert!(e.delete(3).unwrap());
        e.write(4, 0, 0, b"cut short here").unwrap();
        e.truncate(4, 1, Some((0, 3))).unwrap();
        e.write(5, 0, 0, b"").unwrap();
        e.sync().unwrap();
        contents(&mut e)
    }

    /// The bytes a completed rewrite of [`pre_rewrite`]'s target leaves as
    /// `extents.dat`, made in a directory of its own.
    fn rewritten_log(name: &str) -> Vec<u8> {
        let dir = tmp(name);
        let before = pre_rewrite(&dir);
        let mut e = FileEngine::open(&dir, FsyncPolicy::Group).unwrap();
        e.rewrite().unwrap();
        assert_eq!(contents(&mut e), before, "the rewrite itself keeps the contents");
        drop(e);
        let log = std::fs::read(dir.join("extents.dat")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        log
    }

    /// Reopen `dir` and compare with `before`; writes go on afterwards.
    fn reopens_to(dir: &Path, before: &[((u128, u64), Vec<u8>)]) {
        let mut e = FileEngine::open(dir, FsyncPolicy::Group).unwrap();
        assert_eq!(contents(&mut e), before);
        assert_eq!(e.last_stripe(4), Some((0, 3)));
        assert_eq!(e.last_stripe(3), None);
        assert!(!dir.join("extents.tmp").exists(), "open deletes a leftover extents.tmp");
        e.write(6, 0, 0, b"after reopen").unwrap();
        e.sync().unwrap();
        drop(e);
        let mut e = FileEngine::open(dir, FsyncPolicy::Group).unwrap();
        let mut buf = [0u8; 12];
        assert_eq!(e.read(6, 0, 0, &mut buf).unwrap(), 12);
        assert_eq!(&buf, b"after reopen");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn crash_after_writing_the_new_log_keeps_the_old_one() {
        let new_log = rewritten_log("crash-tmp-new");
        let dir = tmp("crash-tmp");
        let before = pre_rewrite(&dir);
        std::fs::write(dir.join("extents.tmp"), new_log).unwrap();
        assert!(dir.join("index.bin").exists());
        reopens_to(&dir, &before);
    }

    #[test]
    fn crash_after_removing_the_index_replays_the_old_log() {
        let new_log = rewritten_log("crash-index-new");
        let dir = tmp("crash-index");
        let before = pre_rewrite(&dir);
        std::fs::write(dir.join("extents.tmp"), new_log).unwrap();
        std::fs::remove_file(dir.join("index.bin")).unwrap();
        reopens_to(&dir, &before);
    }

    #[test]
    fn crash_after_the_rename_replays_the_new_log() {
        let new_log = rewritten_log("crash-rename-new");
        let dir = tmp("crash-rename");
        let before = pre_rewrite(&dir);
        std::fs::remove_file(dir.join("index.bin")).unwrap();
        let old_len = std::fs::metadata(dir.join("extents.dat")).unwrap().len();
        assert!((new_log.len() as u64) < old_len, "the rewrite drops dead bytes");
        std::fs::write(dir.join("extents.dat"), new_log).unwrap();
        reopens_to(&dir, &before);
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
