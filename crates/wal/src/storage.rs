//! Storage backends for the write-ahead log.
//!
//! The [`Wal`](crate::Wal) core is generic over a byte-level [`LogStorage`]
//! so the identical recovery logic runs against real files, a deterministic
//! in-memory model (for the discrete-event simulator) and a fault-injecting
//! adversary (for the corruption/recovery test suite).
//!
//! The contract every backend upholds: bytes covered by a successful
//! [`LogStorage::sync`] survive [`LogStorage::crash`] unaltered; bytes not
//! yet covered may vanish, be truncated at an arbitrary point, or (for the
//! adversarial backend) be bit-flipped — but *only* those bytes.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Byte-level storage the WAL writes through.
///
/// Segments are identified by a monotonically increasing `u64`; snapshots by
/// the zxid they cover. All methods are synchronous; `sync` is the only
/// durability point for segment appends, while `write_snapshot` must be
/// durable on return (file backends write-then-rename).
pub trait LogStorage {
    /// Ids of all existing segments, ascending.
    fn list_segments(&self) -> io::Result<Vec<u64>>;
    /// Full contents of a segment (durable prefix plus any still-buffered
    /// suffix, when the backend distinguishes them).
    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>>;
    /// Create a new, empty segment.
    fn create_segment(&mut self, id: u64) -> io::Result<()>;
    /// Append bytes to a segment (buffered until `sync`).
    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()>;
    /// Make every byte appended to `id` so far durable. On `Err` the durable
    /// suffix is *unknown* — the caller must treat itself as crashed rather
    /// than acknowledge anything.
    fn sync(&mut self, id: u64) -> io::Result<()>;
    /// Delete a segment.
    fn remove_segment(&mut self, id: u64) -> io::Result<()>;
    /// Cut a segment back to `len` bytes, durably. Recovery uses this to
    /// erase a torn tail so the segment is well-formed from then on.
    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()>;
    /// Zxids of all existing snapshots, ascending.
    fn list_snapshots(&self) -> io::Result<Vec<u64>>;
    /// Full contents of a snapshot.
    fn read_snapshot(&mut self, zxid: u64) -> io::Result<Vec<u8>>;
    /// Write a snapshot — `head` then `blob`, stored back to back — durably
    /// (atomic: either the complete snapshot exists afterwards or nothing
    /// does).
    fn write_snapshot(&mut self, zxid: u64, head: &[u8], blob: &[u8]) -> io::Result<()>;
    /// Delete a snapshot.
    fn remove_snapshot(&mut self, zxid: u64) -> io::Result<()>;
    /// Simulation hook: the machine dies now. Backends that model buffering
    /// drop (or corrupt) everything not covered by a successful `sync`.
    /// File backends do nothing — the kernel's page cache is out of scope.
    fn crash(&mut self) {}
}

// ---------------------------------------------------------------------------
// Real files
// ---------------------------------------------------------------------------

/// Directory-of-files backend: `seg-<id>.wal` plus `snap-<zxid>.bin`,
/// appends through cached handles, `fsync` via `File::sync_data`, snapshots
/// written to a temp file then renamed (with a directory fsync) so they are
/// atomic.
pub struct FileStorage {
    dir: PathBuf,
    handles: HashMap<u64, File>,
}

impl FileStorage {
    /// Open (creating if needed) a log directory.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FileStorage { dir: dir.as_ref().to_path_buf(), handles: HashMap::new() })
    }

    fn seg_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:016x}.wal"))
    }

    fn snap_path(&self, zxid: u64) -> PathBuf {
        self.dir.join(format!("snap-{zxid:016x}.bin"))
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Make directory entries (new/renamed files) durable.
        File::open(&self.dir)?.sync_all()
    }

    fn scan(&self, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_prefix(prefix).and_then(|s| s.strip_suffix(suffix)) {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

impl LogStorage for FileStorage {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        self.scan("seg-", ".wal")
    }

    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.seg_path(id))
    }

    fn create_segment(&mut self, id: u64) -> io::Result<()> {
        let f = OpenOptions::new().create(true).append(true).open(self.seg_path(id))?;
        self.handles.insert(id, f);
        self.sync_dir()
    }

    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()> {
        if !self.handles.contains_key(&id) {
            let f = OpenOptions::new().append(true).open(self.seg_path(id))?;
            self.handles.insert(id, f);
        }
        self.handles.get_mut(&id).unwrap().write_all(data)
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        match self.handles.get_mut(&id) {
            Some(f) => f.sync_data(),
            None => Ok(()), // nothing appended through this handle yet
        }
    }

    fn remove_segment(&mut self, id: u64) -> io::Result<()> {
        self.handles.remove(&id);
        std::fs::remove_file(self.seg_path(id))
    }

    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()> {
        self.handles.remove(&id);
        let f = OpenOptions::new().write(true).open(self.seg_path(id))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn list_snapshots(&self) -> io::Result<Vec<u64>> {
        self.scan("snap-", ".bin")
    }

    fn read_snapshot(&mut self, zxid: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.snap_path(zxid))
    }

    fn write_snapshot(&mut self, zxid: u64, head: &[u8], blob: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("snap-{zxid:016x}.tmp"));
        let mut f = File::create(&tmp)?;
        f.write_all(head)?;
        f.write_all(blob)?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, self.snap_path(zxid))?;
        self.sync_dir()
    }

    fn remove_snapshot(&mut self, zxid: u64) -> io::Result<()> {
        std::fs::remove_file(self.snap_path(zxid))
    }
}

// ---------------------------------------------------------------------------
// Deterministic in-memory model
// ---------------------------------------------------------------------------

#[derive(Default, Clone)]
struct MemSegment {
    /// All appended bytes; `durable` marks the fsync-covered prefix.
    data: Vec<u8>,
    durable: usize,
}

/// In-memory backend with explicit fsync semantics: appends land in a
/// buffered suffix that [`LogStorage::crash`] discards; `sync` extends the
/// durable prefix. Keeps the discrete-event simulator fully deterministic
/// while still exercising the recovery path for real.
#[derive(Default)]
pub struct MemStorage {
    segments: BTreeMap<u64, MemSegment>,
    snapshots: BTreeMap<u64, Vec<u8>>,
}

impl MemStorage {
    /// Fresh, empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total durable bytes across all segments (test observability).
    pub fn durable_bytes(&self) -> usize {
        self.segments.values().map(|s| s.durable).sum()
    }
}

fn no_seg(id: u64) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such segment {id}"))
}

impl LogStorage for MemStorage {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        Ok(self.segments.keys().copied().collect())
    }

    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>> {
        self.segments.get(&id).map(|s| s.data.clone()).ok_or_else(|| no_seg(id))
    }

    fn create_segment(&mut self, id: u64) -> io::Result<()> {
        self.segments.entry(id).or_default();
        Ok(())
    }

    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()> {
        self.segments.get_mut(&id).ok_or_else(|| no_seg(id))?.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        let seg = self.segments.get_mut(&id).ok_or_else(|| no_seg(id))?;
        seg.durable = seg.data.len();
        Ok(())
    }

    fn remove_segment(&mut self, id: u64) -> io::Result<()> {
        self.segments.remove(&id).map(|_| ()).ok_or_else(|| no_seg(id))
    }

    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()> {
        let seg = self.segments.get_mut(&id).ok_or_else(|| no_seg(id))?;
        seg.data.truncate(len as usize);
        seg.durable = seg.durable.min(len as usize);
        Ok(())
    }

    fn list_snapshots(&self) -> io::Result<Vec<u64>> {
        Ok(self.snapshots.keys().copied().collect())
    }

    fn read_snapshot(&mut self, zxid: u64) -> io::Result<Vec<u8>> {
        self.snapshots.get(&zxid).cloned().ok_or_else(|| no_seg(zxid))
    }

    fn write_snapshot(&mut self, zxid: u64, head: &[u8], blob: &[u8]) -> io::Result<()> {
        self.snapshots.insert(zxid, [head, blob].concat());
        Ok(())
    }

    fn remove_snapshot(&mut self, zxid: u64) -> io::Result<()> {
        self.snapshots.remove(&zxid).map(|_| ()).ok_or_else(|| no_seg(zxid))
    }

    fn crash(&mut self) {
        for seg in self.segments.values_mut() {
            seg.data.truncate(seg.durable);
        }
        // Snapshots are written atomically (write + rename): already durable.
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Probabilities for the adversarial backend. All faults respect the core
/// invariant — bytes covered by a successful `sync` are never touched.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Chance a `sync` fails after persisting only a random prefix of the
    /// pending bytes (the caller must self-fence).
    pub p_sync_fail: f64,
    /// Chance that, at crash, a random prefix of the unsynced tail made it
    /// to disk anyway (a torn write) instead of vanishing entirely.
    pub p_torn_tail: f64,
    /// Chance a surviving torn prefix additionally has one bit flipped in
    /// its final bytes (garbage in the half-written record).
    pub p_bit_flip: f64,
    /// Chance the *first* read of the final segment returns a short
    /// (truncated) buffer; the next read sees everything. Models transient
    /// short reads the recovery path must retry.
    pub p_short_read: f64,
    /// Chance `write_snapshot` fails (atomic: nothing is written).
    pub p_snapshot_fail: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            p_sync_fail: 0.05,
            p_torn_tail: 0.5,
            p_bit_flip: 0.5,
            p_short_read: 0.2,
            p_snapshot_fail: 0.05,
        }
    }
}

/// Adversarial wrapper around another backend: buffers appends itself so it
/// can tear, truncate and bit-flip the unsynced tail at crash time, fail
/// fsyncs after partial persistence, and serve transient short reads.
/// Deterministic per seed.
pub struct FaultyStorage<S: LogStorage> {
    inner: S,
    rng: StdRng,
    cfg: FaultConfig,
    pending: HashMap<u64, Vec<u8>>,
    short_read_armed: bool,
}

impl<S: LogStorage> FaultyStorage<S> {
    /// Wrap `inner`, drawing faults from `seed`.
    pub fn new(inner: S, seed: u64, cfg: FaultConfig) -> Self {
        FaultyStorage {
            inner,
            rng: StdRng::seed_from_u64(seed),
            cfg,
            pending: HashMap::new(),
            short_read_armed: true,
        }
    }

    /// The wrapped backend (test observability).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p
    }

    /// Flush `buf` (possibly a prefix, possibly mangled) into the inner
    /// backend and make it durable there.
    fn flush_to_inner(&mut self, id: u64, buf: &[u8]) -> io::Result<()> {
        if !buf.is_empty() {
            self.inner.append(id, buf)?;
        }
        self.inner.sync(id)
    }
}

impl<S: LogStorage> LogStorage for FaultyStorage<S> {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        self.inner.list_segments()
    }

    fn read_segment(&mut self, id: u64) -> io::Result<Vec<u8>> {
        let mut data = self.inner.read_segment(id)?;
        if let Some(p) = self.pending.get(&id) {
            data.extend_from_slice(p);
        }
        let last = self.inner.list_segments()?.last().copied();
        if self.short_read_armed && last == Some(id) && !data.is_empty() {
            let p = self.cfg.p_short_read;
            if self.chance(p) {
                self.short_read_armed = false;
                let keep = self.rng.random_range(0..data.len() as u64) as usize;
                data.truncate(keep);
            }
        }
        Ok(data)
    }

    fn create_segment(&mut self, id: u64) -> io::Result<()> {
        self.inner.create_segment(id)
    }

    fn append(&mut self, id: u64, data: &[u8]) -> io::Result<()> {
        self.pending.entry(id).or_default().extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, id: u64) -> io::Result<()> {
        let buf = self.pending.remove(&id).unwrap_or_default();
        if self.chance(self.cfg.p_sync_fail) {
            // Partial fsync: a random prefix reached disk, then the device
            // errored. The caller sees Err and must treat itself as crashed.
            let keep = if buf.is_empty() {
                0
            } else {
                self.rng.random_range(0..buf.len() as u64) as usize
            };
            self.flush_to_inner(id, &buf[..keep])?;
            return Err(io::Error::other("injected fsync failure"));
        }
        self.flush_to_inner(id, &buf)
    }

    fn remove_segment(&mut self, id: u64) -> io::Result<()> {
        self.pending.remove(&id);
        self.inner.remove_segment(id)
    }

    fn truncate_segment(&mut self, id: u64, len: u64) -> io::Result<()> {
        // Only recovery truncates, and never with appends in flight.
        self.pending.remove(&id);
        self.inner.truncate_segment(id, len)
    }

    fn list_snapshots(&self) -> io::Result<Vec<u64>> {
        self.inner.list_snapshots()
    }

    fn read_snapshot(&mut self, zxid: u64) -> io::Result<Vec<u8>> {
        self.inner.read_snapshot(zxid)
    }

    fn write_snapshot(&mut self, zxid: u64, head: &[u8], blob: &[u8]) -> io::Result<()> {
        if self.chance(self.cfg.p_snapshot_fail) {
            return Err(io::Error::other("injected snapshot write failure"));
        }
        self.inner.write_snapshot(zxid, head, blob)
    }

    fn remove_snapshot(&mut self, zxid: u64) -> io::Result<()> {
        self.inner.remove_snapshot(zxid)
    }

    fn crash(&mut self) {
        // Each buffered (never-synced) tail either vanishes or survives as a
        // torn prefix, possibly with a flipped bit in its final bytes. Synced
        // bytes — already inside `inner` — are never touched.
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let buf = self.pending.remove(&id).unwrap_or_default();
            if buf.is_empty() || !self.chance(self.cfg.p_torn_tail) {
                continue;
            }
            let keep = self.rng.random_range(0..buf.len() as u64 + 1) as usize;
            let mut torn = buf[..keep].to_vec();
            if !torn.is_empty() && self.chance(self.cfg.p_bit_flip) {
                let span = torn.len().min(8);
                let at = torn.len() - 1 - self.rng.random_range(0..span as u64) as usize;
                let bit = self.rng.random_range(0..8u32) as u8;
                torn[at] ^= 1 << bit;
            }
            let _ = self.flush_to_inner(id, &torn);
        }
        self.pending.clear();
        self.short_read_armed = true;
        self.inner.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_drops_unsynced_bytes_on_crash() {
        let mut s = MemStorage::new();
        s.create_segment(1).unwrap();
        s.append(1, b"durable").unwrap();
        s.sync(1).unwrap();
        s.append(1, b" lost").unwrap();
        s.crash();
        assert_eq!(s.read_segment(1).unwrap(), b"durable");
    }

    #[test]
    fn mem_storage_reads_include_pending_before_crash() {
        let mut s = MemStorage::new();
        s.create_segment(1).unwrap();
        s.append(1, b"abc").unwrap();
        assert_eq!(s.read_segment(1).unwrap(), b"abc");
    }

    #[test]
    fn file_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!("dufs-wal-st-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FileStorage::new(&dir).unwrap();
        s.create_segment(3).unwrap();
        s.append(3, b"hello").unwrap();
        s.sync(3).unwrap();
        s.write_snapshot(9, b"snap", b"bytes").unwrap();
        assert_eq!(s.list_segments().unwrap(), vec![3]);
        assert_eq!(s.read_segment(3).unwrap(), b"hello");
        assert_eq!(s.list_snapshots().unwrap(), vec![9]);
        assert_eq!(s.read_snapshot(9).unwrap(), b"snapbytes");
        s.remove_segment(3).unwrap();
        s.remove_snapshot(9).unwrap();
        assert!(s.list_segments().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_storage_never_touches_synced_bytes() {
        for seed in 0..50u64 {
            let mut s = FaultyStorage::new(MemStorage::new(), seed, FaultConfig::default());
            s.create_segment(1).unwrap();
            s.append(1, b"covered-by-sync").unwrap();
            if s.sync(1).is_err() {
                continue; // fenced: nothing was acknowledged
            }
            s.append(1, b"unsynced-tail-bytes").unwrap();
            s.crash();
            let data = s.read_segment(1).unwrap_or_default();
            // A short read may hide the tail, never rewrite the prefix.
            let visible = data.len().min(b"covered-by-sync".len());
            assert_eq!(&data[..visible], &b"covered-by-sync"[..visible], "seed {seed}");
        }
    }
}
