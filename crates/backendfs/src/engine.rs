//! The per-target storage-engine abstraction under every data path.
//!
//! A parallel filesystem's data path is a client-side striping layer over N
//! independent storage targets (Lustre OSTs, PVFS2 IO servers). This module
//! holds the target half and the one byte-range split:
//!
//! - [`StorageEngine`] is ONE target: it stores fixed-size stripe chunks
//!   keyed by `(object, stripe index)` and knows nothing about striping,
//!   routing, or other targets. [`MemEngine`] is the in-memory
//!   implementation (the simulator's model); `dufs-store` provides the
//!   durable file-backed one and a networked server per target.
//! - [`stripes`] splits a byte range at stripe boundaries. The networked
//!   `StoreClient` in `dufs-store` places each stripe on a target;
//!   [`write_at`], [`read_at`] (which zero-fills holes, **directly into a
//!   caller-provided buffer**) and [`truncate_at`] keep every stripe of an
//!   object on one engine, as [`ParallelFs`](crate::ParallelFs) does.
//!
//! Logical object *size* deliberately lives above this layer (in DUFS the
//! paper keeps it in the metadata service): an engine only reports the
//! highest stripe it holds ([`StorageEngine::last_stripe`]), from which the
//! written extent — but not truncate-up holes — can be reconstructed.

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;

/// One storage target: fixed-size stripe chunks keyed by `(object, stripe)`.
///
/// `within`/chunk offsets are bytes inside one stripe chunk, so they fit in
/// `u32` for any practical stripe size. A chunk may be shorter than the
/// stripe size (tail stripe, or sparsely written); bytes past a chunk's
/// length read as absent, and the layer above turns absence into zeros.
pub trait StorageEngine: Send {
    /// Write `data` into stripe `stripe` of `obj` at byte `within` the
    /// chunk, extending the chunk (zero-filling any gap) as needed.
    fn write(&mut self, obj: u128, stripe: u64, within: u32, data: &[u8]) -> io::Result<()>;

    /// Copy chunk bytes starting at `within` into the front of `out`.
    /// Returns how many bytes were filled — 0 when the chunk is missing or
    /// shorter than `within`. Bytes of `out` beyond the return value are
    /// zeroed up to the chunk's logical extent and untouched past it; the
    /// caller pre-zeroes (or tracks) the remainder.
    fn read(&mut self, obj: u128, stripe: u64, within: u32, out: &mut [u8]) -> io::Result<usize>;

    /// Drop every stripe of `obj` with index `>= keep_stripes`; when `trim`
    /// is `Some((stripe, len))`, additionally cut that chunk to `len` bytes.
    fn truncate(
        &mut self,
        obj: u128,
        keep_stripes: u64,
        trim: Option<(u64, u32)>,
    ) -> io::Result<()>;

    /// Remove every stripe of `obj`. Returns whether anything was stored.
    fn delete(&mut self, obj: u128) -> io::Result<bool>;

    /// The highest stripe held for `obj` and that chunk's length, if any.
    /// With fixed-size stripes this determines the written extent.
    fn last_stripe(&self, obj: u128) -> Option<(u64, u32)>;

    /// Total chunk bytes stored (load-balance accounting).
    fn bytes_stored(&self) -> u64;

    /// Make every acknowledged write durable. No-op for volatile engines.
    fn sync(&mut self) -> io::Result<()>;
}

/// In-memory [`StorageEngine`]: one `BTreeMap` of chunks. This is the
/// engine under the simulator's [`ParallelFs`](crate::ParallelFs) and the
/// volatile baseline the durable file engine is differential-tested
/// against.
#[derive(Debug, Clone, Default)]
pub struct MemEngine {
    chunks: BTreeMap<(u128, u64), Vec<u8>>,
    bytes: u64,
}

impl MemEngine {
    /// A fresh, empty target.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageEngine for MemEngine {
    fn write(&mut self, obj: u128, stripe: u64, within: u32, data: &[u8]) -> io::Result<()> {
        let chunk = self.chunks.entry((obj, stripe)).or_default();
        let within = within as usize;
        let end = within + data.len();
        self.bytes += end.saturating_sub(chunk.len()) as u64;
        if chunk.len() < end {
            chunk.resize(end, 0);
        }
        chunk[within..end].copy_from_slice(data);
        Ok(())
    }

    fn read(&mut self, obj: u128, stripe: u64, within: u32, out: &mut [u8]) -> io::Result<usize> {
        let Some(chunk) = self.chunks.get(&(obj, stripe)) else { return Ok(0) };
        let within = within as usize;
        if within >= chunk.len() {
            return Ok(0);
        }
        let have = (chunk.len() - within).min(out.len());
        out[..have].copy_from_slice(&chunk[within..within + have]);
        Ok(have)
    }

    fn truncate(
        &mut self,
        obj: u128,
        keep_stripes: u64,
        trim: Option<(u64, u32)>,
    ) -> io::Result<()> {
        let doomed: Vec<(u128, u64)> =
            self.chunks.range((obj, keep_stripes)..=(obj, u64::MAX)).map(|(&k, _)| k).collect();
        for k in doomed {
            if let Some(c) = self.chunks.remove(&k) {
                self.bytes -= c.len() as u64;
            }
        }
        if let Some((stripe, len)) = trim {
            if let Some(c) = self.chunks.get_mut(&(obj, stripe)) {
                if c.len() > len as usize {
                    self.bytes -= (c.len() - len as usize) as u64;
                    c.truncate(len as usize);
                }
            }
        }
        Ok(())
    }

    fn delete(&mut self, obj: u128) -> io::Result<bool> {
        let doomed: Vec<(u128, u64)> =
            self.chunks.range((obj, 0)..=(obj, u64::MAX)).map(|(&k, _)| k).collect();
        let existed = !doomed.is_empty();
        for k in doomed {
            if let Some(c) = self.chunks.remove(&k) {
                self.bytes -= c.len() as u64;
            }
        }
        Ok(existed)
    }

    fn last_stripe(&self, obj: u128) -> Option<(u64, u32)> {
        self.chunks
            .range((obj, 0)..=(obj, u64::MAX))
            .next_back()
            .map(|(&(_, s), c)| (s, c.len() as u32))
    }

    fn bytes_stored(&self) -> u64 {
        self.bytes
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One past the last byte of `[at, at + len)`, or `None` when the range
/// ends past `u64::MAX`. Every data path refuses such a range where it
/// enters, so [`stripes`] never sees one.
pub fn range_end(at: u64, len: usize) -> Option<u64> {
    at.checked_add(len as u64)
}

/// `[at, at + len)` split at `ss`-byte stripe boundaries: `(stripe,
/// within, range)` per stripe touched, in order — the offset in that
/// stripe's chunk, and the part of a `len`-byte buffer landing there.
/// Which target holds a stripe is the caller's placement. The range must
/// end within `u64` (see [`range_end`]).
pub fn stripes(ss: usize, at: u64, len: usize) -> impl Iterator<Item = (u64, u32, Range<usize>)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let abs = at + pos as u64;
        let within = abs % ss as u64;
        let take = (ss - within as usize).min(len - pos);
        pos += take;
        (take > 0).then(|| (abs / ss as u64, within as u32, pos - take..pos))
    })
}

/// Write `data` at byte `offset` of `obj`, split into `ss`-byte stripe
/// chunks of one engine.
pub fn write_at(
    engine: &mut impl StorageEngine,
    ss: usize,
    obj: u128,
    offset: u64,
    data: &[u8],
) -> io::Result<()> {
    for (stripe, within, range) in stripes(ss, offset, data.len()) {
        engine.write(obj, stripe, within, &data[range])?;
    }
    Ok(())
}

/// Read `out.len()` bytes at byte `offset` of `obj` **into `out`** — no
/// intermediate allocation. Byte ranges the engine does not hold (holes,
/// and anything past the written extent) are zero-filled; clamping the
/// read to a logical size is the caller's job, since size is metadata.
pub fn read_at(
    engine: &mut impl StorageEngine,
    ss: usize,
    obj: u128,
    offset: u64,
    out: &mut [u8],
) -> io::Result<()> {
    for (stripe, within, range) in stripes(ss, offset, out.len()) {
        let dst = &mut out[range];
        let have = engine.read(obj, stripe, within, dst)?;
        dst[have..].fill(0);
    }
    Ok(())
}

/// Cut `obj`'s stored data down to `new_size` bytes: drop every stripe
/// past it and trim the one it ends in. Growing is a metadata change and
/// stores nothing.
pub fn truncate_at(
    engine: &mut impl StorageEngine,
    ss: usize,
    obj: u128,
    new_size: u64,
) -> io::Result<()> {
    let ss = ss as u64;
    let trim = (!new_size.is_multiple_of(ss)).then(|| (new_size / ss, (new_size % ss) as u32));
    engine.truncate(obj, new_size.div_ceil(ss), trim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_round_trip_through_mem_engine() {
        let mut e = MemEngine::new();
        e.write(7, 0, 2, b"abc").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(e.read(7, 0, 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"\0\0abc");
        assert_eq!(e.last_stripe(7), Some((0, 5)));
        assert_eq!(e.bytes_stored(), 5);
    }

    #[test]
    fn read_at_zero_fills_holes() {
        let mut e = MemEngine::new();
        write_at(&mut e, 8, 1, 20, b"xy").unwrap();
        let mut buf = vec![0xAAu8; 22];
        read_at(&mut e, 8, 1, 0, &mut buf).unwrap();
        assert_eq!(&buf[..20], &[0u8; 20]);
        assert_eq!(&buf[20..], b"xy");
        assert_eq!(e.last_stripe(1), Some((2, 6)));
    }

    #[test]
    fn truncate_at_trims_the_final_stripe() {
        let mut e = MemEngine::new();
        write_at(&mut e, 8, 1, 0, &[7u8; 20]).unwrap(); // stripes 0, 1, 2
        truncate_at(&mut e, 8, 1, 10).unwrap();
        assert_eq!(e.last_stripe(1), Some((1, 2)));
        assert_eq!(e.bytes_stored(), 10);
        let mut buf = vec![0u8; 20];
        read_at(&mut e, 8, 1, 0, &mut buf).unwrap();
        assert_eq!(&buf[..10], &[7u8; 10]);
        assert_eq!(&buf[10..], &[0u8; 10]);
        truncate_at(&mut e, 8, 1, 8).unwrap();
        assert_eq!(e.last_stripe(1), Some((0, 8)));
        truncate_at(&mut e, 8, 1, 0).unwrap();
        assert_eq!(e.last_stripe(1), None);
    }

    #[test]
    fn delete_takes_one_object_and_reports_existence() {
        let mut e = MemEngine::new();
        write_at(&mut e, 8, 1, 0, &[1u8; 32]).unwrap();
        write_at(&mut e, 8, 2, 0, b"two").unwrap();
        assert!(e.delete(1).unwrap());
        assert!(!e.delete(1).unwrap());
        assert_eq!(e.last_stripe(1), None);
        assert_eq!(e.last_stripe(2), Some((0, 3)));
        assert_eq!(e.bytes_stored(), 3);
    }

    #[test]
    fn a_range_ending_past_u64_max_has_no_end() {
        assert_eq!(range_end(u64::MAX - 4, 4), Some(u64::MAX));
        assert_eq!(range_end(u64::MAX - 1, 4), None);
        assert_eq!(range_end(u64::MAX, 0), Some(u64::MAX));
    }
}
