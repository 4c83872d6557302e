//! The per-target storage-engine abstraction under every striped store.
//!
//! A parallel filesystem's data path is a client-side striping layer over N
//! independent storage targets (Lustre OSTs, PVFS2 IO servers). This module
//! separates the two concerns so they can be recombined freely:
//!
//! - [`StorageEngine`] is ONE target: it stores fixed-size stripe chunks
//!   keyed by `(object, stripe index)` and knows nothing about striping,
//!   routing, or other targets. [`MemEngine`] is the in-memory
//!   implementation (the simulator's model); `dufs-store` provides the
//!   durable file-backed one and a networked server per target.
//! - [`StripedStore`] is the striping layer, generic over the engine: it
//!   splits byte ranges into stripe chunks, places stripe `s` on target
//!   `s mod N` (round-robin, the way Lustre stripes file objects across
//!   OSTs), and reads **directly into a caller-provided buffer** — one
//!   allocation-free assembly path shared by every engine.
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

    /// Objects with at least one stripe on this target, ascending.
    fn objects(&self) -> Vec<u128>;
}

/// In-memory [`StorageEngine`]: one `BTreeMap` of chunks. This is the
/// engine under the simulator's [`ObjectStore`](crate::ObjectStore) and the
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

    fn objects(&self) -> Vec<u128> {
        let mut out: Vec<u128> = self.chunks.keys().map(|&(o, _)| o).collect();
        out.dedup();
        out
    }
}

/// `[at, at + len)` split at `ss`-byte stripe boundaries: `(stripe,
/// within, range)` per stripe touched, in order — the offset in that
/// stripe's chunk, and the part of a `len`-byte buffer landing there.
/// Which target holds a stripe is the caller's placement.
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

/// The striping layer over `N` engines: stripe `s` lives on target
/// `s mod N`. Pure placement + chunk arithmetic; all storage behaviour
/// comes from the engine.
#[derive(Debug, Clone)]
pub struct StripedStore<E> {
    stripe_size: usize,
    engines: Vec<E>,
}

impl<E: StorageEngine> StripedStore<E> {
    /// A store striping over the given targets with `stripe_size`-byte
    /// stripes.
    pub fn new(engines: Vec<E>, stripe_size: usize) -> Self {
        assert!(!engines.is_empty(), "need at least one storage target");
        assert!(stripe_size >= 1, "stripe size must be positive");
        StripedStore { stripe_size, engines }
    }

    /// Number of storage targets.
    pub fn n_targets(&self) -> usize {
        self.engines.len()
    }

    /// The configured stripe size in bytes.
    pub fn stripe_size(&self) -> usize {
        self.stripe_size
    }

    /// Which target stripe `stripe` lives on.
    pub fn target_of(&self, stripe: u64) -> usize {
        (stripe % self.engines.len() as u64) as usize
    }

    /// Direct access to one target's engine (tests, digests, sync).
    pub fn engine(&mut self, target: usize) -> &mut E {
        &mut self.engines[target]
    }

    /// Write `data` at byte `offset` of `obj`, splitting on stripe
    /// boundaries and placing each chunk round-robin.
    pub fn write(&mut self, obj: u128, offset: u64, data: &[u8]) -> io::Result<()> {
        for (stripe, within, range) in stripes(self.stripe_size, offset, data.len()) {
            let t = self.target_of(stripe);
            self.engines[t].write(obj, stripe, within, &data[range])?;
        }
        Ok(())
    }

    /// Read `out.len()` bytes at `offset` of `obj` **into `out`** — no
    /// intermediate allocation. Byte ranges no engine holds (holes, and
    /// anything past the written extent) are zero-filled; clamping the read
    /// to a logical size is the caller's job, since size is metadata this
    /// layer does not keep.
    pub fn read_into(&mut self, obj: u128, offset: u64, out: &mut [u8]) -> io::Result<()> {
        for (stripe, within, range) in stripes(self.stripe_size, offset, out.len()) {
            let t = self.target_of(stripe);
            let dst = &mut out[range];
            let have = self.engines[t].read(obj, stripe, within, dst)?;
            // Anything the chunk did not cover reads as zeros.
            for b in &mut dst[have..] {
                *b = 0;
            }
        }
        Ok(())
    }

    /// Cut `obj`'s stored data down to `new_size` bytes (a pure data-side
    /// truncate: growing is a metadata change and stores nothing).
    pub fn truncate_data(&mut self, obj: u128, new_size: u64) -> io::Result<()> {
        let ss = self.stripe_size as u64;
        let keep_stripes = new_size.div_ceil(ss);
        let trim = if !new_size.is_multiple_of(ss) && new_size > 0 {
            Some((new_size / ss, (new_size % ss) as u32))
        } else {
            None
        };
        let n = self.engines.len() as u64;
        for (t, e) in self.engines.iter_mut().enumerate() {
            // `trim` applies only to the engine owning the final stripe.
            let local_trim = trim.filter(|&(s, _)| (s % n) as usize == t);
            e.truncate(obj, keep_stripes, local_trim)?;
        }
        Ok(())
    }

    /// Drop every stripe of `obj` everywhere. Returns whether any target
    /// stored it.
    pub fn delete(&mut self, obj: u128) -> io::Result<bool> {
        let mut existed = false;
        for e in &mut self.engines {
            existed |= e.delete(obj)?;
        }
        Ok(existed)
    }

    /// The written extent of `obj`: one past the last stored byte, 0 when
    /// nothing is stored. Truncate-up holes beyond the last write are not
    /// visible here — logical size is metadata.
    pub fn written_extent(&self, obj: u128) -> u64 {
        let ss = self.stripe_size as u64;
        self.engines
            .iter()
            .filter_map(|e| e.last_stripe(obj))
            .map(|(s, len)| s * ss + len as u64)
            .max()
            .unwrap_or(0)
    }

    /// Bytes stored per target — for load-balance assertions.
    pub fn bytes_per_target(&self) -> Vec<usize> {
        self.engines.iter().map(|e| e.bytes_stored() as usize).collect()
    }

    /// Sync every target.
    pub fn sync(&mut self) -> io::Result<()> {
        for e in &mut self.engines {
            e.sync()?;
        }
        Ok(())
    }
}

impl StripedStore<MemEngine> {
    /// A purely in-memory striped store with `n_targets` targets.
    pub fn in_memory(n_targets: usize, stripe_size: usize) -> Self {
        Self::new((0..n_targets).map(|_| MemEngine::new()).collect(), stripe_size)
    }
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
    fn read_into_zero_fills_holes() {
        let mut s = StripedStore::in_memory(2, 8);
        s.write(1, 20, b"xy").unwrap();
        let mut buf = vec![0xAAu8; 22];
        s.read_into(1, 0, &mut buf).unwrap();
        assert_eq!(&buf[..20], &[0u8; 20]);
        assert_eq!(&buf[20..], b"xy");
        assert_eq!(s.written_extent(1), 22);
    }

    #[test]
    fn truncate_trims_final_stripe_on_owner_only() {
        let mut s = StripedStore::in_memory(2, 8);
        s.write(1, 0, &[7u8; 20]).unwrap(); // stripes 0,1,2 on targets 0,1,0
        s.truncate_data(1, 10).unwrap();
        assert_eq!(s.written_extent(1), 10);
        let mut buf = vec![0u8; 20];
        s.read_into(1, 0, &mut buf).unwrap();
        assert_eq!(&buf[..10], &[7u8; 10]);
        assert_eq!(&buf[10..], &[0u8; 10]);
    }

    #[test]
    fn delete_reports_existence() {
        let mut s = StripedStore::in_memory(2, 8);
        s.write(1, 0, &[1u8; 32]).unwrap();
        assert!(s.delete(1).unwrap());
        assert!(!s.delete(1).unwrap());
        assert_eq!(s.bytes_per_target(), vec![0, 0]);
    }

    #[test]
    fn engine_objects_enumerates_distinct() {
        let mut e = MemEngine::new();
        e.write(3, 0, 0, b"a").unwrap();
        e.write(3, 5, 0, b"b").unwrap();
        e.write(9, 0, 0, b"c").unwrap();
        assert_eq!(e.objects(), vec![3, 9]);
    }
}
