//! Offline stand-in for the `bytes` crate.
//!
//! The vendored registry is unreachable in this environment, so the small
//! slice of the `bytes` API this workspace uses is reimplemented here:
//! cheaply clonable immutable buffers ([`Bytes`]), an append-only builder
//! ([`BytesMut`]), and little-endian cursor traits ([`Buf`], [`BufMut`]).
//! Semantics match the real crate for the operations provided; O(1)
//! zero-copy slicing is not needed by this workspace and is not provided.

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes { data: Arc::from(&[][..]) }
    }

    /// A buffer over static data.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes { data: Arc::from(data) }
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: Arc::from(data) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v.into_boxed_slice()) }
    }
}

/// Adopt an already-shared buffer as is. Not in the real crate (whose
/// `BytesMut::freeze` is free); here `freeze` copies, so a caller that
/// knows its final size fills an `Arc<[u8]>` in place and hands it over.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Self {
        Bytes { data }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the builder is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert to an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write-cursor operations (little-endian variants only — all this
/// workspace encodes).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Fill a fixed buffer front to back. Writing past its end panics, as in
/// the real crate.
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        let (head, rest) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = rest;
    }
}

/// Read-cursor operations over a shrinking slice (little-endian variants
/// only). Reads past the end panic, as in the real crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// First `n` bytes of the remainder.
    fn take_bytes(&mut self, n: usize) -> Vec<u8>;

    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_bytes(2).try_into().unwrap())
    }

    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_bytes(4).try_into().unwrap())
    }

    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn take_bytes(&mut self, n: usize) -> Vec<u8> {
        let (head, tail) = self.split_at(n);
        *self = tail;
        head.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_fields() {
        let mut b = BytesMut::with_capacity(32);
        b.put_slice(b"MAGIC");
        b.put_u8(7);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xDEADBEEF);
        b.put_u64_le(0x0123_4567_89AB_CDEF);
        let frozen = b.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.remaining(), 5 + 1 + 2 + 4 + 8);
        assert_eq!(&r[..5], b"MAGIC");
        r.advance(5);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_equality_and_clone_share() {
        let a = Bytes::copy_from_slice(b"hello");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert_eq!(&a[..], b"hello");
        assert_eq!(Bytes::from(vec![1, 2, 3]), Bytes::copy_from_slice(&[1, 2, 3]));
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"x").len(), 1);
    }
}
