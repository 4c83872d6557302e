//! Striped object store — the OSS/IO-server half of a parallel filesystem.
//!
//! File contents are striped round-robin across `n_targets` object storage
//! targets in fixed-size stripes, the way Lustre stripes file objects across
//! OSTs and PVFS2 across IO servers. Besides storing real bytes (DUFS
//! `read`/`write` pass through here), the store reports which targets a
//! given byte range touches so the simulator can charge per-target service
//! time and model parallel bandwidth.
//!
//! Storage itself lives behind the [`StorageEngine`](crate::StorageEngine)
//! trait: this type is a thin adapter over a
//! [`StripedStore<MemEngine>`](crate::StripedStore) that adds object-ID
//! allocation and logical-size tracking (size is metadata — the engines
//! only know which stripes exist). The durable file-backed engine in
//! `dufs-store` implements the same `StorageEngine` trait; the networked
//! `StoreClient` there does not go through `StripedStore` — it splits byte
//! ranges into per-target stripe requests itself (`StoreClient::chunks`).

use std::collections::BTreeMap;

use crate::engine::{MemEngine, StripedStore};

/// Error for object-store operations on unknown objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSuchObject;

impl std::fmt::Display for NoSuchObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("no such object")
    }
}
impl std::error::Error for NoSuchObject {}

/// Identifies a data object (one per regular file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A striped object store with `n_targets` storage targets.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    store: StripedStore<MemEngine>,
    next_id: u64,
    /// Logical sizes.
    sizes: BTreeMap<ObjectId, u64>,
}

impl ObjectStore {
    /// A store with `n_targets` targets and `stripe_size`-byte stripes.
    pub fn new(n_targets: usize, stripe_size: usize) -> Self {
        ObjectStore {
            store: StripedStore::in_memory(n_targets, stripe_size),
            next_id: 1,
            sizes: BTreeMap::new(),
        }
    }

    /// Lustre-flavoured defaults: 1 MiB stripes.
    pub fn with_targets(n_targets: usize) -> Self {
        Self::new(n_targets, 1 << 20)
    }

    /// Number of storage targets.
    pub fn n_targets(&self) -> usize {
        self.store.n_targets()
    }

    /// Allocate a fresh, empty object.
    pub fn create(&mut self) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.sizes.insert(id, 0);
        id
    }

    /// Logical size of an object (`None` if it does not exist).
    pub fn size(&self, id: ObjectId) -> Option<u64> {
        self.sizes.get(&id).copied()
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.sizes.len()
    }

    /// Write `data` at `offset`, extending the object as needed. Returns the
    /// new logical size. `Err` if the object does not exist.
    pub fn write(&mut self, id: ObjectId, offset: u64, data: &[u8]) -> Result<u64, NoSuchObject> {
        if !self.sizes.contains_key(&id) {
            return Err(NoSuchObject);
        }
        self.store.write(id.0 as u128, offset, data).expect("mem engine is infallible");
        let new_end = offset + data.len() as u64;
        let size = self.sizes.get_mut(&id).expect("checked");
        if new_end > *size {
            *size = new_end;
        }
        Ok(*size)
    }

    /// Read into the front of `buf`, clamped at EOF. Returns how many bytes
    /// were filled; holes read as zeros. This is the allocation-free path —
    /// the caller brings (and reuses) the buffer.
    pub fn read_into(
        &mut self,
        id: ObjectId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize, NoSuchObject> {
        let size = *self.sizes.get(&id).ok_or(NoSuchObject)?;
        if offset >= size {
            return Ok(0);
        }
        let len = buf.len().min((size - offset) as usize);
        self.store.read_into(id.0 as u128, offset, &mut buf[..len]).expect("mem engine");
        Ok(len)
    }

    /// Read up to `len` bytes at `offset`, allocating the result. Short
    /// reads happen at EOF; holes read as zeros. Prefer [`Self::read_into`]
    /// when a reusable buffer is available.
    pub fn read(&mut self, id: ObjectId, offset: u64, len: usize) -> Result<Vec<u8>, NoSuchObject> {
        let size = *self.sizes.get(&id).ok_or(NoSuchObject)?;
        let len = len.min(size.saturating_sub(offset) as usize);
        let mut out = vec![0u8; len];
        let filled = self.read_into(id, offset, &mut out)?;
        debug_assert_eq!(filled, len);
        Ok(out)
    }

    /// Truncate to `new_size` (shrink or extend with a hole).
    pub fn truncate(&mut self, id: ObjectId, new_size: u64) -> Result<(), NoSuchObject> {
        let size = *self.sizes.get(&id).ok_or(NoSuchObject)?;
        if new_size < size {
            self.store.truncate_data(id.0 as u128, new_size).expect("mem engine");
        }
        self.sizes.insert(id, new_size);
        Ok(())
    }

    /// Delete an object and free its stripes.
    pub fn delete(&mut self, id: ObjectId) -> Result<(), NoSuchObject> {
        self.sizes.remove(&id).ok_or(NoSuchObject)?;
        self.store.delete(id.0 as u128).expect("mem engine");
        Ok(())
    }

    /// Bytes stored per target — for load-balance assertions.
    pub fn bytes_per_target(&self) -> Vec<usize> {
        self.store.bytes_per_target()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_roundtrip() {
        let mut s = ObjectStore::new(4, 8);
        let id = s.create();
        assert_eq!(s.write(id, 0, b"hello world, striped!").unwrap(), 21);
        assert_eq!(s.read(id, 0, 64).unwrap(), b"hello world, striped!");
        assert_eq!(s.read(id, 6, 5).unwrap(), b"world");
        assert_eq!(s.size(id), Some(21));
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut s = ObjectStore::new(2, 8);
        let id = s.create();
        s.write(id, 0, b"abc").unwrap();
        assert_eq!(s.read(id, 2, 10).unwrap(), b"c");
        assert_eq!(s.read(id, 3, 10).unwrap(), b"");
        assert_eq!(s.read(id, 100, 10).unwrap(), b"");
    }

    #[test]
    fn read_into_reuses_caller_buffer() {
        let mut s = ObjectStore::new(2, 8);
        let id = s.create();
        s.write(id, 0, b"abcdefghij").unwrap();
        let mut buf = [0xFFu8; 16];
        assert_eq!(s.read_into(id, 0, &mut buf).unwrap(), 10);
        assert_eq!(&buf[..10], b"abcdefghij");
        assert_eq!(s.read_into(id, 4, &mut buf[..3]).unwrap(), 3);
        assert_eq!(&buf[..3], b"efg");
        assert_eq!(s.read_into(id, 100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sparse_writes_read_zeros() {
        let mut s = ObjectStore::new(2, 8);
        let id = s.create();
        s.write(id, 20, b"xy").unwrap();
        assert_eq!(s.size(id), Some(22));
        let data = s.read(id, 0, 22).unwrap();
        assert_eq!(&data[..20], &[0u8; 20]);
        assert_eq!(&data[20..], b"xy");
    }

    #[test]
    fn striping_distributes_across_targets() {
        let mut s = ObjectStore::new(4, 8);
        let id = s.create();
        s.write(id, 0, &[1u8; 64]).unwrap(); // 8 stripes over 4 targets
        let per = s.bytes_per_target();
        assert_eq!(per, vec![16, 16, 16, 16]);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = ObjectStore::new(2, 8);
        let id = s.create();
        s.write(id, 0, &[7u8; 20]).unwrap();
        s.truncate(id, 10).unwrap();
        assert_eq!(s.size(id), Some(10));
        assert_eq!(s.read(id, 0, 20).unwrap(), vec![7u8; 10]);
        s.truncate(id, 15).unwrap();
        let data = s.read(id, 0, 20).unwrap();
        assert_eq!(&data[..10], &[7u8; 10]);
        assert_eq!(&data[10..], &[0u8; 5]);
    }

    #[test]
    fn truncate_then_write_does_not_resurrect_old_bytes() {
        let mut s = ObjectStore::new(2, 8);
        let id = s.create();
        s.write(id, 0, &[9u8; 16]).unwrap();
        s.truncate(id, 4).unwrap();
        s.truncate(id, 16).unwrap();
        assert_eq!(s.read(id, 0, 16).unwrap(), [vec![9u8; 4], vec![0u8; 12]].concat());
    }

    #[test]
    fn delete_frees_everything() {
        let mut s = ObjectStore::new(2, 8);
        let id = s.create();
        s.write(id, 0, &[1u8; 32]).unwrap();
        s.delete(id).unwrap();
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.bytes_per_target(), vec![0, 0]);
        assert!(s.read(id, 0, 1).is_err());
        assert!(s.delete(id).is_err());
    }

    #[test]
    fn ids_are_unique() {
        let mut s = ObjectStore::new(1, 8);
        let a = s.create();
        let b = s.create();
        assert_ne!(a, b);
    }
}
