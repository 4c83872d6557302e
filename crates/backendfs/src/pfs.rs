//! A complete simulated parallel filesystem instance: namespace + file
//! bytes + timing profile.
//!
//! One [`ParallelFs`] corresponds to one mounted filesystem instance in the
//! paper's testbed (the cluster exported *multiple instances* of Lustre and
//! PVFS2, which DUFS merges). The functional API below is what both the
//! Basic-Lustre/PVFS2 baselines and DUFS's back-end storage layer call; the
//! simulator wraps each call with the profile's service time on the MDS
//! queue. A file's size is its namespace attribute; its bytes are stripe
//! chunks of one [`MemEngine`], keyed by its [`ObjectId`], so a sparse
//! write far into a file stores only the chunk it lands in. Striping over
//! storage targets is the client's data path (`dufs-store`'s
//! `StoreClient`), which the simulator does not time.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::attr::FileAttr;
use crate::engine::{range_end, read_at, truncate_at, write_at, MemEngine, StorageEngine};
use crate::error::{FsError, FsResult};
use crate::namespace::{Namespace, ObjectId};
use crate::timing::PfsTimingProfile;

/// Stripe chunk size of a file's bytes.
const STRIPE: usize = 1 << 20;

/// One mounted parallel-filesystem instance.
#[derive(Debug)]
pub struct ParallelFs {
    ns: Namespace,
    /// Every file's bytes, keyed by its object.
    data: MemEngine,
    /// Objects minted so far: the next file's object is `created + 1`.
    created: u64,
    /// Live files.
    objects: u64,
    profile: PfsTimingProfile,
}

/// A cheaply clonable, thread-safe handle to a [`ParallelFs`] — the shape
/// the threaded DUFS runtime consumes (one mount shared by many client
/// threads, like a kernel mount point).
pub type SharedPfs = Arc<Mutex<ParallelFs>>;

impl ParallelFs {
    /// An empty filesystem with the given profile.
    pub fn new(profile: PfsTimingProfile) -> Self {
        ParallelFs { ns: Namespace::new(), data: MemEngine::new(), created: 0, objects: 0, profile }
    }

    /// Lustre-flavoured instance.
    pub fn lustre() -> Self {
        Self::new(PfsTimingProfile::lustre())
    }

    /// PVFS2-flavoured instance.
    pub fn pvfs2() -> Self {
        Self::new(PfsTimingProfile::pvfs2())
    }

    /// Wrap into a shared handle.
    pub fn into_shared(self) -> SharedPfs {
        Arc::new(Mutex::new(self))
    }

    /// This instance's timing profile.
    pub fn profile(&self) -> &PfsTimingProfile {
        &self.profile
    }

    /// Direct namespace access (read-only helpers for tests/benches).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    // ------------------------------------------------------------------
    // Metadata operations
    // ------------------------------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: u32, now_ns: u64) -> FsResult<()> {
        self.ns.mkdir(path, mode, now_ns)
    }

    /// Create all missing ancestors of `path`.
    pub fn mkdir_all_parents(&mut self, path: &str, now_ns: u64) -> FsResult<()> {
        self.ns.mkdir_all_parents(path, now_ns)
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str, now_ns: u64) -> FsResult<()> {
        self.ns.rmdir(path, now_ns)
    }

    /// `creat(2)`: a namespace entry backed by a fresh data object.
    pub fn create(&mut self, path: &str, mode: u32, now_ns: u64) -> FsResult<()> {
        self.ns.create_file(path, mode, ObjectId(self.created + 1), now_ns)?;
        self.created += 1;
        self.objects += 1;
        Ok(())
    }

    /// `unlink(2)`: drop the entry and reap its object.
    pub fn unlink(&mut self, path: &str, now_ns: u64) -> FsResult<()> {
        if let Some(obj) = self.ns.unlink(path, now_ns)? {
            self.data.delete(obj.0 as u128).expect("MemEngine is infallible");
            self.objects -= 1;
        }
        Ok(())
    }

    /// `stat(2)`.
    pub fn stat(&self, path: &str) -> FsResult<FileAttr> {
        self.ns.stat(path)
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.ns.exists(path)
    }

    /// `readdir(3)`.
    pub fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.ns.readdir(path)
    }

    /// `rename(2)`.
    pub fn rename(&mut self, from: &str, to: &str, now_ns: u64) -> FsResult<()> {
        self.ns.rename(from, to, now_ns)
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, path: &str, target: &str, now_ns: u64) -> FsResult<()> {
        self.ns.symlink(path, target, now_ns)
    }

    /// `readlink(2)`.
    pub fn readlink(&self, path: &str) -> FsResult<String> {
        self.ns.readlink(path)
    }

    /// `chmod(2)`.
    pub fn chmod(&mut self, path: &str, mode: u32, now_ns: u64) -> FsResult<()> {
        self.ns.chmod(path, mode, now_ns)
    }

    /// `access(2)` with an R/W/X bitmask.
    pub fn access(&self, path: &str, mask: u32) -> FsResult<bool> {
        Ok(self.ns.stat(path)?.allows(mask))
    }

    // ------------------------------------------------------------------
    // Data operations
    // ------------------------------------------------------------------

    /// `pwrite(2)`; updates size and mtime; returns bytes written. A range
    /// ending past `u64::MAX` is `Inval` and changes nothing.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8], now_ns: u64) -> FsResult<usize> {
        let obj = self.ns.object_of(path)?;
        let end = range_end(offset, data.len()).ok_or(FsError::Inval)?;
        let size = self.ns.stat(path)?.size.max(end);
        write_at(&mut self.data, STRIPE, obj.0 as u128, offset, data)
            .expect("MemEngine is infallible");
        self.ns.set_size(path, size, now_ns)?;
        Ok(data.len())
    }

    /// `pread(2)`, short at end of file, holes read as zeros; updates atime
    /// ("transparently updated when the physical file is accessed", paper
    /// §IV-D).
    pub fn read(&mut self, path: &str, offset: u64, len: usize, now_ns: u64) -> FsResult<Bytes> {
        let obj = self.ns.object_of(path)?;
        let size = self.ns.stat(path)?.size;
        let mut out = vec![0u8; len.min(size.saturating_sub(offset) as usize)];
        read_at(&mut self.data, STRIPE, obj.0 as u128, offset, &mut out)
            .expect("MemEngine is infallible");
        self.ns.touch_atime(path, now_ns)?;
        Ok(Bytes::from(out))
    }

    /// `truncate(2)`: cut the bytes past `new_size`; growing leaves a hole.
    pub fn truncate(&mut self, path: &str, new_size: u64, now_ns: u64) -> FsResult<()> {
        let obj = self.ns.object_of(path)?;
        truncate_at(&mut self.data, STRIPE, obj.0 as u128, new_size)
            .expect("MemEngine is infallible");
        self.ns.set_size(path, new_size, now_ns)
    }

    /// Total number of namespace entries (for sanity checks).
    pub fn entry_count(&self) -> usize {
        self.ns.len()
    }

    /// `utimens(2)`.
    pub fn set_times(
        &mut self,
        path: &str,
        atime_ns: u64,
        mtime_ns: u64,
        now_ns: u64,
    ) -> FsResult<()> {
        self.ns.set_times(path, atime_ns, mtime_ns, now_ns)
    }

    /// `statvfs(2)`-style usage summary of this mount.
    pub fn statvfs(&self) -> MountUsage {
        MountUsage {
            entries: self.ns.len() as u64,
            objects: self.objects,
            bytes_used: self.data.bytes_stored(),
        }
    }
}

/// Usage summary of one mount (the statvfs surface of the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MountUsage {
    /// Namespace entries (files + directories + symlinks).
    pub entries: u64,
    /// Live data objects (one per regular file).
    pub objects: u64,
    /// Bytes of file data stored.
    pub bytes_used: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::FileKind;

    /// A Lustre-flavoured mount holding one empty file at `/f`.
    fn with_file() -> ParallelFs {
        let mut fs = ParallelFs::lustre();
        fs.create("/f", 0o644, 1).unwrap();
        fs
    }

    fn read_all(fs: &mut ParallelFs, path: &str) -> Vec<u8> {
        fs.read(path, 0, usize::MAX, 0).unwrap().to_vec()
    }

    #[test]
    fn end_to_end_file_io() {
        let mut fs = ParallelFs::lustre();
        fs.mkdir("/dir", 0o755, 1).unwrap();
        fs.create("/dir/f", 0o644, 2).unwrap();
        assert_eq!(fs.write("/dir/f", 0, b"parallel bytes", 3).unwrap(), 14);
        assert_eq!(&fs.read("/dir/f", 0, 100, 4).unwrap()[..], b"parallel bytes");
        let st = fs.stat("/dir/f").unwrap();
        assert_eq!(st.size, 14);
        assert_eq!(st.kind, FileKind::File);
        assert_eq!(st.mtime_ns, 3);
        assert_eq!(st.atime_ns, 4);
        fs.truncate("/dir/f", 8, 5).unwrap();
        assert_eq!(&fs.read("/dir/f", 0, 100, 6).unwrap()[..], b"parallel");
        fs.unlink("/dir/f", 7).unwrap();
        assert_eq!(fs.read("/dir/f", 0, 1, 8).unwrap_err(), FsError::NoEnt);
    }

    #[test]
    fn create_failure_reaps_object() {
        let mut fs = ParallelFs::lustre();
        fs.create("/f", 0o644, 1).unwrap();
        assert_eq!(fs.create("/f", 0o644, 2).unwrap_err(), FsError::Exists);
        // Creating under a file (not a dir) also cleans up.
        assert_eq!(fs.create("/f/x", 0o644, 3).unwrap_err(), FsError::NotDir);
        assert_eq!(fs.statvfs().objects, 1);
        fs.unlink("/f", 4).unwrap();
        assert_eq!(fs.entry_count(), 0);
        assert_eq!(fs.statvfs().objects, 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut fs = with_file();
        assert_eq!(fs.write("/f", 0, b"hello world, striped!", 2).unwrap(), 21);
        assert_eq!(read_all(&mut fs, "/f"), b"hello world, striped!");
        assert_eq!(&fs.read("/f", 6, 5, 3).unwrap()[..], b"world");
        assert_eq!(fs.stat("/f").unwrap().size, 21);
    }

    #[test]
    fn read_past_end_of_file_is_short() {
        let mut fs = with_file();
        fs.write("/f", 0, b"abc", 2).unwrap();
        assert_eq!(&fs.read("/f", 2, 10, 3).unwrap()[..], b"c");
        assert_eq!(&fs.read("/f", 3, 10, 3).unwrap()[..], b"");
        assert_eq!(&fs.read("/f", 100, 10, 3).unwrap()[..], b"");
    }

    #[test]
    fn sparse_writes_read_zeros_and_store_only_what_was_written() {
        let mut fs = with_file();
        fs.write("/f", 20, b"xy", 2).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 22);
        assert_eq!(read_all(&mut fs, "/f"), [&[0u8; 20][..], b"xy"].concat());
        // A write 1 GiB in is one chunk, not a gigabyte.
        fs.write("/f", 1 << 30, b"far", 3).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, (1 << 30) + 3);
        assert_eq!(&fs.read("/f", (1 << 30) - 2, 8, 4).unwrap()[..], b"\0\0far");
        assert_eq!(fs.statvfs().bytes_used, 22 + 3);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut fs = with_file();
        fs.write("/f", 0, &[7u8; 20], 2).unwrap();
        fs.truncate("/f", 10, 3).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 10);
        assert_eq!(read_all(&mut fs, "/f"), [7u8; 10]);
        fs.truncate("/f", 15, 4).unwrap();
        assert_eq!(read_all(&mut fs, "/f"), [[7u8; 10].as_slice(), &[0u8; 5]].concat());
    }

    #[test]
    fn truncate_then_write_does_not_bring_cut_bytes_back() {
        let mut fs = with_file();
        fs.write("/f", 0, &[9u8; 16], 2).unwrap();
        fs.truncate("/f", 4, 3).unwrap();
        fs.write("/f", 12, b"end!", 4).unwrap();
        let want = [[9u8; 4].as_slice(), &[0u8; 8], b"end!"].concat();
        assert_eq!(read_all(&mut fs, "/f"), want);
    }

    #[test]
    fn unlink_frees_everything() {
        let mut fs = with_file();
        fs.write("/f", 0, &[1u8; 32], 2).unwrap();
        fs.write("/f", 3 << 20, b"far", 2).unwrap();
        assert_eq!(fs.statvfs().bytes_used, 35);
        fs.unlink("/f", 3).unwrap();
        let usage = fs.statvfs();
        assert_eq!((usage.objects, usage.bytes_used), (0, 0));
        assert_eq!(fs.read("/f", 0, 1, 4).unwrap_err(), FsError::NoEnt);
        assert_eq!(fs.unlink("/f", 5).unwrap_err(), FsError::NoEnt);
        // A file created at the same path starts empty.
        fs.create("/f", 0o644, 6).unwrap();
        assert_eq!(read_all(&mut fs, "/f"), b"");
    }

    #[test]
    fn each_file_has_its_own_object() {
        let mut fs = with_file();
        fs.create("/g", 0o644, 2).unwrap();
        assert_ne!(fs.namespace().object_of("/f"), fs.namespace().object_of("/g"));
        fs.write("/f", 0, b"eff", 3).unwrap();
        fs.write("/g", 1, b"gee", 3).unwrap();
        assert_eq!(read_all(&mut fs, "/f"), b"eff");
        assert_eq!(read_all(&mut fs, "/g"), b"\0gee");
        fs.unlink("/f", 4).unwrap();
        assert_eq!(read_all(&mut fs, "/g"), b"\0gee");
        assert_eq!(fs.statvfs().objects, 1);
    }

    #[test]
    fn a_write_ending_past_u64_max_is_refused_and_changes_nothing() {
        let mut fs = with_file();
        fs.write("/f", 0, b"head", 2).unwrap();
        assert_eq!(fs.write("/f", u64::MAX - 1, b"abcd", 3).unwrap_err(), FsError::Inval);
        assert_eq!(read_all(&mut fs, "/f"), b"head");
        let st = fs.stat("/f").unwrap();
        assert_eq!((st.size, st.mtime_ns), (4, 2));
        assert_eq!(fs.statvfs().bytes_used, 4);
        // A range ending exactly at `u64::MAX` is still a file's range.
        assert_eq!(fs.write("/f", u64::MAX - 4, b"tail", 4).unwrap(), 4);
        assert_eq!(&fs.read("/f", u64::MAX - 4, 8, 5).unwrap()[..], b"tail");
        assert_eq!(&fs.read("/f", 0, 4, 5).unwrap()[..], b"head");
    }

    #[test]
    fn access_checks_mode() {
        let mut fs = ParallelFs::lustre();
        fs.create("/f", 0o444, 1).unwrap();
        assert!(fs.access("/f", 4).unwrap());
        assert!(!fs.access("/f", 2).unwrap());
        assert_eq!(fs.access("/nope", 4).unwrap_err(), FsError::NoEnt);
    }

    #[test]
    fn flavours_have_distinct_profiles() {
        assert_eq!(ParallelFs::lustre().profile().name, "lustre");
        assert_eq!(ParallelFs::pvfs2().profile().name, "pvfs2");
    }

    #[test]
    fn shared_handle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedPfs>();
    }
}
