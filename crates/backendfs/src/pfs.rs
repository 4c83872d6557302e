//! A complete simulated parallel filesystem instance: namespace + striped
//! object store + timing profile.
//!
//! One [`ParallelFs`] corresponds to one mounted filesystem instance in the
//! paper's testbed (the cluster exported *multiple instances* of Lustre and
//! PVFS2, which DUFS merges). The functional API below is what both the
//! Basic-Lustre/PVFS2 baselines and DUFS's back-end storage layer call; the
//! simulator wraps each call with the profile's service time on the MDS/OSS
//! queues.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::attr::FileAttr;
#[cfg(test)]
use crate::attr::FileKind;
use crate::error::{FsError, FsResult};
use crate::namespace::Namespace;
use crate::object::ObjectStore;
use crate::timing::PfsTimingProfile;

/// One mounted parallel-filesystem instance.
#[derive(Debug)]
pub struct ParallelFs {
    ns: Namespace,
    objects: ObjectStore,
    profile: PfsTimingProfile,
}

/// A cheaply clonable, thread-safe handle to a [`ParallelFs`] — the shape
/// the threaded DUFS runtime consumes (one mount shared by many client
/// threads, like a kernel mount point).
pub type SharedPfs = Arc<Mutex<ParallelFs>>;

impl ParallelFs {
    /// A filesystem with the given profile and `n_oss` object storage
    /// targets.
    pub fn new(profile: PfsTimingProfile, n_oss: usize) -> Self {
        ParallelFs { ns: Namespace::new(), objects: ObjectStore::with_targets(n_oss), profile }
    }

    /// Lustre-flavoured instance with 4 OSTs.
    pub fn lustre() -> Self {
        Self::new(PfsTimingProfile::lustre(), 4)
    }

    /// PVFS2-flavoured instance with 4 IO servers.
    pub fn pvfs2() -> Self {
        Self::new(PfsTimingProfile::pvfs2(), 4)
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

    /// Number of object-store targets.
    pub fn n_oss(&self) -> usize {
        self.objects.n_targets()
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

    /// `creat(2)`: allocate a data object and a namespace entry.
    pub fn create(&mut self, path: &str, mode: u32, now_ns: u64) -> FsResult<()> {
        if self.ns.exists(path) {
            return Err(FsError::Exists);
        }
        let obj = self.objects.create();
        match self.ns.create_file(path, mode, obj, now_ns) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = self.objects.delete(obj);
                Err(e)
            }
        }
    }

    /// `unlink(2)`: drop the entry and reap its object.
    pub fn unlink(&mut self, path: &str, now_ns: u64) -> FsResult<()> {
        if let Some(obj) = self.ns.unlink(path, now_ns)? {
            let _ = self.objects.delete(obj);
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

    /// `pwrite(2)`; updates size and mtime; returns bytes written.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8], now_ns: u64) -> FsResult<usize> {
        let obj = self.ns.object_of(path)?;
        let new_size = self.objects.write(obj, offset, data).map_err(|_| FsError::Stale)?;
        self.ns.set_size(path, new_size, now_ns)?;
        Ok(data.len())
    }

    /// `pread(2)`; updates atime ("transparently updated when the physical
    /// file is accessed", paper §IV-D).
    pub fn read(&mut self, path: &str, offset: u64, len: usize, now_ns: u64) -> FsResult<Bytes> {
        let obj = self.ns.object_of(path)?;
        let data = self.objects.read(obj, offset, len).map_err(|_| FsError::Stale)?;
        self.ns.touch_atime(path, now_ns)?;
        Ok(Bytes::from(data))
    }

    /// `truncate(2)`.
    pub fn truncate(&mut self, path: &str, new_size: u64, now_ns: u64) -> FsResult<()> {
        let obj = self.ns.object_of(path)?;
        self.objects.truncate(obj, new_size).map_err(|_| FsError::Stale)?;
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
            objects: self.objects.object_count() as u64,
            bytes_used: self.objects.bytes_per_target().iter().map(|&b| b as u64).sum(),
            oss_targets: self.objects.n_targets() as u64,
        }
    }
}

/// Usage summary of one mount (the statvfs surface of the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MountUsage {
    /// Namespace entries (files + directories + symlinks).
    pub entries: u64,
    /// Live data objects.
    pub objects: u64,
    /// Bytes stored across all OSS targets.
    pub bytes_used: u64,
    /// Number of OSS targets.
    pub oss_targets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        fs.unlink("/f", 4).unwrap();
        assert_eq!(fs.entry_count(), 0);
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
