//! The FUSE baseline (paper §IV-C, Fig 11).
//!
//! The prototype exposes DUFS through FUSE: applications make POSIX
//! syscalls, the kernel routes them to userspace, and an operation table
//! with errno-convention results (negative errno on failure) serves them.
//! We cannot load a kernel module here; [`crate::vfs::Dufs`] is that table,
//! with [`crate::error::DufsError::errno`] giving the errno each failure
//! maps to.
//!
//! [`DummyFuse`] is the baseline from the paper's Fig 11: "a dummy FUSE
//! filesystem which just does nothing, except forwarding the requests to a
//! local filesystem" — used to show DUFS's client-side memory stays flat
//! and FUSE-like.

use dufs_backendfs::pfs::SharedPfs;

/// Errno-convention result: `Ok(T)` or a negative errno.
pub type FuseResult<T> = Result<T, i32>;

/// The Fig 11 baseline: a FUSE layer that only forwards to a local
/// filesystem and keeps no per-file state of its own.
pub struct DummyFuse {
    local: SharedPfs,
    calls: u64,
}

impl DummyFuse {
    /// Forwarding layer over `local`.
    pub fn new(local: SharedPfs) -> Self {
        DummyFuse { local, calls: 0 }
    }

    /// Calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The layer's own resident footprint — constant by construction,
    /// which is exactly the Fig 11 observation for DUFS clients and dummy
    /// FUSE alike.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Forward a `mkdir`.
    pub fn mkdir(&mut self, path: &str, mode: u32, now_ns: u64) -> FuseResult<()> {
        self.calls += 1;
        self.local.lock().mkdir(path, mode, now_ns).map_err(|e| -e.errno())
    }

    /// Forward a `getattr`.
    pub fn getattr(&mut self, path: &str) -> FuseResult<dufs_backendfs::FileAttr> {
        self.calls += 1;
        self.local.lock().stat(path).map_err(|e| -e.errno())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_backendfs::ParallelFs;

    #[test]
    fn dummy_fuse_memory_is_constant() {
        let mut d = DummyFuse::new(ParallelFs::lustre().into_shared());
        let before = d.memory_bytes();
        for i in 0..1000 {
            d.mkdir(&format!("/d{i}"), 0o755, i).unwrap();
        }
        assert_eq!(d.memory_bytes(), before, "forwarding layer keeps no per-entry state");
        assert_eq!(d.calls(), 1000);
        assert!(d.getattr("/d5").is_ok());
    }
}
