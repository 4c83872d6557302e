//! Service traits the DUFS VFS runs against, plus in-process
//! implementations.
//!
//! A DUFS client instance talks to exactly two things (paper Fig 3): the
//! distributed coordination service and the set of back-end filesystem
//! mounts. [`CoordService`] and [`BackendSet`] abstract those so the same
//! [`crate::vfs::Dufs`] runs against:
//!
//! * any live session — [`dufs_coord::ZkClient`] over its TCP transport,
//!   [`dufs_coord::ShardedClient`], or either behind
//!   `dufs_cache::Cached` — the "real deployment" shapes ([`CoordService`]
//!   itself is defined in `dufs-coord` and re-exported here);
//! * an in-process single-server coordination service ([`SoloCoord`]) —
//!   zero-thread unit tests and quick library embedding;
//! * in-memory parallel filesystems ([`LocalBackends`]).

use std::time::{SystemTime, UNIX_EPOCH};

use dufs_backendfs::pfs::SharedPfs;
use dufs_backendfs::ParallelFs;
use dufs_coord::server::{ServerIn, ServerOut};
use dufs_coord::watch::WatchNotification;
use dufs_coord::{CoordServer, ZkRequest, ZkResponse};
use dufs_zab::{EnsembleConfig, PeerId};
use dufs_zkstore::ZkError;

pub use dufs_coord::CoordService;

use crate::plan::{BackendReq, BackendResp};

/// An in-process, single-server coordination service: the whole ensemble
/// collapsed into one deterministic state machine. Useful for unit tests,
/// examples, and the Fig 11 memory study (which ran everything on one
/// node).
pub struct SoloCoord {
    server: CoordServer,
    session: u64,
    clock_ns: u64,
    watches: Vec<WatchNotification>,
}

impl Default for SoloCoord {
    fn default() -> Self {
        Self::new()
    }
}

impl SoloCoord {
    /// Build the server and open a session.
    pub fn new() -> Self {
        let (server, _) = CoordServer::new(PeerId(0), EnsembleConfig::of_size(1));
        let mut solo = SoloCoord { server, session: 0, clock_ns: 1, watches: Vec::new() };
        match solo.request(ZkRequest::Connect) {
            ZkResponse::Connected { session } => solo.session = session,
            other => unreachable!("solo connect cannot fail: {other:?}"),
        }
        solo
    }

    /// The underlying server (e.g. for memory accounting).
    pub fn server(&self) -> &CoordServer {
        &self.server
    }
}

impl CoordService for SoloCoord {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        self.clock_ns += 1_000; // strictly monotone synthetic clock
        let outs = self.server.handle(
            self.clock_ns,
            ServerIn::Client { client: 1, req_id: 0, session: self.session, req },
        );
        let mut resp = None;
        for o in outs {
            match o {
                ServerOut::Client { resp: r, .. } => resp = Some(r),
                ServerOut::Watch { note, .. } => self.watches.push(note),
                _ => {}
            }
        }
        resp.unwrap_or(ZkResponse::Error(ZkError::ConnectionLoss))
    }

    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        std::mem::take(&mut self.watches)
    }
}

/// The set of back-end filesystem mounts a DUFS client merges.
pub trait BackendSet {
    /// Number of mounts.
    fn n_backends(&self) -> usize;
    /// Execute one request against mount `backend`.
    fn call(&mut self, backend: usize, req: BackendReq) -> BackendResp;
}

/// In-memory back-end mounts (one [`ParallelFs`] each), shared so several
/// DUFS clients can merge the *same* physical filesystems — the paper's
/// deployment shape.
#[derive(Clone)]
pub struct LocalBackends {
    mounts: Vec<SharedPfs>,
}

impl LocalBackends {
    /// `n` fresh Lustre-profile mounts.
    pub fn lustre(n: usize) -> Self {
        assert!(n >= 1, "need at least one back-end");
        LocalBackends { mounts: (0..n).map(|_| ParallelFs::lustre().into_shared()).collect() }
    }

    /// `n` fresh PVFS2-profile mounts.
    pub fn pvfs2(n: usize) -> Self {
        assert!(n >= 1, "need at least one back-end");
        LocalBackends { mounts: (0..n).map(|_| ParallelFs::pvfs2().into_shared()).collect() }
    }

    /// Wrap existing shared mounts.
    pub fn from_mounts(mounts: Vec<SharedPfs>) -> Self {
        assert!(!mounts.is_empty(), "need at least one back-end");
        LocalBackends { mounts }
    }

    /// Access a mount (tests/diagnostics).
    pub fn mount(&self, i: usize) -> &SharedPfs {
        &self.mounts[i]
    }

    fn now_ns() -> u64 {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
    }
}

/// Execute `req` against one [`ParallelFs`] at time `now_ns` — shared by
/// the local driver here and the discrete-event backend server in
/// `dufs-mdtest`.
pub fn apply_backend_req(fs: &mut ParallelFs, req: BackendReq, now_ns: u64) -> BackendResp {
    match req {
        BackendReq::CreateFile { path, mode } => BackendResp::Unit(
            fs.mkdir_all_parents(&path, now_ns).and_then(|()| fs.create(&path, mode, now_ns)),
        ),
        BackendReq::Unlink { path } => BackendResp::Unit(fs.unlink(&path, now_ns)),
        BackendReq::Stat { path } => BackendResp::Attr(fs.stat(&path)),
        BackendReq::Chmod { path, mode } => BackendResp::Unit(fs.chmod(&path, mode, now_ns)),
        BackendReq::Access { path, mask } => BackendResp::Allowed(fs.access(&path, mask)),
        BackendReq::Truncate { path, size } => BackendResp::Unit(fs.truncate(&path, size, now_ns)),
        BackendReq::Read { path, offset, len } => {
            BackendResp::Data(fs.read(&path, offset, len, now_ns))
        }
        BackendReq::Write { path, offset, data } => {
            BackendResp::Written(fs.write(&path, offset, &data, now_ns))
        }
        BackendReq::SetTimes { path, atime_ns, mtime_ns } => {
            BackendResp::Unit(fs.set_times(&path, atime_ns, mtime_ns, now_ns))
        }
        BackendReq::StatFs => BackendResp::Usage(fs.statvfs()),
    }
}

impl BackendSet for LocalBackends {
    fn n_backends(&self) -> usize {
        self.mounts.len()
    }

    fn call(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        let mut fs = self.mounts[backend].lock();
        apply_backend_req(&mut fs, req, Self::now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dufs_zkstore::CreateMode;

    #[test]
    fn solo_coord_serves_requests() {
        let mut c = SoloCoord::new();
        let r = c.request(ZkRequest::Create {
            path: "/x".into(),
            data: Bytes::from_static(b"d"),
            mode: CreateMode::Persistent,
        });
        assert_eq!(r, ZkResponse::Created { path: "/x".into() });
        match c.request(ZkRequest::GetData { path: "/x".into(), watch: false }) {
            ZkResponse::Data { data, .. } => assert_eq!(&data[..], b"d"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn local_backends_roundtrip() {
        let mut b = LocalBackends::lustre(2);
        assert_eq!(b.n_backends(), 2);
        let resp = b.call(1, BackendReq::CreateFile { path: "/aa/bb/cc/dd".into(), mode: 0o644 });
        assert_eq!(resp, BackendResp::Unit(Ok(())));
        let resp = b.call(
            1,
            BackendReq::Write {
                path: "/aa/bb/cc/dd".into(),
                offset: 0,
                data: Bytes::from_static(b"hi"),
            },
        );
        assert_eq!(resp, BackendResp::Written(Ok(2)));
        match b.call(1, BackendReq::Read { path: "/aa/bb/cc/dd".into(), offset: 0, len: 10 }) {
            BackendResp::Data(Ok(d)) => assert_eq!(&d[..], b"hi"),
            other => panic!("unexpected {other:?}"),
        }
        // The other mount is independent.
        match b.call(0, BackendReq::Stat { path: "/aa/bb/cc/dd".into() }) {
            BackendResp::Attr(Err(e)) => assert_eq!(e, dufs_backendfs::FsError::NoEnt),
            other => panic!("unexpected {other:?}"),
        }
    }
}
