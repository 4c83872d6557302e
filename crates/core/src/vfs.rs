//! The synchronous DUFS filesystem API.
//!
//! [`Dufs`] is one *DUFS client instance* (paper §IV-B): local software
//! holding a coordination-service session, the set of back-end mounts, the
//! deterministic mapping function, and a FID generator. It exposes the
//! POSIX-style operations the prototype implements ("mkdir, create, open,
//! symlink, rename, stat, readdir, rmdir, unlink, truncate, chmod, access,
//! read, write" — §IV-C), each executed by running the [`crate::plan`]
//! protocol over the live services.

use std::collections::HashMap;

use bytes::Bytes;
use dufs_coord::session::ready;
use dufs_coord::{ZkRequest, ZkResponse};

use crate::error::{DufsError, DufsResult};
use crate::fid::{Fid, FidGenerator};
use crate::mapping::{BackendMapper, Md5Mapping};
use crate::plan::{self, BackendReq, BackendResp, MetaOp, OpOutput, PlanIo};
use crate::services::{BackendSet, CoordService};

pub use crate::plan::{DufsAttr, NodeKind};

/// An open-file handle (maps to a FID internally, like a kernel fd table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DufsHandle(pub u64);

/// One DUFS client instance.
pub struct Dufs<C, B> {
    coord: C,
    backends: B,
    mapper: Box<dyn BackendMapper + Send>,
    fids: FidGenerator,
    handles: HashMap<u64, Fid>,
    next_handle: u64,
    ops_executed: u64,
}

impl<C: CoordService, B: BackendSet> Dufs<C, B> {
    /// A client with the paper's `MD5(fid) mod N` mapping.
    pub fn new(client_id: u64, coord: C, backends: B) -> Self {
        let n = backends.n_backends();
        Self::with_mapper(client_id, coord, backends, Box::new(Md5Mapping::new(n)))
    }

    /// A client with a custom mapping function (e.g.
    /// [`crate::mapping::ConsistentHashRing`]).
    pub fn with_mapper(
        client_id: u64,
        coord: C,
        backends: B,
        mapper: Box<dyn BackendMapper + Send>,
    ) -> Self {
        assert_eq!(
            mapper.n_backends(),
            backends.n_backends(),
            "mapper and backend set must agree on N"
        );
        Dufs {
            coord,
            backends,
            mapper,
            fids: FidGenerator::new(client_id),
            handles: HashMap::new(),
            next_handle: 1,
            ops_executed: 0,
        }
    }

    /// This client's id (the high half of every FID it mints).
    pub fn client_id(&self) -> u64 {
        self.fids.client_id()
    }

    /// Operations executed so far.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// The coordination connection (e.g. to `sync()` explicitly).
    pub fn coord_mut(&mut self) -> &mut C {
        &mut self.coord
    }

    /// The back-end set (tests/diagnostics).
    pub fn backends_mut(&mut self) -> &mut B {
        &mut self.backends
    }

    /// The decoded znode metadata of a virtual path (node kind, FID for
    /// files, symlink target) — the raw coordination-service view behind
    /// the POSIX API.
    pub fn node_meta(&mut self, path: &str) -> DufsResult<crate::meta::NodeMeta> {
        match self.coord.request(ZkRequest::GetData { path: path.into(), watch: false }) {
            ZkResponse::Data { data, .. } => crate::meta::NodeMeta::decode(&data),
            ZkResponse::Error(e) => Err(e.into()),
            other => unreachable!("node_meta: {other:?}"),
        }
    }

    /// Run one operation to completion.
    pub fn run(&mut self, op: MetaOp) -> DufsResult<OpOutput> {
        self.ops_executed += 1;
        let minted =
            if matches!(op, MetaOp::Create { .. }) { Some(self.fids.next_fid()) } else { None };
        let io = &mut (&mut self.coord, &mut self.backends);
        ready(plan::run(op, || minted.expect("minted for Create"), self.mapper.as_ref(), io))
    }

    // ------------------------------------------------------------------
    // POSIX-style API (the dufs_* operation table of §IV-C)
    // ------------------------------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> DufsResult<()> {
        match self.run(MetaOp::Mkdir { path: path.into(), mode })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("mkdir: {other:?}"),
        }
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str) -> DufsResult<()> {
        match self.run(MetaOp::Rmdir { path: path.into() })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("rmdir: {other:?}"),
        }
    }

    /// `creat(2)`: returns the new file's FID.
    pub fn create(&mut self, path: &str, mode: u32) -> DufsResult<Fid> {
        match self.run(MetaOp::Create { path: path.into(), mode })? {
            OpOutput::Created(fid) => Ok(fid),
            other => unreachable!("create: {other:?}"),
        }
    }

    /// `open(2)` an existing file.
    pub fn open(&mut self, path: &str) -> DufsResult<DufsHandle> {
        match self.run(MetaOp::Open { path: path.into() })? {
            OpOutput::Opened(fid) => {
                let h = DufsHandle(self.next_handle);
                self.next_handle += 1;
                self.handles.insert(h.0, fid);
                Ok(h)
            }
            other => unreachable!("open: {other:?}"),
        }
    }

    /// `close(2)`.
    pub fn close(&mut self, h: DufsHandle) -> DufsResult<()> {
        self.handles.remove(&h.0).map(|_| ()).ok_or(DufsError::Inval)
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> DufsResult<()> {
        match self.run(MetaOp::Unlink { path: path.into() })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("unlink: {other:?}"),
        }
    }

    /// `stat(2)`.
    pub fn stat(&mut self, path: &str) -> DufsResult<DufsAttr> {
        match self.run(MetaOp::Stat { path: path.into() })? {
            OpOutput::Attr(a) => Ok(a),
            other => unreachable!("stat: {other:?}"),
        }
    }

    /// `readdir(3)`: sorted names.
    pub fn readdir(&mut self, path: &str) -> DufsResult<Vec<String>> {
        match self.run(MetaOp::Readdir { path: path.into() })? {
            OpOutput::Names(n) => Ok(n),
            other => unreachable!("readdir: {other:?}"),
        }
    }

    /// READDIRPLUS: entries with attributes in one sweep — one batched
    /// coordination round trip plus a back-end stat per regular file (the
    /// `ls -l` fast path; plain readdir+stat pays one coordination round
    /// trip per entry instead).
    pub fn readdir_plus(&mut self, path: &str) -> DufsResult<Vec<(String, DufsAttr)>> {
        match self.run(MetaOp::ReaddirPlus { path: path.into() })? {
            OpOutput::Entries(e) => Ok(e),
            other => unreachable!("readdir_plus: {other:?}"),
        }
    }

    /// `rename(2)` (destination must not exist).
    pub fn rename(&mut self, from: &str, to: &str) -> DufsResult<()> {
        match self.run(MetaOp::Rename { from: from.into(), to: to.into() })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("rename: {other:?}"),
        }
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, target: &str, link: &str) -> DufsResult<()> {
        match self.run(MetaOp::Symlink { target: target.into(), link: link.into() })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("symlink: {other:?}"),
        }
    }

    /// `readlink(2)`.
    pub fn readlink(&mut self, path: &str) -> DufsResult<String> {
        match self.run(MetaOp::Readlink { path: path.into() })? {
            OpOutput::Target(t) => Ok(t),
            other => unreachable!("readlink: {other:?}"),
        }
    }

    /// `chmod(2)`.
    pub fn chmod(&mut self, path: &str, mode: u32) -> DufsResult<()> {
        match self.run(MetaOp::Chmod { path: path.into(), mode })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("chmod: {other:?}"),
        }
    }

    /// `access(2)` with an R=4/W=2/X=1 mask.
    pub fn access(&mut self, path: &str, mask: u32) -> DufsResult<bool> {
        match self.run(MetaOp::Access { path: path.into(), mask })? {
            OpOutput::Allowed(a) => Ok(a),
            other => unreachable!("access: {other:?}"),
        }
    }

    /// `truncate(2)`.
    pub fn truncate(&mut self, path: &str, size: u64) -> DufsResult<()> {
        match self.run(MetaOp::Truncate { path: path.into(), size })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("truncate: {other:?}"),
        }
    }

    /// `utimens(2)` — explicit access/modification times (regular files;
    /// directory times are owned by the coordination transaction clock).
    pub fn utimens(&mut self, path: &str, atime_ns: u64, mtime_ns: u64) -> DufsResult<()> {
        match self.run(MetaOp::Utimens { path: path.into(), atime_ns, mtime_ns })? {
            OpOutput::Unit => Ok(()),
            other => unreachable!("utimens: {other:?}"),
        }
    }

    /// `statfs(2)` — aggregate usage across every merged mount.
    pub fn statfs(&mut self) -> DufsResult<crate::plan::DufsStatFs> {
        match self.run(MetaOp::StatFs)? {
            OpOutput::StatFs(s) => Ok(s),
            other => unreachable!("statfs: {other:?}"),
        }
    }

    /// `pread(2)` by path (one coordination lookup per call).
    pub fn read(&mut self, path: &str, offset: u64, len: usize) -> DufsResult<Bytes> {
        match self.run(MetaOp::Read { path: path.into(), offset, len })? {
            OpOutput::Data(d) => Ok(d),
            other => unreachable!("read: {other:?}"),
        }
    }

    /// `pwrite(2)` by path.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8]) -> DufsResult<usize> {
        match self.run(MetaOp::Write {
            path: path.into(),
            offset,
            data: Bytes::copy_from_slice(data),
        })? {
            OpOutput::Written(n) => Ok(n),
            other => unreachable!("write: {other:?}"),
        }
    }

    /// `pread(2)` through an open handle — goes straight to the back-end,
    /// no coordination-service hop (the FID is cached in the handle, the
    /// paper's step-C/D fast path).
    pub fn read_at(&mut self, h: DufsHandle, offset: u64, len: usize) -> DufsResult<Bytes> {
        match self.on_handle(h, |path| BackendReq::Read { path, offset, len })? {
            OpOutput::Data(d) => Ok(d),
            other => unreachable!("read_at: {other:?}"),
        }
    }

    /// `pwrite(2)` through an open handle.
    pub fn write_at(&mut self, h: DufsHandle, offset: u64, data: &[u8]) -> DufsResult<usize> {
        let write = |path| BackendReq::Write { path, offset, data: Bytes::copy_from_slice(data) };
        match self.on_handle(h, write)? {
            OpOutput::Written(n) => Ok(n),
            other => unreachable!("write_at: {other:?}"),
        }
    }

    /// The planner's back-end hop on an open handle's FID, without the
    /// lookup before it.
    fn on_handle(
        &mut self,
        h: DufsHandle,
        req: impl FnOnce(String) -> BackendReq,
    ) -> DufsResult<OpOutput> {
        let fid = *self.handles.get(&h.0).ok_or(DufsError::Inval)?;
        let (backend, req) = plan::file_call(self.mapper.as_ref(), fid, req);
        plan::backend_output(self.backends.call(backend, req))
    }
}

/// The live services answer each request at once.
impl<C: CoordService, B: BackendSet> PlanIo for (&mut C, &mut B) {
    async fn coord(&mut self, req: ZkRequest) -> ZkResponse {
        self.0.request(req)
    }

    async fn backend(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        self.1.call(backend, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{LocalBackends, SoloCoord};
    use crate::shard;

    fn dufs() -> Dufs<SoloCoord, LocalBackends> {
        Dufs::new(42, SoloCoord::new(), LocalBackends::lustre(2))
    }

    #[test]
    fn full_file_lifecycle() {
        let mut fs = dufs();
        fs.mkdir("/dir", 0o755).unwrap();
        let fid = fs.create("/dir/file", 0o644).unwrap();
        assert_eq!(fid.client_id(), 42);

        assert_eq!(fs.write("/dir/file", 0, b"hello dufs").unwrap(), 10);
        assert_eq!(&fs.read("/dir/file", 0, 100).unwrap()[..], b"hello dufs");

        let attr = fs.stat("/dir/file").unwrap();
        assert_eq!(attr.kind, NodeKind::File);
        assert_eq!(attr.size, 10);

        let h = fs.open("/dir/file").unwrap();
        assert_eq!(&fs.read_at(h, 6, 4).unwrap()[..], b"dufs");
        fs.write_at(h, 0, b"HELLO").unwrap();
        assert_eq!(&fs.read("/dir/file", 0, 5).unwrap()[..], b"HELLO");
        fs.close(h).unwrap();
        assert_eq!(fs.read_at(h, 0, 1).unwrap_err(), DufsError::Inval);

        fs.unlink("/dir/file").unwrap();
        assert_eq!(fs.stat("/dir/file").unwrap_err(), DufsError::NoEnt);
        fs.rmdir("/dir").unwrap();
    }

    #[test]
    fn directories_live_only_in_coordination_service() {
        // §IV-A: "directories and directory-trees are considered as
        // metadata only, so they are not physically created on the
        // back-end storage."
        let mut fs = dufs();
        fs.mkdir("/only-meta", 0o755).unwrap();
        for i in 0..fs.backends_mut().n_backends() {
            let mount = fs.backends_mut().mount(i).clone();
            assert_eq!(mount.lock().entry_count(), 0, "backend {i} must stay empty");
        }
        let attr = fs.stat("/only-meta").unwrap();
        assert_eq!(attr.kind, NodeKind::Dir);
    }

    #[test]
    fn files_land_on_exactly_one_backend_at_their_shard_path() {
        let mut fs = dufs();
        let fid = fs.create("/f", 0o644).unwrap();
        let phys = shard::physical_path("/", fid);
        let expected_backend = Md5Mapping::new(2).backend_of(fid);
        let mount = fs.backends_mut().mount(expected_backend).clone();
        assert!(mount.lock().exists(&phys), "physical file at {phys}");
        let other = fs.backends_mut().mount(1 - expected_backend).clone();
        assert!(!other.lock().exists(&phys));
    }

    #[test]
    fn rename_file_keeps_fid_and_data_in_place() {
        let mut fs = dufs();
        let fid = fs.create("/old", 0o644).unwrap();
        fs.write("/old", 0, b"payload").unwrap();
        fs.rename("/old", "/new").unwrap();
        assert_eq!(fs.stat("/old").unwrap_err(), DufsError::NoEnt);
        assert_eq!(&fs.read("/new", 0, 100).unwrap()[..], b"payload");
        // The physical file never moved: open resolves to the same FID.
        let h = fs.open("/new").unwrap();
        let _ = h;
        let phys = shard::physical_path("/", fid);
        let backend = Md5Mapping::new(2).backend_of(fid);
        let mount = fs.backends_mut().mount(backend).clone();
        assert!(mount.lock().exists(&phys));
    }

    #[test]
    fn rename_directory_subtree() {
        let mut fs = dufs();
        fs.mkdir("/d1", 0o755).unwrap();
        fs.mkdir("/d1/sub", 0o755).unwrap();
        fs.create("/d1/sub/f", 0o644).unwrap();
        fs.write("/d1/sub/f", 0, b"deep").unwrap();
        fs.rename("/d1", "/d2").unwrap();
        assert_eq!(fs.readdir("/d2").unwrap(), vec!["sub"]);
        assert_eq!(&fs.read("/d2/sub/f", 0, 10).unwrap()[..], b"deep");
        assert_eq!(fs.stat("/d1").unwrap_err(), DufsError::NoEnt);
    }

    #[test]
    fn rename_to_existing_destination_fails_atomically() {
        let mut fs = dufs();
        fs.create("/a", 0o644).unwrap();
        fs.create("/b", 0o644).unwrap();
        assert_eq!(fs.rename("/a", "/b").unwrap_err(), DufsError::Exists);
        // Source must still be intact.
        assert!(fs.stat("/a").is_ok());
    }

    #[test]
    fn rename_checks_its_destination_parent_like_every_create() {
        // The destination is a znode create inside the rename's multi, and a
        // bare znode create would happily nest under a file.
        let mut fs = dufs();
        fs.mkdir("/d", 0o755).unwrap();
        fs.create("/f", 0o644).unwrap();
        assert_eq!(fs.rename("/d", "/f/x").unwrap_err(), DufsError::NotDir);
        assert_eq!(fs.rename("/d", "/missing/x").unwrap_err(), DufsError::NoEnt);
        assert!(fs.readdir("/f").unwrap().is_empty());
        assert_eq!(fs.stat("/d").unwrap().kind, NodeKind::Dir);
        fs.mkdir("/e", 0o755).unwrap();
        fs.rename("/d", "/e/d").unwrap();
        assert_eq!(fs.readdir("/e").unwrap(), vec!["d"]);
    }

    #[test]
    fn symlink_roundtrip() {
        let mut fs = dufs();
        fs.symlink("/some/target", "/link").unwrap();
        assert_eq!(fs.readlink("/link").unwrap(), "/some/target");
        let attr = fs.stat("/link").unwrap();
        assert_eq!(attr.kind, NodeKind::Symlink);
        assert_eq!(attr.size, 12);
        fs.unlink("/link").unwrap();
        assert_eq!(fs.readlink("/link").unwrap_err(), DufsError::NoEnt);
    }

    #[test]
    fn chmod_and_access() {
        let mut fs = dufs();
        fs.mkdir("/d", 0o700).unwrap();
        assert!(fs.access("/d", 7).unwrap());
        fs.chmod("/d", 0o500).unwrap();
        assert!(!fs.access("/d", 2).unwrap());
        assert_eq!(fs.stat("/d").unwrap().mode, 0o500);

        fs.create("/f", 0o644).unwrap();
        fs.chmod("/f", 0o400).unwrap();
        assert!(fs.access("/f", 4).unwrap());
        assert!(!fs.access("/f", 2).unwrap());
        assert_eq!(fs.stat("/f").unwrap().mode, 0o400, "file mode lives on the back-end");
    }

    #[test]
    fn truncate_changes_size() {
        let mut fs = dufs();
        fs.create("/f", 0o644).unwrap();
        fs.write("/f", 0, &[9u8; 100]).unwrap();
        fs.truncate("/f", 10).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 10);
        fs.truncate("/f", 0).unwrap();
        assert_eq!(fs.read("/f", 0, 10).unwrap().len(), 0);
    }

    #[test]
    fn error_paths() {
        let mut fs = dufs();
        assert_eq!(fs.mkdir("/a/b", 0o755).unwrap_err(), DufsError::NoEnt);
        fs.mkdir("/a", 0o755).unwrap();
        assert_eq!(fs.mkdir("/a", 0o755).unwrap_err(), DufsError::Exists);
        fs.mkdir("/a/b", 0o755).unwrap();
        assert_eq!(fs.rmdir("/a").unwrap_err(), DufsError::NotEmpty);
        fs.create("/file", 0o644).unwrap();
        assert_eq!(fs.rmdir("/file").unwrap_err(), DufsError::NotDir);
        assert_eq!(fs.unlink("/a").unwrap_err(), DufsError::IsDir);
        assert_eq!(fs.open("/a").unwrap_err(), DufsError::IsDir);
        assert_eq!(fs.open("/missing").unwrap_err(), DufsError::NoEnt);
        assert_eq!(fs.readlink("/file").unwrap_err(), DufsError::Inval);
        assert_eq!(fs.read("/a", 0, 1).unwrap_err(), DufsError::IsDir);
    }

    #[test]
    fn readdir_plus_returns_entries_with_attrs() {
        let mut fs = dufs();
        fs.mkdir("/d", 0o755).unwrap();
        fs.mkdir("/d/sub", 0o700).unwrap();
        fs.create("/d/file", 0o644).unwrap();
        fs.write("/d/file", 0, b"12345").unwrap();
        fs.symlink("/elsewhere", "/d/link").unwrap();

        let entries = fs.readdir_plus("/d").unwrap();
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["file", "link", "sub"]);
        let get = |n: &str| entries.iter().find(|(e, _)| e == n).unwrap().1;
        assert_eq!(get("sub").kind, NodeKind::Dir);
        assert_eq!(get("sub").mode, 0o700);
        assert_eq!(get("file").kind, NodeKind::File);
        assert_eq!(get("file").size, 5);
        assert_eq!(get("link").kind, NodeKind::Symlink);

        // Agreement with the naive path: readdir + stat each.
        for (name, attr) in &entries {
            let direct = fs.stat(&format!("/d/{name}")).unwrap();
            assert_eq!(&direct, attr, "{name}");
        }
        // Empty directory.
        fs.mkdir("/empty", 0o755).unwrap();
        assert!(fs.readdir_plus("/empty").unwrap().is_empty());
        // Missing directory.
        assert_eq!(fs.readdir_plus("/nope").unwrap_err(), DufsError::NoEnt);
    }

    /// `SoloCoord` behind a session that implements only `request`,
    /// counting the requests.
    struct Counted {
        inner: SoloCoord,
        requests: usize,
    }

    impl CoordService for Counted {
        fn request(&mut self, req: ZkRequest) -> ZkResponse {
            self.requests += 1;
            self.inner.request(req)
        }
    }

    #[test]
    fn readdir_plus_uses_fewer_coordination_round_trips() {
        // The point of the batched API: for a directory of D subdirectories,
        // readdir+stat pays 1 + D coordination reads; readdir_plus pays 1.
        let coord = Counted { inner: SoloCoord::new(), requests: 0 };
        let mut fs = Dufs::new(42, coord, LocalBackends::lustre(2));
        fs.mkdir("/big", 0o755).unwrap();
        for i in 0..20 {
            fs.mkdir(&format!("/big/d{i}"), 0o755).unwrap();
        }
        let before = fs.coord_mut().requests;
        assert_eq!(fs.readdir_plus("/big").unwrap().len(), 20);
        assert_eq!(fs.coord_mut().requests - before, 1, "readdir_plus");
        let before = fs.coord_mut().requests;
        for name in fs.readdir("/big").unwrap() {
            fs.stat(&format!("/big/{name}")).unwrap();
        }
        assert_eq!(fs.coord_mut().requests - before, 1 + 20, "readdir + a stat per entry");
    }

    #[test]
    fn utimens_sets_file_times() {
        let mut fs = dufs();
        fs.create("/f", 0o644).unwrap();
        fs.utimens("/f", 111, 222).unwrap();
        let a = fs.stat("/f").unwrap();
        assert_eq!(a.atime_ns, 111);
        assert_eq!(a.mtime_ns, 222);
        // Directories accept and ignore (transaction-clocked).
        fs.mkdir("/d", 0o755).unwrap();
        fs.utimens("/d", 1, 2).unwrap();
        assert_eq!(fs.utimens("/missing", 1, 2).unwrap_err(), DufsError::NoEnt);
    }

    #[test]
    fn statfs_aggregates_mounts() {
        let mut fs = dufs();
        let empty = fs.statfs().unwrap();
        assert_eq!(empty.backends, 2);
        assert_eq!(empty.objects, 0);
        for i in 0..10 {
            fs.create(&format!("/f{i}"), 0o644).unwrap();
        }
        fs.write("/f0", 0, &[1u8; 1000]).unwrap();
        let used = fs.statfs().unwrap();
        assert_eq!(used.objects, 10, "one object per file across both mounts");
        assert!(used.physical_entries >= 10, "files plus shard directories");
        assert_eq!(used.bytes_used, 1000);
        // Directories are metadata-only: creating them changes nothing.
        fs.mkdir("/dirs", 0o755).unwrap();
        let after = fs.statfs().unwrap();
        assert_eq!(after.physical_entries, used.physical_entries);
    }

    #[test]
    fn two_clients_share_one_namespace() {
        // Two DUFS client instances (distinct client ids) over the same
        // coordination service and the same physical mounts.
        let backends = LocalBackends::lustre(2);
        // SoloCoord is single-session; share the namespace by routing both
        // clients through one coordination service is the live-cluster
        // tests' job. Here: distinct FID spaces at least never collide.
        let mut a = Dufs::new(1, SoloCoord::new(), backends.clone());
        let mut b = Dufs::new(2, SoloCoord::new(), backends);
        let fa = a.create("/fa", 0o644).unwrap();
        let fb = b.create("/fb", 0o644).unwrap();
        assert_ne!(fa, fb);
        assert_eq!(fa.client_id(), 1);
        assert_eq!(fb.client_id(), 2);
    }

    #[test]
    fn consistent_hash_mapper_variant_works() {
        use crate::mapping::ConsistentHashRing;
        let mut fs = Dufs::with_mapper(
            7,
            SoloCoord::new(),
            LocalBackends::lustre(4),
            Box::new(ConsistentHashRing::new(4)),
        );
        for i in 0..20 {
            fs.create(&format!("/f{i}"), 0o644).unwrap();
        }
        for i in 0..20 {
            assert_eq!(fs.stat(&format!("/f{i}")).unwrap().kind, NodeKind::File);
        }
    }
}
