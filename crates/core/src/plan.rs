//! Metadata-operation planner: every DUFS operation as one `async fn`,
//! [`run`], over coordination-service and back-end requests.
//!
//! The paper's Fig 3 decomposes `open()` into steps A–D: FUSE dispatch,
//! ZooKeeper lookup, deterministic mapping, back-end access. [`run`]
//! writes that decomposition — and the analogous ones for all other
//! operations (Figs 5 and 6 give mkdir and stat) — as straight-line code
//! that awaits each request's reply from a [`PlanIo`].
//!
//! Every operation is built from the same three moves, each written once:
//! the *lookup* of the path's znode (one function decodes it, one picks
//! the op's next move per node kind), the *back-end hop* on a file's FID
//! (one request builder, `file_call`, and one reply mapping,
//! `backend_output`), and the *final write* whose success is the answer.
//! Every create — mkdir, creat, symlink and a rename's destination — first
//! checks that its parent is a directory.
//!
//! Two hosts run it:
//! * [`crate::vfs::Dufs`] over live services, which answer each request
//!   at once, so one poll runs an op to its end (the library / live
//!   runtime);
//! * the simulated DUFS client in `dufs-mdtest`, which parks each request
//!   as a timed network message and polls again on its reply (the
//!   performance evaluation).
//!
//! One implementation of the semantics, no divergence between what is
//! functionally tested and what is measured.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::future::Future;

use bytes::Bytes;

use dufs_backendfs::{FileAttr, FileKind, FsError};
use dufs_coord::shard::parent_dir;
use dufs_coord::{ZkRequest, ZkResponse};
use dufs_zkstore::{CreateMode, MultiOp, Stat};

use crate::error::{DufsError, DufsResult};
use crate::fid::Fid;
use crate::mapping::BackendMapper;
use crate::meta::NodeMeta;
use crate::shard;

/// A metadata/data operation against the DUFS namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// `mkdir(2)` — metadata only, never touches the back-end (§IV-A).
    Mkdir {
        /// Virtual path.
        path: String,
        /// Mode bits.
        mode: u32,
    },
    /// `rmdir(2)` — metadata only.
    Rmdir {
        /// Virtual path.
        path: String,
    },
    /// `creat(2)` — znode with a fresh FID, then the physical file.
    Create {
        /// Virtual path.
        path: String,
        /// Mode bits.
        mode: u32,
    },
    /// `open(2)` on an existing file (paper Fig 3 steps A–D).
    Open {
        /// Virtual path.
        path: String,
    },
    /// `unlink(2)` — znode first, then the physical file.
    Unlink {
        /// Virtual path.
        path: String,
    },
    /// `stat(2)` (paper Fig 6): directories answered from the znode alone;
    /// files consult the physical file.
    Stat {
        /// Virtual path.
        path: String,
    },
    /// `readdir(3)` — metadata only.
    Readdir {
        /// Virtual path.
        path: String,
    },
    /// `readdir(3)` + `stat(2)` of every entry in one sweep (READDIRPLUS).
    /// One batched coordination round trip covers all directories and
    /// symlinks; only regular files add a back-end stat each.
    ReaddirPlus {
        /// Virtual path.
        path: String,
    },
    /// `rename(2)` — atomic multi in the coordination service; the FID (and
    /// hence the data) never moves (§IV-A).
    Rename {
        /// Source virtual path.
        from: String,
        /// Destination virtual path (must not exist).
        to: String,
    },
    /// `symlink(2)` — metadata only.
    Symlink {
        /// Link target.
        target: String,
        /// Link path.
        link: String,
    },
    /// `readlink(2)` — metadata only.
    Readlink {
        /// Virtual path.
        path: String,
    },
    /// `chmod(2)` — znode for directories/symlinks, physical file for files.
    Chmod {
        /// Virtual path.
        path: String,
        /// New mode bits.
        mode: u32,
    },
    /// `access(2)` with an R/W/X bitmask.
    Access {
        /// Virtual path.
        path: String,
        /// R=4 / W=2 / X=1 bitmask.
        mask: u32,
    },
    /// `truncate(2)` — data path.
    Truncate {
        /// Virtual path.
        path: String,
        /// New size.
        size: u64,
    },
    /// `pread(2)` by path.
    Read {
        /// Virtual path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Bytes wanted.
        len: usize,
    },
    /// `pwrite(2)` by path.
    Write {
        /// Virtual path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Bytes,
    },
    /// `utimens(2)` — explicit atime/mtime (regular files only; directory
    /// times are owned by the coordination service's transaction clock).
    Utimens {
        /// Virtual path.
        path: String,
        /// New access time (ns).
        atime_ns: u64,
        /// New modification time (ns).
        mtime_ns: u64,
    },
    /// `statfs(2)` — aggregate usage across every merged back-end mount.
    StatFs,
}

/// A request to one back-end filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendReq {
    /// Create the physical file (and its static shard directories).
    CreateFile {
        /// Physical path.
        path: String,
        /// Mode bits.
        mode: u32,
    },
    /// Remove the physical file.
    Unlink {
        /// Physical path.
        path: String,
    },
    /// Stat the physical file.
    Stat {
        /// Physical path.
        path: String,
    },
    /// chmod the physical file.
    Chmod {
        /// Physical path.
        path: String,
        /// New mode.
        mode: u32,
    },
    /// access(2) check on the physical file.
    Access {
        /// Physical path.
        path: String,
        /// R/W/X mask.
        mask: u32,
    },
    /// Truncate the physical file.
    Truncate {
        /// Physical path.
        path: String,
        /// New size.
        size: u64,
    },
    /// Read a byte range.
    Read {
        /// Physical path.
        path: String,
        /// Offset.
        offset: u64,
        /// Length.
        len: usize,
    },
    /// Write a byte range.
    Write {
        /// Physical path.
        path: String,
        /// Offset.
        offset: u64,
        /// Payload.
        data: Bytes,
    },
    /// Set access/modification times.
    SetTimes {
        /// Physical path.
        path: String,
        /// Access time (ns).
        atime_ns: u64,
        /// Modification time (ns).
        mtime_ns: u64,
    },
    /// Mount usage summary.
    StatFs,
}

/// Response to a [`BackendReq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendResp {
    /// For CreateFile/Unlink/Chmod/Truncate.
    Unit(Result<(), FsError>),
    /// For Stat.
    Attr(Result<FileAttr, FsError>),
    /// For Access.
    Allowed(Result<bool, FsError>),
    /// For Read.
    Data(Result<Bytes, FsError>),
    /// For Write.
    Written(Result<usize, FsError>),
    /// For StatFs.
    Usage(dufs_backendfs::MountUsage),
}

/// Entry kinds in the virtual namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

/// POSIX-style attributes DUFS returns (a `struct stat`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DufsAttr {
    /// Entry kind.
    pub kind: NodeKind,
    /// Mode bits.
    pub mode: u32,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u32,
    /// Access time (ns).
    pub atime_ns: u64,
    /// Modification time (ns).
    pub mtime_ns: u64,
    /// Change time (ns).
    pub ctime_ns: u64,
}

impl DufsAttr {
    /// Build a directory attr from the znode stat + meta (paper Fig 6:
    /// "Fill the struct stat with information stored in ZooKeeper").
    pub fn from_znode_dir(stat: &Stat, mode: u32) -> Self {
        DufsAttr {
            kind: NodeKind::Dir,
            mode,
            size: 0,
            nlink: 2 + stat.num_children,
            atime_ns: stat.mtime_ns,
            mtime_ns: stat.mtime_ns.max(stat.ctime_ns),
            ctime_ns: stat.ctime_ns,
        }
    }

    /// Build a file attr from the physical file's attributes.
    pub fn from_backend_file(attr: &FileAttr) -> Self {
        DufsAttr {
            kind: match attr.kind {
                FileKind::File => NodeKind::File,
                FileKind::Dir => NodeKind::Dir,
                FileKind::Symlink => NodeKind::Symlink,
            },
            mode: attr.mode,
            size: attr.size,
            nlink: attr.nlink,
            atime_ns: attr.atime_ns,
            mtime_ns: attr.mtime_ns,
            ctime_ns: attr.ctime_ns,
        }
    }

    /// Build a symlink attr from znode info.
    pub fn from_znode_symlink(stat: &Stat, mode: u32, target_len: usize) -> Self {
        DufsAttr {
            kind: NodeKind::Symlink,
            mode,
            size: target_len as u64,
            nlink: 1,
            atime_ns: stat.mtime_ns,
            mtime_ns: stat.mtime_ns,
            ctime_ns: stat.ctime_ns,
        }
    }
}

/// Result payload of a finished operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Nothing beyond success.
    Unit,
    /// The created file's FID.
    Created(Fid),
    /// An opened file's FID (the handle key).
    Opened(Fid),
    /// Attributes.
    Attr(DufsAttr),
    /// Directory entries.
    Names(Vec<String>),
    /// Directory entries with attributes (readdir_plus).
    Entries(Vec<(String, DufsAttr)>),
    /// Symlink target.
    Target(String),
    /// Access check result.
    Allowed(bool),
    /// Read data.
    Data(Bytes),
    /// Bytes written.
    Written(usize),
    /// Aggregated filesystem usage.
    StatFs(DufsStatFs),
}

/// Aggregate usage across all merged back-end mounts (`statfs(2)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DufsStatFs {
    /// Merged back-end mounts.
    pub backends: u64,
    /// Physical namespace entries across mounts (files + shard dirs).
    pub physical_entries: u64,
    /// Live data objects (≈ regular files).
    pub objects: u64,
    /// Bytes stored across all mounts.
    pub bytes_used: u64,
}

/// One back-end call: the mount and the request.
type Call = (usize, BackendReq);

/// The back-end hop on file `fid` (paper Fig 3 steps C–D): the
/// deterministic mapping picks the mount, the FID names the physical file,
/// and `req` builds the request around that path. Every back-end request
/// on a file is built here, the handle fast path of [`crate::vfs`] too.
pub(crate) fn file_call(
    mapper: &dyn BackendMapper,
    fid: Fid,
    req: impl FnOnce(String) -> BackendReq,
) -> Call {
    (mapper.backend_of(fid), req(shard::physical_path("/", fid)))
}

/// The op's answer carried by a back-end reply.
///
/// # Panics
/// On a mount-usage reply, which only a statfs sweep awaits (driver bug).
pub(crate) fn backend_output(resp: BackendResp) -> DufsResult<OpOutput> {
    Ok(match resp {
        BackendResp::Unit(r) => r.map(|()| OpOutput::Unit)?,
        BackendResp::Attr(r) => OpOutput::Attr(DufsAttr::from_backend_file(&r?)),
        BackendResp::Allowed(r) => OpOutput::Allowed(r?),
        BackendResp::Data(r) => OpOutput::Data(r?),
        BackendResp::Written(r) => OpOutput::Written(r?),
        BackendResp::Usage(u) => panic!("mount usage outside a statfs sweep: {u:?}"),
    })
}

/// The services an op runs against: the coordination service and the
/// back-end mounts, one request and its reply at a time.
pub trait PlanIo {
    /// Send `req` to the coordination service; its reply.
    fn coord(&mut self, req: ZkRequest) -> impl Future<Output = ZkResponse>;
    /// Send `req` to back-end mount `backend`; its reply.
    fn backend(&mut self, backend: usize, req: BackendReq) -> impl Future<Output = BackendResp>;
}

/// Run `op` over `io`. `mint_fid` supplies a fresh FID if the op is a
/// `Create` (minted by the client instance, §IV-E); `mapper` is the
/// deterministic mapping function.
///
/// # Panics
/// On a reply of the wrong kind for its request (an io bug).
pub async fn run(
    op: MetaOp,
    mint_fid: impl FnOnce() -> Fid,
    mapper: &dyn BackendMapper,
    io: &mut impl PlanIo,
) -> DufsResult<OpOutput> {
    let mut p = Planner { mapper, io };
    let path = match op {
        MetaOp::Mkdir { path, mode } => return p.create(path, NodeMeta::dir(mode)).await,
        MetaOp::Symlink { target, link } => {
            return p.create(link, NodeMeta::symlink(target)).await;
        }
        MetaOp::Create { path, mode } => {
            let fid = mint_fid();
            p.create(path.clone(), NodeMeta::file(fid, mode)).await?;
            let call = file_call(mapper, fid, |path| BackendReq::CreateFile { path, mode });
            return match p.hop(call).await {
                BackendResp::Unit(Ok(())) => Ok(OpOutput::Created(fid)),
                // Roll the znode back so the namespace does not point at
                // nothing; whatever that answers, the op fails.
                BackendResp::Unit(Err(e)) => {
                    p.io.coord(ZkRequest::Delete { path, version: None }).await;
                    Err(e.into())
                }
                r => unexpected(r),
            };
        }
        MetaOp::Readdir { path } => {
            return match p.coord(ZkRequest::GetChildren { path, watch: false }).await? {
                ZkResponse::Children { names, .. } => Ok(OpOutput::Names(names)),
                r => unexpected(r),
            };
        }
        MetaOp::ReaddirPlus { path } => return p.readdir_plus(path).await,
        MetaOp::StatFs => return p.statfs().await,
        MetaOp::Rename { ref from, ref to } => {
            // The destination is a create inside the rename's multi.
            p.parent_check(parent_dir(to)).await?;
            from.clone()
        }
        MetaOp::Rmdir { ref path }
        | MetaOp::Open { ref path }
        | MetaOp::Unlink { ref path }
        | MetaOp::Stat { ref path }
        | MetaOp::Readlink { ref path }
        | MetaOp::Chmod { ref path, .. }
        | MetaOp::Access { ref path, .. }
        | MetaOp::Truncate { ref path, .. }
        | MetaOp::Read { ref path, .. }
        | MetaOp::Write { ref path, .. }
        | MetaOp::Utimens { ref path, .. } => path.clone(),
    };
    // Fig 3 step B: the lookup of the op's own path.
    match p.coord(get_data(path)).await? {
        ZkResponse::Data { data, stat } => {
            let meta = NodeMeta::decode(&data)?;
            p.looked_up(op, meta, data, &stat).await
        }
        r => unexpected(r),
    }
}

/// A reply of the wrong kind for its request.
fn unexpected(reply: impl Debug) -> ! {
    panic!("unexpected reply {reply:?}")
}

fn get_data(path: String) -> ZkRequest {
    ZkRequest::GetData { path, watch: false }
}

/// One op in flight: the mapping it places files by and the services it
/// sends on.
struct Planner<'a, I> {
    mapper: &'a dyn BackendMapper,
    io: &'a mut I,
}

impl<I: PlanIo> Planner<'_, I> {
    /// Send coordination request `req`; an error reply fails the op.
    async fn coord(&mut self, req: ZkRequest) -> DufsResult<ZkResponse> {
        match self.io.coord(req).await {
            ZkResponse::Error(e) => Err(e.into()),
            reply => Ok(reply),
        }
    }

    /// Send write `req`; its success answers the op.
    async fn write(&mut self, req: ZkRequest) -> DufsResult<OpOutput> {
        match self.coord(req).await? {
            ZkResponse::Created { .. }
            | ZkResponse::Deleted
            | ZkResponse::Stat(_)
            | ZkResponse::MultiResults(_) => Ok(OpOutput::Unit),
            r => unexpected(r),
        }
    }

    /// The back-end hop (Fig 3 step D): send back-end call `(backend, req)`.
    async fn hop(&mut self, (backend, req): Call) -> BackendResp {
        self.io.backend(backend, req).await
    }

    /// Check that `parent` is a directory, unless it is the root (always
    /// one). POSIX requires ENOTDIR when the parent is a file; a bare
    /// znode create would happily nest under anything.
    async fn parent_check(&mut self, parent: &str) -> DufsResult<()> {
        if parent == "/" {
            return Ok(());
        }
        match self.coord(get_data(parent.to_string())).await? {
            ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                Ok(meta) if meta.is_dir() => Ok(()),
                r => Err(r.err().unwrap_or(DufsError::NotDir)),
            },
            r => unexpected(r),
        }
    }

    /// A namespace create of `meta` at `path`, behind its parent check.
    async fn create(&mut self, path: String, meta: NodeMeta) -> DufsResult<OpOutput> {
        self.parent_check(parent_dir(&path)).await?;
        self.write(ZkRequest::Create { path, data: meta.encode(), mode: CreateMode::Persistent })
            .await
    }

    /// The op's answer once its path's znode is known: from the metadata
    /// alone, after one more coordination request, or after the back-end
    /// hop on the file's FID.
    async fn looked_up(
        &mut self,
        op: MetaOp,
        meta: NodeMeta,
        data: Bytes,
        stat: &Stat,
    ) -> DufsResult<OpOutput> {
        use NodeMeta::{Dir, File, Symlink};
        match (op, meta) {
            (MetaOp::Rmdir { path }, Dir { .. }) => {
                self.write(ZkRequest::Delete { path, version: None }).await
            }
            (MetaOp::Rmdir { .. }, _) => Err(DufsError::NotDir),
            (MetaOp::Unlink { .. }, Dir { .. }) => Err(DufsError::IsDir),
            (MetaOp::Unlink { path }, meta) => {
                self.write(ZkRequest::Delete { path, version: None }).await?;
                // A symlink is metadata only; a file's data is reaped
                // after. The name is gone either way: a failed reap is
                // ignored, as the prototype logs and ignores it.
                if let Some(fid) = meta.fid() {
                    let call = file_call(self.mapper, fid, |path| BackendReq::Unlink { path });
                    match self.hop(call).await {
                        BackendResp::Unit(_) => {}
                        r => unexpected(r),
                    }
                }
                Ok(OpOutput::Unit)
            }
            // Paper Fig 6: a directory's `struct stat` is filled from the
            // coordination service alone; so is a symlink's.
            (MetaOp::Stat { .. }, Dir { mode }) => {
                Ok(OpOutput::Attr(DufsAttr::from_znode_dir(stat, mode)))
            }
            (MetaOp::Stat { .. }, Symlink { target, mode }) => {
                Ok(OpOutput::Attr(DufsAttr::from_znode_symlink(stat, mode, target.len())))
            }
            (MetaOp::Readlink { .. }, Symlink { target, .. }) => Ok(OpOutput::Target(target)),
            (MetaOp::Readlink { .. }, _) => Err(DufsError::Inval),
            (MetaOp::Chmod { path, mode }, meta @ (Dir { .. } | Symlink { .. })) => {
                let data = meta.with_mode(mode & 0o7777).encode();
                self.write(ZkRequest::SetData { path, data, version: None }).await
            }
            (MetaOp::Access { mask, .. }, meta @ (Dir { .. } | Symlink { .. })) => {
                let owner = (meta.mode() >> 6) & 0o7;
                Ok(OpOutput::Allowed(owner & mask == mask))
            }
            // Directory/symlink timestamps are transaction-clocked by the
            // coordination service; accept and ignore, as the FUSE
            // prototype does for metadata-only nodes.
            (MetaOp::Utimens { .. }, Dir { .. } | Symlink { .. }) => Ok(OpOutput::Unit),
            (MetaOp::Rename { from, to }, meta) => self.rename(from, to, meta, data).await,
            (op, File { fid, .. }) => {
                let open = matches!(op, MetaOp::Open { .. });
                let call = file_call(self.mapper, fid, |path| match op {
                    MetaOp::Open { .. } | MetaOp::Stat { .. } => BackendReq::Stat { path },
                    MetaOp::Chmod { mode, .. } => BackendReq::Chmod { path, mode },
                    MetaOp::Access { mask, .. } => BackendReq::Access { path, mask },
                    MetaOp::Truncate { size, .. } => BackendReq::Truncate { path, size },
                    MetaOp::Read { offset, len, .. } => BackendReq::Read { path, offset, len },
                    MetaOp::Write { offset, data, .. } => BackendReq::Write { path, offset, data },
                    MetaOp::Utimens { atime_ns, mtime_ns, .. } => {
                        BackendReq::SetTimes { path, atime_ns, mtime_ns }
                    }
                    op => unreachable!("{op:?} has no back-end hop after its lookup"),
                });
                match self.hop(call).await {
                    // `open`: the physical file is there; the answer is
                    // its FID.
                    BackendResp::Attr(r) if open => Ok(OpOutput::Opened(r.map(|_| fid)?)),
                    r if open => unexpected(r),
                    r => backend_output(r),
                }
            }
            // open, truncate, read and write name a regular file.
            (_, Dir { .. }) => Err(DufsError::IsDir),
            (_, Symlink { .. }) => Err(DufsError::Inval),
        }
    }

    /// readdir_plus: the batched listing, then a back-end stat per regular
    /// file.
    async fn readdir_plus(&mut self, path: String) -> DufsResult<OpOutput> {
        let entries = match self.coord(ZkRequest::GetChildrenData { path }).await? {
            ZkResponse::ChildrenData { entries } => entries,
            r => unexpected(r),
        };
        let mut done = Vec::with_capacity(entries.len());
        let mut files = Vec::new();
        for (name, data, stat) in entries {
            match NodeMeta::decode(&data)? {
                NodeMeta::Dir { mode } => done.push((name, DufsAttr::from_znode_dir(&stat, mode))),
                NodeMeta::Symlink { target, mode } => {
                    done.push((name, DufsAttr::from_znode_symlink(&stat, mode, target.len())))
                }
                NodeMeta::File { fid, .. } => files.push((name, fid)),
            }
        }
        if files.is_empty() {
            return Ok(OpOutput::Entries(done));
        }
        for (name, fid) in files {
            match self.hop(file_call(self.mapper, fid, |path| BackendReq::Stat { path })).await {
                BackendResp::Attr(Ok(attr)) => {
                    done.push((name, DufsAttr::from_backend_file(&attr)))
                }
                // A racing unlink between listing and stat: skip the entry
                // rather than failing the whole listing.
                BackendResp::Attr(Err(FsError::NoEnt)) => {}
                BackendResp::Attr(Err(e)) => return Err(e.into()),
                r => unexpected(r),
            }
        }
        // The files came after the rest: back to the listing's name order.
        done.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(OpOutput::Entries(done))
    }

    /// statfs: the usage of every mount, summed.
    async fn statfs(&mut self) -> DufsResult<OpOutput> {
        let backends = self.mapper.n_backends();
        let mut acc = DufsStatFs { backends: backends as u64, ..Default::default() };
        for backend in 0..backends {
            match self.io.backend(backend, BackendReq::StatFs).await {
                BackendResp::Usage(u) => {
                    acc.physical_entries += u.entries;
                    acc.objects += u.objects;
                    acc.bytes_used += u.bytes_used;
                }
                r => unexpected(r),
            }
        }
        Ok(OpOutput::StatFs(acc))
    }

    /// rename: walk the source subtree breadth-first (each listing's
    /// entries fetched before the next listing, so `moved` holds parents
    /// before children), then move every name in one atomic multi —
    /// creates parent-first, deletes children-first. The FID moves with
    /// the name; the data never does (§IV-A).
    async fn rename(
        &mut self,
        from: String,
        to: String,
        meta: NodeMeta,
        data: Bytes,
    ) -> DufsResult<OpOutput> {
        let mut dirs = if meta.is_dir() { VecDeque::from([from.clone()]) } else { VecDeque::new() };
        let mut moved = vec![(from, data)];
        while let Some(dir) = dirs.pop_front() {
            let names =
                match self.coord(ZkRequest::GetChildren { path: dir.clone(), watch: false }).await?
                {
                    ZkResponse::Children { names, .. } => names,
                    r => unexpected(r),
                };
            for name in names {
                let path = format!("{dir}/{name}");
                let data = match self.coord(get_data(path.clone())).await? {
                    ZkResponse::Data { data, .. } => data,
                    r => unexpected(r),
                };
                if NodeMeta::decode(&data).is_ok_and(|m| m.is_dir()) {
                    dirs.push_back(path.clone());
                }
                moved.push((path, data));
            }
        }
        let root = moved[0].0.len();
        let creates = moved.iter().map(|(old, data)| MultiOp::Create {
            path: format!("{to}{}", &old[root..]),
            data: data.clone(),
            mode: CreateMode::Persistent,
        });
        let deletes =
            moved.iter().rev().map(|(old, _)| MultiOp::Delete { path: old.clone(), version: None });
        self.write(ZkRequest::Multi { ops: creates.chain(deletes).collect() }).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Md5Mapping;
    use dufs_coord::session::ready;

    // Every op's full request sequence is pinned by the golden transcript
    // (`tests/plan_transcript.rs`); these check the paper's invariants by
    // value.

    fn mapper() -> Md5Mapping {
        Md5Mapping::new(2)
    }

    /// A request the op sent.
    #[derive(Debug)]
    enum Sent {
        Zk(ZkRequest),
        Backend(usize, BackendReq),
    }

    /// Scripted replies, in order; records every request.
    #[derive(Default)]
    struct Script {
        zk: VecDeque<ZkResponse>,
        backend: VecDeque<BackendResp>,
        sent: Vec<Sent>,
    }

    impl PlanIo for Script {
        async fn coord(&mut self, req: ZkRequest) -> ZkResponse {
            self.sent.push(Sent::Zk(req));
            self.zk.pop_front().expect("a scripted coordination reply")
        }

        async fn backend(&mut self, backend: usize, req: BackendReq) -> BackendResp {
            self.sent.push(Sent::Backend(backend, req));
            self.backend.pop_front().expect("a scripted back-end reply")
        }
    }

    #[test]
    fn create_goes_zk_then_backend() {
        let m = mapper();
        let fid = Fid::new(5, 1);
        let mut io = Script {
            zk: VecDeque::from([ZkResponse::Created { path: "/f".into() }]),
            backend: VecDeque::from([BackendResp::Unit(Ok(()))]),
            ..Script::default()
        };
        let op = MetaOp::Create { path: "/f".into(), mode: 0o644 };
        assert_eq!(ready(run(op, || fid, &m, &mut io)), Ok(OpOutput::Created(fid)));
        match &io.sent[..] {
            [Sent::Zk(ZkRequest::Create { .. }), Sent::Backend(backend, BackendReq::CreateFile { path, mode })] =>
            {
                assert_eq!(*backend, m.backend_of(fid));
                assert_eq!(*path, shard::physical_path("/", fid));
                assert_eq!(*mode, 0o644);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stat_of_directory_never_touches_backend() {
        // Paper §IV-B: "the directory stat() operation is satisfied at the
        // Zookeeper level itself".
        let stat = Stat { num_children: 3, ctime_ns: 7, mtime_ns: 9, ..Default::default() };
        let data = NodeMeta::dir(0o700).encode();
        let mut io =
            Script { zk: VecDeque::from([ZkResponse::Data { data, stat }]), ..Script::default() };
        let op = MetaOp::Stat { path: "/d".into() };
        match ready(run(op, || unreachable!(), &mapper(), &mut io)) {
            Ok(OpOutput::Attr(a)) => {
                assert_eq!(a.kind, NodeKind::Dir);
                assert_eq!(a.mode, 0o700);
                assert_eq!(a.nlink, 5);
                assert_eq!(a.ctime_ns, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(io.sent.len(), 1, "{:?}", io.sent);
    }

    #[test]
    fn data_ops_route_to_the_mapped_backend() {
        let m = mapper();
        let fid = Fid::new(77, 3);
        let data = NodeMeta::file(fid, 0o644).encode();
        let mut io = Script {
            zk: VecDeque::from([ZkResponse::Data { data, stat: Stat::default() }]),
            backend: VecDeque::from([BackendResp::Written(Ok(2))]),
            ..Script::default()
        };
        let op = MetaOp::Write { path: "/f".into(), offset: 4, data: Bytes::from_static(b"xy") };
        assert_eq!(ready(run(op, || unreachable!(), &m, &mut io)), Ok(OpOutput::Written(2)));
        match &io.sent[..] {
            [Sent::Zk(ZkRequest::GetData { .. }), Sent::Backend(backend, BackendReq::Write { path, offset, data })] =>
            {
                assert_eq!(*backend, m.backend_of(fid));
                assert_eq!(*path, shard::physical_path("/", fid));
                assert_eq!(*offset, 4);
                assert_eq!(&data[..], b"xy");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
