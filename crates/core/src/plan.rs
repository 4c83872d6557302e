//! Metadata-operation planner: every DUFS operation as a resumable
//! continuation over coordination-service and back-end requests.
//!
//! The paper's Fig 3 decomposes `open()` into steps A–D: FUSE dispatch,
//! ZooKeeper lookup, deterministic mapping, back-end access. [`OpExec`]
//! encodes that decomposition — and the analogous ones for all other
//! operations (Figs 5 and 6 give mkdir and stat) — as an explicit state
//! machine: `start` yields the first request, `feed` consumes its response
//! and yields the next, until [`PlanStep::Done`].
//!
//! Two drivers consume it:
//! * [`crate::vfs::Dufs`] executes steps synchronously against live
//!   services (the library / threaded runtime);
//! * the simulated DUFS client in `dufs-mdtest` turns each step into a
//!   timed network message (the performance evaluation).
//!
//! One implementation of the semantics, no divergence between what is
//! functionally tested and what is measured.

use std::collections::VecDeque;

use bytes::Bytes;

use dufs_backendfs::{FileAttr, FileKind, FsError};
use dufs_coord::shard::parent_dir;
use dufs_coord::{ZkRequest, ZkResponse};
use dufs_zkstore::{CreateMode, MultiOp, Stat, ZkError};

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

/// What the driver must do next.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Issue this request to the coordination service.
    Zk(ZkRequest),
    /// Issue this request to back-end `backend`.
    Backend {
        /// Which back-end mount.
        backend: usize,
        /// The request.
        req: BackendReq,
    },
    /// The operation finished.
    Done(DufsResult<OpOutput>),
}

/// A driver's reply to a non-`Done` step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepResponse {
    /// Coordination-service response.
    Zk(ZkResponse),
    /// Back-end response.
    Backend(BackendResp),
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

/// Internal continuation state.
#[derive(Debug)]
enum St {
    /// Awaiting the parent's metadata before a namespace create (POSIX
    /// requires ENOTDIR when the parent is a file; a bare znode create
    /// would happily nest under anything).
    ParentCheck {
        next: Box<St>,
        create: ZkRequest,
    },
    MkdirWait,
    RmdirGet {
        path: String,
    },
    RmdirDelete,
    CreateZk {
        fid: Fid,
        mode: u32,
        path: String,
    },
    CreateBackend {
        fid: Fid,
        path: String,
    },
    CreateCleanup {
        err: DufsError,
    },
    OpenGet,
    OpenVerify {
        fid: Fid,
    },
    UnlinkGet {
        path: String,
    },
    UnlinkZk {
        fid: Option<Fid>,
    },
    UnlinkBackend,
    StatGet,
    StatBackend,
    ReaddirWait,
    RdPlusList,
    RdPlusStats {
        /// Completed entries (metadata-only kinds resolved immediately).
        done: Vec<(String, DufsAttr)>,
        /// Files awaiting a back-end stat: (name, fid).
        pending: VecDeque<(String, Fid)>,
        /// The file whose stat is in flight.
        current: (String, Fid),
    },
    SymlinkWait,
    ReadlinkGet,
    ChmodGet {
        path: String,
        mode: u32,
    },
    ChmodZkSet,
    ChmodBackend,
    AccessGet {
        mask: u32,
    },
    AccessBackend,
    TruncGet {
        size: u64,
    },
    TruncBackend,
    ReadGet {
        offset: u64,
        len: usize,
    },
    ReadBackend,
    WriteGet {
        offset: u64,
        data: Bytes,
    },
    WriteBackend,
    RenameGetSrc {
        from: String,
        to: String,
    },
    RenameList {
        from: String,
        to: String,
        /// Directories (relative to `from`, "" = the root) whose children we
        /// still need to list.
        dirs: VecDeque<String>,
        /// Entry paths (relative) whose metadata we still need to fetch.
        gets: VecDeque<String>,
        /// Collected (relative path, data), parent-first.
        collected: Vec<(String, Bytes)>,
        /// The `from` root's own data.
        root_data: Bytes,
    },
    RenameMulti,
    UtimensGet {
        atime_ns: u64,
        mtime_ns: u64,
    },
    UtimensBackend,
    StatFsSweep {
        acc: DufsStatFs,
        next_backend: usize,
        total: usize,
    },
    Finished,
}

/// The resumable executor for one operation.
#[derive(Debug)]
pub struct OpExec {
    st: St,
    /// Count of driver round trips so far (for diagnostics/accounting).
    steps: u32,
}

fn join_rel(root: &str, rel: &str) -> String {
    if rel.is_empty() {
        root.to_string()
    } else {
        format!("{root}/{rel}")
    }
}

/// Relative path of child `name` inside relative directory `dir`
/// (`""` = the subtree root).
fn child_rel(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else {
        format!("{dir}/{name}")
    }
}

/// Build the (state, first step) pair for a namespace create: a parent
/// metadata check first, unless the parent is the root (always a
/// directory).
fn parent_checked(path: String, next: St, create: ZkRequest) -> (St, PlanStep) {
    let parent = parent_dir(&path).to_string();
    if parent == "/" {
        (next, PlanStep::Zk(create))
    } else {
        (
            St::ParentCheck { next: Box::new(next), create },
            PlanStep::Zk(ZkRequest::GetData { path: parent, watch: false }),
        )
    }
}

impl OpExec {
    /// Begin executing `op`. `mint_fid` supplies a fresh FID if the op is a
    /// `Create` (minted by the client instance, §IV-E); `mapper` is the
    /// deterministic mapping function.
    pub fn start(
        op: MetaOp,
        mint_fid: impl FnOnce() -> Fid,
        mapper: &dyn BackendMapper,
    ) -> (OpExec, PlanStep) {
        let _ = mapper;
        let (st, step) = match op {
            MetaOp::Mkdir { path, mode } => {
                let create = ZkRequest::Create {
                    path: path.clone(),
                    data: NodeMeta::dir(mode).encode(),
                    mode: CreateMode::Persistent,
                };
                parent_checked(path, St::MkdirWait, create)
            }
            MetaOp::Rmdir { path } => (
                St::RmdirGet { path: path.clone() },
                PlanStep::Zk(ZkRequest::GetData { path, watch: false }),
            ),
            MetaOp::Create { path, mode } => {
                let fid = mint_fid();
                let create = ZkRequest::Create {
                    path: path.clone(),
                    data: NodeMeta::file(fid, mode).encode(),
                    mode: CreateMode::Persistent,
                };
                parent_checked(path.clone(), St::CreateZk { fid, mode, path }, create)
            }
            MetaOp::Open { path } => {
                (St::OpenGet, PlanStep::Zk(ZkRequest::GetData { path, watch: false }))
            }
            MetaOp::Unlink { path } => (
                St::UnlinkGet { path: path.clone() },
                PlanStep::Zk(ZkRequest::GetData { path, watch: false }),
            ),
            MetaOp::Stat { path } => {
                (St::StatGet, PlanStep::Zk(ZkRequest::GetData { path, watch: false }))
            }
            MetaOp::Readdir { path } => {
                (St::ReaddirWait, PlanStep::Zk(ZkRequest::GetChildren { path, watch: false }))
            }
            MetaOp::ReaddirPlus { path } => {
                (St::RdPlusList, PlanStep::Zk(ZkRequest::GetChildrenData { path }))
            }
            MetaOp::Rename { from, to } => (
                St::RenameGetSrc { from: from.clone(), to },
                PlanStep::Zk(ZkRequest::GetData { path: from, watch: false }),
            ),
            MetaOp::Symlink { target, link } => {
                let create = ZkRequest::Create {
                    path: link.clone(),
                    data: NodeMeta::symlink(target).encode(),
                    mode: CreateMode::Persistent,
                };
                parent_checked(link, St::SymlinkWait, create)
            }
            MetaOp::Readlink { path } => {
                (St::ReadlinkGet, PlanStep::Zk(ZkRequest::GetData { path, watch: false }))
            }
            MetaOp::Chmod { path, mode } => (
                St::ChmodGet { path: path.clone(), mode },
                PlanStep::Zk(ZkRequest::GetData { path, watch: false }),
            ),
            MetaOp::Access { path, mask } => {
                (St::AccessGet { mask }, PlanStep::Zk(ZkRequest::GetData { path, watch: false }))
            }
            MetaOp::Truncate { path, size } => {
                (St::TruncGet { size }, PlanStep::Zk(ZkRequest::GetData { path, watch: false }))
            }
            MetaOp::Read { path, offset, len } => (
                St::ReadGet { offset, len },
                PlanStep::Zk(ZkRequest::GetData { path, watch: false }),
            ),
            MetaOp::Write { path, offset, data } => (
                St::WriteGet { offset, data },
                PlanStep::Zk(ZkRequest::GetData { path, watch: false }),
            ),
            MetaOp::Utimens { path, atime_ns, mtime_ns } => (
                St::UtimensGet { atime_ns, mtime_ns },
                PlanStep::Zk(ZkRequest::GetData { path, watch: false }),
            ),
            MetaOp::StatFs => {
                let total = mapper.n_backends();
                (
                    St::StatFsSweep {
                        acc: DufsStatFs { backends: total as u64, ..Default::default() },
                        next_backend: 1,
                        total,
                    },
                    PlanStep::Backend { backend: 0, req: BackendReq::StatFs },
                )
            }
        };
        (OpExec { st, steps: 1 }, step)
    }

    /// Driver round trips issued so far.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    fn done(&mut self, r: DufsResult<OpOutput>) -> PlanStep {
        self.st = St::Finished;
        PlanStep::Done(r)
    }

    fn fail(&mut self, e: impl Into<DufsError>) -> PlanStep {
        self.done(Err(e.into()))
    }

    /// Feed the response for the previously returned step; get the next.
    ///
    /// # Panics
    /// Panics if called after [`PlanStep::Done`] or with a response of the
    /// wrong category (driver bug).
    pub fn feed(&mut self, resp: StepResponse, mapper: &dyn BackendMapper) -> PlanStep {
        self.steps += 1;
        let st = std::mem::replace(&mut self.st, St::Finished);
        match st {
            St::Finished => panic!("feed() after Done"),
            St::ParentCheck { next, create } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::Dir { .. }) => {
                        self.st = *next;
                        PlanStep::Zk(create)
                    }
                    Ok(_) => self.fail(DufsError::NotDir),
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("parent check: unexpected {other:?}"),
            },
            // ---------------- mkdir (paper Fig 5) ----------------
            St::MkdirWait => match expect_zk(resp) {
                ZkResponse::Created { .. } => self.done(Ok(OpOutput::Unit)),
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("mkdir: unexpected {other:?}"),
            },
            // ---------------- rmdir ----------------
            St::RmdirGet { path } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::Dir { .. }) => {
                        self.st = St::RmdirDelete;
                        PlanStep::Zk(ZkRequest::Delete { path, version: None })
                    }
                    Ok(_) => self.fail(DufsError::NotDir),
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("rmdir: unexpected {other:?}"),
            },
            St::RmdirDelete => match expect_zk(resp) {
                ZkResponse::Deleted => self.done(Ok(OpOutput::Unit)),
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("rmdir: unexpected {other:?}"),
            },
            // ---------------- create ----------------
            St::CreateZk { fid, mode, path } => match expect_zk(resp) {
                ZkResponse::Created { .. } => {
                    self.st = St::CreateBackend { fid, path };
                    PlanStep::Backend {
                        backend: mapper.backend_of(fid),
                        req: BackendReq::CreateFile { path: shard::physical_path("/", fid), mode },
                    }
                }
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("create: unexpected {other:?}"),
            },
            St::CreateBackend { fid, path } => match expect_backend(resp) {
                BackendResp::Unit(Ok(())) => self.done(Ok(OpOutput::Created(fid))),
                BackendResp::Unit(Err(e)) => {
                    // Physical create failed: roll the znode back so the
                    // namespace does not point at nothing.
                    self.st = St::CreateCleanup { err: e.into() };
                    PlanStep::Zk(ZkRequest::Delete { path, version: None })
                }
                other => panic!("create: unexpected {other:?}"),
            },
            St::CreateCleanup { err } => {
                let _ = resp;
                self.done(Err(err))
            }
            // ---------------- open (paper Fig 3) ----------------
            St::OpenGet => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::File { fid, .. }) => {
                        self.st = St::OpenVerify { fid };
                        PlanStep::Backend {
                            backend: mapper.backend_of(fid),
                            req: BackendReq::Stat { path: shard::physical_path("/", fid) },
                        }
                    }
                    Ok(NodeMeta::Dir { .. }) => self.fail(DufsError::IsDir),
                    Ok(NodeMeta::Symlink { .. }) => self.fail(DufsError::Inval),
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("open: unexpected {other:?}"),
            },
            St::OpenVerify { fid } => match expect_backend(resp) {
                BackendResp::Attr(Ok(_)) => self.done(Ok(OpOutput::Opened(fid))),
                BackendResp::Attr(Err(e)) => self.fail(e),
                other => panic!("open: unexpected {other:?}"),
            },
            // ---------------- unlink ----------------
            St::UnlinkGet { path } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::Dir { .. }) => self.fail(DufsError::IsDir),
                    Ok(meta) => {
                        self.st = St::UnlinkZk { fid: meta.fid() };
                        PlanStep::Zk(ZkRequest::Delete { path, version: None })
                    }
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("unlink: unexpected {other:?}"),
            },
            St::UnlinkZk { fid } => match expect_zk(resp) {
                ZkResponse::Deleted => match fid {
                    Some(fid) => {
                        self.st = St::UnlinkBackend;
                        PlanStep::Backend {
                            backend: mapper.backend_of(fid),
                            req: BackendReq::Unlink { path: shard::physical_path("/", fid) },
                        }
                    }
                    None => self.done(Ok(OpOutput::Unit)), // symlink: metadata only
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("unlink: unexpected {other:?}"),
            },
            St::UnlinkBackend => match expect_backend(resp) {
                // The namespace entry is gone either way; physical reap
                // failures are logged-and-ignored in the prototype.
                BackendResp::Unit(_) => self.done(Ok(OpOutput::Unit)),
                other => panic!("unlink: unexpected {other:?}"),
            },
            // ---------------- stat (paper Fig 6) ----------------
            St::StatGet => match expect_zk(resp) {
                ZkResponse::Data { data, stat } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::Dir { mode }) => {
                        self.done(Ok(OpOutput::Attr(DufsAttr::from_znode_dir(&stat, mode))))
                    }
                    Ok(NodeMeta::Symlink { target, mode }) => self.done(Ok(OpOutput::Attr(
                        DufsAttr::from_znode_symlink(&stat, mode, target.len()),
                    ))),
                    Ok(NodeMeta::File { fid, .. }) => {
                        self.st = St::StatBackend;
                        PlanStep::Backend {
                            backend: mapper.backend_of(fid),
                            req: BackendReq::Stat { path: shard::physical_path("/", fid) },
                        }
                    }
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("stat: unexpected {other:?}"),
            },
            St::StatBackend => match expect_backend(resp) {
                BackendResp::Attr(Ok(attr)) => {
                    self.done(Ok(OpOutput::Attr(DufsAttr::from_backend_file(&attr))))
                }
                BackendResp::Attr(Err(e)) => self.fail(e),
                other => panic!("stat: unexpected {other:?}"),
            },
            // ---------------- readdir ----------------
            St::ReaddirWait => match expect_zk(resp) {
                ZkResponse::Children { names, .. } => self.done(Ok(OpOutput::Names(names))),
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("readdir: unexpected {other:?}"),
            },
            // ---------------- readdir_plus ----------------
            St::RdPlusList => match expect_zk(resp) {
                ZkResponse::ChildrenData { entries } => {
                    let mut done = Vec::with_capacity(entries.len());
                    let mut pending = VecDeque::new();
                    for (name, data, stat) in entries {
                        match NodeMeta::decode(&data) {
                            Ok(NodeMeta::Dir { mode }) => {
                                done.push((name, DufsAttr::from_znode_dir(&stat, mode)))
                            }
                            Ok(NodeMeta::Symlink { target, mode }) => done.push((
                                name,
                                DufsAttr::from_znode_symlink(&stat, mode, target.len()),
                            )),
                            Ok(NodeMeta::File { fid, .. }) => pending.push_back((name, fid)),
                            Err(e) => return self.fail(e),
                        }
                    }
                    match pending.pop_front() {
                        None => self.done(Ok(OpOutput::Entries(done))),
                        Some(current) => {
                            let fid = current.1;
                            self.st = St::RdPlusStats { done, pending, current };
                            PlanStep::Backend {
                                backend: mapper.backend_of(fid),
                                req: BackendReq::Stat { path: shard::physical_path("/", fid) },
                            }
                        }
                    }
                }
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("readdir_plus: unexpected {other:?}"),
            },
            St::RdPlusStats { mut done, mut pending, current } => match expect_backend(resp) {
                BackendResp::Attr(res) => {
                    let (name, _) = current;
                    match res {
                        Ok(attr) => done.push((name, DufsAttr::from_backend_file(&attr))),
                        // A racing unlink between listing and stat: skip the
                        // entry rather than failing the whole listing.
                        Err(FsError::NoEnt) => {}
                        Err(e) => return self.fail(e),
                    }
                    match pending.pop_front() {
                        None => {
                            done.sort_by(|a, b| a.0.cmp(&b.0));
                            self.done(Ok(OpOutput::Entries(done)))
                        }
                        Some(next) => {
                            let fid = next.1;
                            self.st = St::RdPlusStats { done, pending, current: next };
                            PlanStep::Backend {
                                backend: mapper.backend_of(fid),
                                req: BackendReq::Stat { path: shard::physical_path("/", fid) },
                            }
                        }
                    }
                }
                other => panic!("readdir_plus: unexpected {other:?}"),
            },
            // ---------------- symlink ----------------
            St::SymlinkWait => match expect_zk(resp) {
                ZkResponse::Created { .. } => self.done(Ok(OpOutput::Unit)),
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("symlink: unexpected {other:?}"),
            },
            // ---------------- readlink ----------------
            St::ReadlinkGet => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::Symlink { target, .. }) => self.done(Ok(OpOutput::Target(target))),
                    Ok(_) => self.fail(DufsError::Inval),
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("readlink: unexpected {other:?}"),
            },
            // ---------------- chmod ----------------
            St::ChmodGet { path, mode } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::File { fid, .. }) => {
                        self.st = St::ChmodBackend;
                        PlanStep::Backend {
                            backend: mapper.backend_of(fid),
                            req: BackendReq::Chmod { path: shard::physical_path("/", fid), mode },
                        }
                    }
                    Ok(meta) => {
                        self.st = St::ChmodZkSet;
                        PlanStep::Zk(ZkRequest::SetData {
                            path,
                            data: meta.with_mode(mode & 0o7777).encode(),
                            version: None,
                        })
                    }
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("chmod: unexpected {other:?}"),
            },
            St::ChmodZkSet => match expect_zk(resp) {
                ZkResponse::Stat(_) => self.done(Ok(OpOutput::Unit)),
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("chmod: unexpected {other:?}"),
            },
            St::ChmodBackend => match expect_backend(resp) {
                BackendResp::Unit(Ok(())) => self.done(Ok(OpOutput::Unit)),
                BackendResp::Unit(Err(e)) => self.fail(e),
                other => panic!("chmod: unexpected {other:?}"),
            },
            // ---------------- access ----------------
            St::AccessGet { mask } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::File { fid, .. }) => {
                        self.st = St::AccessBackend;
                        PlanStep::Backend {
                            backend: mapper.backend_of(fid),
                            req: BackendReq::Access { path: shard::physical_path("/", fid), mask },
                        }
                    }
                    Ok(meta) => {
                        let owner = (meta.mode() >> 6) & 0o7;
                        self.done(Ok(OpOutput::Allowed(owner & mask == mask)))
                    }
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("access: unexpected {other:?}"),
            },
            St::AccessBackend => match expect_backend(resp) {
                BackendResp::Allowed(Ok(a)) => self.done(Ok(OpOutput::Allowed(a))),
                BackendResp::Allowed(Err(e)) => self.fail(e),
                other => panic!("access: unexpected {other:?}"),
            },
            // ---------------- truncate ----------------
            St::TruncGet { size } => match self.file_fid_of(resp) {
                Ok(fid) => {
                    self.st = St::TruncBackend;
                    PlanStep::Backend {
                        backend: mapper.backend_of(fid),
                        req: BackendReq::Truncate { path: shard::physical_path("/", fid), size },
                    }
                }
                Err(step) => step,
            },
            St::TruncBackend => match expect_backend(resp) {
                BackendResp::Unit(Ok(())) => self.done(Ok(OpOutput::Unit)),
                BackendResp::Unit(Err(e)) => self.fail(e),
                other => panic!("truncate: unexpected {other:?}"),
            },
            // ---------------- read ----------------
            St::ReadGet { offset, len } => match self.file_fid_of(resp) {
                Ok(fid) => {
                    self.st = St::ReadBackend;
                    PlanStep::Backend {
                        backend: mapper.backend_of(fid),
                        req: BackendReq::Read { path: shard::physical_path("/", fid), offset, len },
                    }
                }
                Err(step) => step,
            },
            St::ReadBackend => match expect_backend(resp) {
                BackendResp::Data(Ok(d)) => self.done(Ok(OpOutput::Data(d))),
                BackendResp::Data(Err(e)) => self.fail(e),
                other => panic!("read: unexpected {other:?}"),
            },
            // ---------------- write ----------------
            St::WriteGet { offset, data } => match self.file_fid_of(resp) {
                Ok(fid) => {
                    self.st = St::WriteBackend;
                    PlanStep::Backend {
                        backend: mapper.backend_of(fid),
                        req: BackendReq::Write {
                            path: shard::physical_path("/", fid),
                            offset,
                            data,
                        },
                    }
                }
                Err(step) => step,
            },
            St::WriteBackend => match expect_backend(resp) {
                BackendResp::Written(Ok(n)) => self.done(Ok(OpOutput::Written(n))),
                BackendResp::Written(Err(e)) => self.fail(e),
                other => panic!("write: unexpected {other:?}"),
            },
            // ---------------- utimens ----------------
            St::UtimensGet { atime_ns, mtime_ns } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::File { fid, .. }) => {
                        self.st = St::UtimensBackend;
                        PlanStep::Backend {
                            backend: mapper.backend_of(fid),
                            req: BackendReq::SetTimes {
                                path: shard::physical_path("/", fid),
                                atime_ns,
                                mtime_ns,
                            },
                        }
                    }
                    // Directory/symlink timestamps are transaction-clocked
                    // by the coordination service; accept and ignore, as
                    // the FUSE prototype does for metadata-only nodes.
                    Ok(_) => self.done(Ok(OpOutput::Unit)),
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("utimens: unexpected {other:?}"),
            },
            St::UtimensBackend => match expect_backend(resp) {
                BackendResp::Unit(Ok(())) => self.done(Ok(OpOutput::Unit)),
                BackendResp::Unit(Err(e)) => self.fail(e),
                other => panic!("utimens: unexpected {other:?}"),
            },
            // ---------------- statfs ----------------
            St::StatFsSweep { mut acc, next_backend, total } => match expect_backend(resp) {
                BackendResp::Usage(u) => {
                    acc.physical_entries += u.entries;
                    acc.objects += u.objects;
                    acc.bytes_used += u.bytes_used;
                    if next_backend >= total {
                        self.done(Ok(OpOutput::StatFs(acc)))
                    } else {
                        self.st = St::StatFsSweep { acc, next_backend: next_backend + 1, total };
                        PlanStep::Backend { backend: next_backend, req: BackendReq::StatFs }
                    }
                }
                other => panic!("statfs: unexpected {other:?}"),
            },
            // ---------------- rename ----------------
            St::RenameGetSrc { from, to } => match expect_zk(resp) {
                ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                    Ok(NodeMeta::Dir { .. }) => {
                        // Directory: walk the subtree, then one atomic multi.
                        let mut dirs = VecDeque::new();
                        dirs.push_back(String::new());
                        let st = St::RenameList {
                            from: from.clone(),
                            to,
                            dirs,
                            gets: VecDeque::new(),
                            collected: Vec::new(),
                            root_data: data,
                        };
                        self.st = st;
                        self.rename_advance(from)
                    }
                    Ok(_) => {
                        // File or symlink: single atomic multi, FID moves
                        // with the name (the data never does — §IV-A).
                        self.st = St::RenameMulti;
                        PlanStep::Zk(ZkRequest::Multi {
                            ops: vec![
                                MultiOp::Create { path: to, data, mode: CreateMode::Persistent },
                                MultiOp::Delete { path: from, version: None },
                            ],
                        })
                    }
                    Err(e) => self.fail(e),
                },
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("rename: unexpected {other:?}"),
            },
            St::RenameList { from, to, mut dirs, mut gets, mut collected, root_data } => {
                match expect_zk(resp) {
                    ZkResponse::Children { names, .. } => {
                        // Children of the dir we last asked about — that is
                        // the front of `dirs`.
                        let dir = dirs.pop_front().expect("a listing was outstanding");
                        for n in names {
                            gets.push_back(child_rel(&dir, &n));
                        }
                        self.st = St::RenameList {
                            from: from.clone(),
                            to,
                            dirs,
                            gets,
                            collected,
                            root_data,
                        };
                        self.rename_advance(from)
                    }
                    ZkResponse::Data { data, .. } => {
                        let rel = collected_next_rel(&gets);
                        let rel = rel.expect("a get was outstanding");
                        gets.pop_front();
                        if matches!(NodeMeta::decode(&data), Ok(NodeMeta::Dir { .. })) {
                            dirs.push_back(rel.clone());
                        }
                        collected.push((rel, data));
                        self.st = St::RenameList {
                            from: from.clone(),
                            to,
                            dirs,
                            gets,
                            collected,
                            root_data,
                        };
                        self.rename_advance(from)
                    }
                    ZkResponse::Error(e) => self.fail(e),
                    other => panic!("rename-list: unexpected {other:?}"),
                }
            }
            St::RenameMulti => match expect_zk(resp) {
                ZkResponse::MultiResults(_) => self.done(Ok(OpOutput::Unit)),
                ZkResponse::Error(ZkError::NodeExists) => self.fail(DufsError::Exists),
                ZkResponse::Error(e) => self.fail(e),
                other => panic!("rename: unexpected {other:?}"),
            },
        }
    }

    /// Decode a GetData response expected to name a regular file; shared by
    /// truncate/read/write.
    fn file_fid_of(&mut self, resp: StepResponse) -> Result<Fid, PlanStep> {
        match expect_zk(resp) {
            ZkResponse::Data { data, .. } => match NodeMeta::decode(&data) {
                Ok(NodeMeta::File { fid, .. }) => Ok(fid),
                Ok(NodeMeta::Dir { .. }) => Err(self.fail(DufsError::IsDir)),
                Ok(NodeMeta::Symlink { .. }) => Err(self.fail(DufsError::Inval)),
                Err(e) => Err(self.fail(e)),
            },
            ZkResponse::Error(e) => Err(self.fail(e)),
            other => panic!("file op: unexpected {other:?}"),
        }
    }

    /// While walking a rename's subtree: emit the next listing/get, or the
    /// final atomic multi once the walk is complete.
    fn rename_advance(&mut self, from_hint: String) -> PlanStep {
        let St::RenameList { from, to, dirs, gets, collected, root_data } =
            std::mem::replace(&mut self.st, St::Finished)
        else {
            unreachable!("rename_advance outside RenameList");
        };
        debug_assert_eq!(from, from_hint);
        if let Some(rel) = gets.front().cloned() {
            let abs = join_rel(&from, &rel);
            self.st = St::RenameList { from, to, dirs, gets, collected, root_data };
            return PlanStep::Zk(ZkRequest::GetData { path: abs, watch: false });
        }
        if let Some(dir) = dirs.front().cloned() {
            let abs = join_rel(&from, &dir);
            self.st = St::RenameList { from, to, dirs, gets, collected, root_data };
            return PlanStep::Zk(ZkRequest::GetChildren { path: abs, watch: false });
        }
        // Walk complete: build the atomic multi. Creates parent-first (the
        // collection order is BFS), deletes children-first (reverse).
        let mut ops = Vec::with_capacity(2 * collected.len() + 2);
        ops.push(MultiOp::Create {
            path: to.clone(),
            data: root_data,
            mode: CreateMode::Persistent,
        });
        for (rel, data) in &collected {
            ops.push(MultiOp::Create {
                path: join_rel(&to, rel),
                data: data.clone(),
                mode: CreateMode::Persistent,
            });
        }
        for (rel, _) in collected.iter().rev() {
            ops.push(MultiOp::Delete { path: join_rel(&from, rel), version: None });
        }
        ops.push(MultiOp::Delete { path: from, version: None });
        self.st = St::RenameMulti;
        PlanStep::Zk(ZkRequest::Multi { ops })
    }
}

fn collected_next_rel(gets: &VecDeque<String>) -> Option<String> {
    gets.front().cloned()
}

fn expect_zk(resp: StepResponse) -> ZkResponse {
    match resp {
        StepResponse::Zk(r) => r,
        StepResponse::Backend(b) => panic!("expected a ZK response, got backend {b:?}"),
    }
}

fn expect_backend(resp: StepResponse) -> BackendResp {
    match resp {
        StepResponse::Backend(b) => b,
        StepResponse::Zk(r) => panic!("expected a backend response, got ZK {r:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Md5Mapping;

    fn mapper() -> Md5Mapping {
        Md5Mapping::new(2)
    }

    #[test]
    fn mkdir_is_single_zk_step() {
        let m = mapper();
        let (mut ex, step) =
            OpExec::start(MetaOp::Mkdir { path: "/d".into(), mode: 0o755 }, || unreachable!(), &m);
        match step {
            PlanStep::Zk(ZkRequest::Create { ref path, .. }) => assert_eq!(path, "/d"),
            other => panic!("unexpected {other:?}"),
        }
        let done = ex.feed(StepResponse::Zk(ZkResponse::Created { path: "/d".into() }), &m);
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Unit)));
        assert_eq!(ex.steps(), 2);
    }

    #[test]
    fn mkdir_maps_node_exists_to_eexist() {
        let m = mapper();
        let (mut ex, _) =
            OpExec::start(MetaOp::Mkdir { path: "/d".into(), mode: 0o755 }, || unreachable!(), &m);
        let done = ex.feed(StepResponse::Zk(ZkResponse::Error(ZkError::NodeExists)), &m);
        assert_eq!(done, PlanStep::Done(Err(DufsError::Exists)));
    }

    #[test]
    fn create_goes_zk_then_backend() {
        let m = mapper();
        let fid = Fid::new(5, 1);
        let (mut ex, step) =
            OpExec::start(MetaOp::Create { path: "/f".into(), mode: 0o644 }, || fid, &m);
        assert!(matches!(step, PlanStep::Zk(ZkRequest::Create { .. })));
        let step = ex.feed(StepResponse::Zk(ZkResponse::Created { path: "/f".into() }), &m);
        match step {
            PlanStep::Backend { backend, req: BackendReq::CreateFile { path, mode } } => {
                assert_eq!(backend, m.backend_of(fid));
                assert_eq!(path, shard::physical_path("/", fid));
                assert_eq!(mode, 0o644);
            }
            other => panic!("unexpected {other:?}"),
        }
        let done = ex.feed(StepResponse::Backend(BackendResp::Unit(Ok(()))), &m);
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Created(fid))));
    }

    #[test]
    fn stat_of_directory_never_touches_backend() {
        // Paper §IV-B: "the directory stat() operation is satisfied at the
        // Zookeeper level itself".
        let m = mapper();
        let (mut ex, _) = OpExec::start(MetaOp::Stat { path: "/d".into() }, || unreachable!(), &m);
        let stat = Stat { num_children: 3, ctime_ns: 7, mtime_ns: 9, ..Default::default() };
        let done = ex.feed(
            StepResponse::Zk(ZkResponse::Data { data: NodeMeta::dir(0o700).encode(), stat }),
            &m,
        );
        match done {
            PlanStep::Done(Ok(OpOutput::Attr(a))) => {
                assert_eq!(a.kind, NodeKind::Dir);
                assert_eq!(a.mode, 0o700);
                assert_eq!(a.nlink, 5);
                assert_eq!(a.ctime_ns, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stat_of_file_consults_backend() {
        let m = mapper();
        let fid = Fid::new(9, 9);
        let (mut ex, _) = OpExec::start(MetaOp::Stat { path: "/f".into() }, || unreachable!(), &m);
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Data {
                data: NodeMeta::file(fid, 0o644).encode(),
                stat: Stat::default(),
            }),
            &m,
        );
        assert!(matches!(step, PlanStep::Backend { req: BackendReq::Stat { .. }, .. }));
        let attr = FileAttr { size: 123, ..FileAttr::file(5) };
        let done = ex.feed(StepResponse::Backend(BackendResp::Attr(Ok(attr))), &m);
        match done {
            PlanStep::Done(Ok(OpOutput::Attr(a))) => {
                assert_eq!(a.kind, NodeKind::File);
                assert_eq!(a.size, 123);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unlink_file_deletes_znode_then_physical() {
        let m = mapper();
        let fid = Fid::new(2, 2);
        let (mut ex, _) =
            OpExec::start(MetaOp::Unlink { path: "/f".into() }, || unreachable!(), &m);
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Data {
                data: NodeMeta::file(fid, 0o644).encode(),
                stat: Stat::default(),
            }),
            &m,
        );
        assert!(matches!(step, PlanStep::Zk(ZkRequest::Delete { .. })));
        let step = ex.feed(StepResponse::Zk(ZkResponse::Deleted), &m);
        assert!(matches!(step, PlanStep::Backend { req: BackendReq::Unlink { .. }, .. }));
        let done = ex.feed(StepResponse::Backend(BackendResp::Unit(Ok(()))), &m);
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Unit)));
    }

    #[test]
    fn unlink_of_dir_is_eisdir() {
        let m = mapper();
        let (mut ex, _) =
            OpExec::start(MetaOp::Unlink { path: "/d".into() }, || unreachable!(), &m);
        let done = ex.feed(
            StepResponse::Zk(ZkResponse::Data {
                data: NodeMeta::dir(0o755).encode(),
                stat: Stat::default(),
            }),
            &m,
        );
        assert_eq!(done, PlanStep::Done(Err(DufsError::IsDir)));
    }

    #[test]
    fn file_rename_is_one_atomic_multi() {
        let m = mapper();
        let fid = Fid::new(4, 4);
        let data = NodeMeta::file(fid, 0o644).encode();
        let (mut ex, _) = OpExec::start(
            MetaOp::Rename { from: "/a".into(), to: "/b".into() },
            || unreachable!(),
            &m,
        );
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Data { data: data.clone(), stat: Stat::default() }),
            &m,
        );
        match step {
            PlanStep::Zk(ZkRequest::Multi { ops }) => {
                assert_eq!(ops.len(), 2);
                assert!(matches!(&ops[0], MultiOp::Create { path, data: d, .. }
                    if path == "/b" && *d == data));
                assert!(matches!(&ops[1], MultiOp::Delete { path, .. } if path == "/a"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let done = ex.feed(StepResponse::Zk(ZkResponse::MultiResults(vec![])), &m);
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Unit)));
    }

    #[test]
    fn dir_rename_walks_subtree_then_multis() {
        let m = mapper();
        let dir = NodeMeta::dir(0o755).encode();
        let file = NodeMeta::file(Fid::new(1, 1), 0o644).encode();
        let (mut ex, _) = OpExec::start(
            MetaOp::Rename { from: "/d1".into(), to: "/d2".into() },
            || unreachable!(),
            &m,
        );
        // Root get: a directory.
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Data { data: dir.clone(), stat: Stat::default() }),
            &m,
        );
        // Must list the root.
        assert!(
            matches!(step, PlanStep::Zk(ZkRequest::GetChildren { ref path, .. }) if path == "/d1")
        );
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Children {
                names: vec!["f".into(), "sub".into()],
                stat: Stat::default(),
            }),
            &m,
        );
        // Gets the first child /d1/f.
        assert!(
            matches!(step, PlanStep::Zk(ZkRequest::GetData { ref path, .. }) if path == "/d1/f")
        );
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Data { data: file.clone(), stat: Stat::default() }),
            &m,
        );
        assert!(
            matches!(step, PlanStep::Zk(ZkRequest::GetData { ref path, .. }) if path == "/d1/sub")
        );
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Data { data: dir.clone(), stat: Stat::default() }),
            &m,
        );
        // sub is a dir → list it.
        assert!(
            matches!(step, PlanStep::Zk(ZkRequest::GetChildren { ref path, .. }) if path == "/d1/sub")
        );
        let step = ex.feed(
            StepResponse::Zk(ZkResponse::Children { names: vec![], stat: Stat::default() }),
            &m,
        );
        // Walk done → one multi with creates parent-first, deletes
        // children-first.
        match step {
            PlanStep::Zk(ZkRequest::Multi { ops }) => {
                let descr: Vec<String> = ops
                    .iter()
                    .map(|o| match o {
                        MultiOp::Create { path, .. } => format!("C {path}"),
                        MultiOp::Delete { path, .. } => format!("D {path}"),
                        other => format!("{other:?}"),
                    })
                    .collect();
                assert_eq!(
                    descr,
                    vec![
                        "C /d2",
                        "C /d2/f",
                        "C /d2/sub", //
                        "D /d1/sub",
                        "D /d1/f",
                        "D /d1"
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let done = ex.feed(StepResponse::Zk(ZkResponse::MultiResults(vec![])), &m);
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Unit)));
    }

    #[test]
    fn readdir_readlink_access() {
        let m = mapper();
        let (mut ex, step) =
            OpExec::start(MetaOp::Readdir { path: "/d".into() }, || unreachable!(), &m);
        assert!(matches!(step, PlanStep::Zk(ZkRequest::GetChildren { .. })));
        let done = ex.feed(
            StepResponse::Zk(ZkResponse::Children {
                names: vec!["a".into()],
                stat: Stat::default(),
            }),
            &m,
        );
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Names(vec!["a".into()]))));

        let (mut ex, _) =
            OpExec::start(MetaOp::Readlink { path: "/l".into() }, || unreachable!(), &m);
        let done = ex.feed(
            StepResponse::Zk(ZkResponse::Data {
                data: NodeMeta::symlink("/t").encode(),
                stat: Stat::default(),
            }),
            &m,
        );
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Target("/t".into()))));

        // Dir access check is answered from metadata alone.
        let (mut ex, _) =
            OpExec::start(MetaOp::Access { path: "/d".into(), mask: 5 }, || unreachable!(), &m);
        let done = ex.feed(
            StepResponse::Zk(ZkResponse::Data {
                data: NodeMeta::dir(0o500).encode(),
                stat: Stat::default(),
            }),
            &m,
        );
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Allowed(true))));
    }

    #[test]
    fn data_ops_route_to_the_mapped_backend() {
        let m = mapper();
        let fid = Fid::new(77, 3);
        let meta = NodeMeta::file(fid, 0o644).encode();
        let (mut ex, _) = OpExec::start(
            MetaOp::Write { path: "/f".into(), offset: 4, data: Bytes::from_static(b"xy") },
            || unreachable!(),
            &m,
        );
        let step =
            ex.feed(StepResponse::Zk(ZkResponse::Data { data: meta, stat: Stat::default() }), &m);
        match step {
            PlanStep::Backend { backend, req: BackendReq::Write { path, offset, data } } => {
                assert_eq!(backend, m.backend_of(fid));
                assert_eq!(path, shard::physical_path("/", fid));
                assert_eq!(offset, 4);
                assert_eq!(&data[..], b"xy");
            }
            other => panic!("unexpected {other:?}"),
        }
        let done = ex.feed(StepResponse::Backend(BackendResp::Written(Ok(2))), &m);
        assert_eq!(done, PlanStep::Done(Ok(OpOutput::Written(2))));
    }
}
