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
//! Every operation is built from the same three moves, each written once:
//! the *lookup* of the path's znode (one state decodes it, one function
//! picks the op's next move per node kind), the *back-end hop* on a file's
//! FID (one request builder, `file_call`, and one reply mapping,
//! `backend_output`), and the *final write* whose success is the answer.
//! Every create — mkdir, creat, symlink and a rename's destination — first
//! checks that its parent is a directory.
//!
//! Two drivers consume it:
//! * [`crate::vfs::Dufs`] executes steps synchronously against live
//!   services (the library / live runtime);
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

/// What a back-end reply means for the op that awaits it.
#[derive(Debug)]
enum Hop {
    /// The reply is the op's answer.
    Answer,
    /// `open`: the physical file is there; the answer is its FID.
    Opened(Fid),
    /// `creat`: the answer is the FID; a failure rolls back the znode at
    /// `path` so the namespace does not point at nothing.
    Created { fid: Fid, path: String },
    /// `unlink`: the name is gone either way; a failed reap is ignored, as
    /// the prototype logs and ignores it.
    Reap,
}

/// Internal continuation state: what the reply to the step in flight means.
#[derive(Debug)]
enum St {
    /// Awaiting a parent's metadata before a namespace create (POSIX
    /// requires ENOTDIR when the parent is a file; a bare znode create
    /// would happily nest under anything). A directory sends `req` and
    /// moves to `then`.
    ParentCheck {
        then: Box<St>,
        req: ZkRequest,
    },
    /// Awaiting the `GetData` of the op's own path (Fig 3 step B).
    Lookup(MetaOp),
    /// Awaiting a coordination request whose success answers the op — a
    /// final write, or readdir's listing — or, for creat and unlink, leads
    /// to the file's one back-end hop.
    Coord {
        then: Option<(Hop, Call)>,
    },
    /// Awaiting the back-end call on the file's FID (Fig 3 step D).
    Backend(Hop),
    /// The physical create failed and the znode delete rolling it back is
    /// in flight; whatever it answers, the op fails with this error.
    Cleanup(DufsError),
    /// readdir_plus: awaiting the batched listing.
    RdPlusList,
    /// readdir_plus: awaiting the back-end stat of file `current`.
    RdPlusStats {
        /// Completed entries (metadata-only kinds resolved immediately).
        done: Vec<(String, DufsAttr)>,
        /// Files still awaiting a back-end stat: (name, fid).
        pending: VecDeque<(String, Fid)>,
        /// The file whose stat is in flight.
        current: String,
    },
    /// rename: walking the source subtree breadth-first.
    RenameWalk {
        /// Destination path.
        to: String,
        /// Directories whose children are still to be listed.
        dirs: VecDeque<String>,
        /// Entries whose metadata is still to be fetched.
        gets: VecDeque<String>,
        /// (path, data) of every entry fetched, the source root first.
        moved: Vec<(String, Bytes)>,
    },
    /// statfs: awaiting the usage of mount `next - 1`.
    StatFs {
        acc: DufsStatFs,
        next: usize,
    },
    Finished,
}

/// The executor for one operation.
#[derive(Debug)]
pub struct OpExec {
    st: St,
    /// Count of driver round trips so far (for diagnostics/accounting).
    steps: u32,
}

fn get_data(path: String) -> ZkRequest {
    ZkRequest::GetData { path, watch: false }
}

/// `then` entered by sending `req`, behind a check that `parent` is a
/// directory unless it is the root (always one).
fn parent_checked(parent: &str, then: St, req: ZkRequest) -> (St, PlanStep) {
    if parent == "/" {
        (then, PlanStep::Zk(req))
    } else {
        let check = PlanStep::Zk(get_data(parent.to_string()));
        (St::ParentCheck { then: Box::new(then), req }, check)
    }
}

/// A namespace create of `meta` at `path`, then `then`'s back-end hop.
fn create(path: String, meta: NodeMeta, then: Option<(Hop, Call)>) -> (St, PlanStep) {
    let parent = parent_dir(&path).to_string();
    let req = ZkRequest::Create { path, data: meta.encode(), mode: CreateMode::Persistent };
    parent_checked(&parent, St::Coord { then }, req)
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
        let (st, step) = match op {
            MetaOp::Mkdir { path, mode } => create(path, NodeMeta::dir(mode), None),
            MetaOp::Symlink { target, link } => create(link, NodeMeta::symlink(target), None),
            MetaOp::Create { path, mode } => {
                let fid = mint_fid();
                let call = file_call(mapper, fid, |path| BackendReq::CreateFile { path, mode });
                let hop = Hop::Created { fid, path: path.clone() };
                create(path, NodeMeta::file(fid, mode), Some((hop, call)))
            }
            MetaOp::Readdir { path } => (
                St::Coord { then: None },
                PlanStep::Zk(ZkRequest::GetChildren { path, watch: false }),
            ),
            MetaOp::ReaddirPlus { path } => {
                (St::RdPlusList, PlanStep::Zk(ZkRequest::GetChildrenData { path }))
            }
            MetaOp::StatFs => {
                let acc = DufsStatFs { backends: mapper.n_backends() as u64, ..Default::default() };
                (
                    St::StatFs { acc, next: 1 },
                    PlanStep::Backend { backend: 0, req: BackendReq::StatFs },
                )
            }
            MetaOp::Rename { ref from, ref to } => {
                // The destination is a create inside the rename's multi.
                let (parent, lookup) = (parent_dir(to).to_string(), get_data(from.clone()));
                parent_checked(&parent, St::Lookup(op), lookup)
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
            | MetaOp::Utimens { ref path, .. } => {
                let lookup = PlanStep::Zk(get_data(path.clone()));
                (St::Lookup(op), lookup)
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

    /// Send coordination request `req`; its success answers the op, or
    /// leads to `then`'s back-end hop.
    fn coord(&mut self, req: ZkRequest, then: Option<(Hop, Call)>) -> PlanStep {
        self.st = St::Coord { then };
        PlanStep::Zk(req)
    }

    /// Send back-end call `(backend, req)`; `hop` says what its reply means.
    fn hop(&mut self, hop: Hop, (backend, req): Call) -> PlanStep {
        self.st = St::Backend(hop);
        PlanStep::Backend { backend, req }
    }

    /// Feed the response for the previously returned step; get the next.
    ///
    /// # Panics
    /// Panics if called after [`PlanStep::Done`] or with a response of the
    /// wrong category (driver bug).
    pub fn feed(&mut self, resp: StepResponse, mapper: &dyn BackendMapper) -> PlanStep {
        use StepResponse::{Backend, Zk};
        self.steps += 1;
        match (std::mem::replace(&mut self.st, St::Finished), resp) {
            (St::Finished, _) => panic!("feed() after Done"),
            (St::ParentCheck { then, req }, Zk(ZkResponse::Data { data, .. })) => {
                match NodeMeta::decode(&data) {
                    Ok(meta) if meta.is_dir() => {
                        self.st = *then;
                        PlanStep::Zk(req)
                    }
                    r => self.fail(r.err().unwrap_or(DufsError::NotDir)),
                }
            }
            (St::Lookup(op), Zk(ZkResponse::Data { data, stat })) => {
                match NodeMeta::decode(&data) {
                    Ok(meta) => self.looked_up(op, meta, data, &stat, mapper),
                    Err(e) => self.fail(e),
                }
            }
            (St::Coord { .. }, Zk(ZkResponse::Children { names, .. })) => {
                self.done(Ok(OpOutput::Names(names)))
            }
            (
                St::Coord { then },
                Zk(
                    ZkResponse::Created { .. }
                    | ZkResponse::Deleted
                    | ZkResponse::Stat(_)
                    | ZkResponse::MultiResults(_),
                ),
            ) => match then {
                None => self.done(Ok(OpOutput::Unit)),
                Some((hop, call)) => self.hop(hop, call),
            },
            (St::Backend(Hop::Answer), Backend(resp)) => self.done(backend_output(resp)),
            (St::Backend(Hop::Opened(fid)), Backend(BackendResp::Attr(r))) => {
                self.done(r.map(|_| OpOutput::Opened(fid)).map_err(DufsError::from))
            }
            (St::Backend(Hop::Created { fid, .. }), Backend(BackendResp::Unit(Ok(())))) => {
                self.done(Ok(OpOutput::Created(fid)))
            }
            (St::Backend(Hop::Created { path, .. }), Backend(BackendResp::Unit(Err(e)))) => {
                self.st = St::Cleanup(e.into());
                PlanStep::Zk(ZkRequest::Delete { path, version: None })
            }
            (St::Backend(Hop::Reap), Backend(BackendResp::Unit(_))) => {
                self.done(Ok(OpOutput::Unit))
            }
            (St::Cleanup(err), _) => self.fail(err),
            (St::RdPlusList, Zk(ZkResponse::ChildrenData { entries })) => {
                let mut done = Vec::with_capacity(entries.len());
                let mut pending = VecDeque::new();
                for (name, data, stat) in entries {
                    match NodeMeta::decode(&data) {
                        Ok(NodeMeta::Dir { mode }) => {
                            done.push((name, DufsAttr::from_znode_dir(&stat, mode)))
                        }
                        Ok(NodeMeta::Symlink { target, mode }) => done
                            .push((name, DufsAttr::from_znode_symlink(&stat, mode, target.len()))),
                        Ok(NodeMeta::File { fid, .. }) => pending.push_back((name, fid)),
                        Err(e) => return self.fail(e),
                    }
                }
                self.sweep(done, pending, mapper)
            }
            (St::RdPlusStats { mut done, pending, current }, Backend(BackendResp::Attr(r))) => {
                match r {
                    Ok(attr) => done.push((current, DufsAttr::from_backend_file(&attr))),
                    // A racing unlink between listing and stat: skip the
                    // entry rather than failing the whole listing.
                    Err(FsError::NoEnt) => {}
                    Err(e) => return self.fail(e),
                }
                if pending.is_empty() {
                    done.sort_by(|a, b| a.0.cmp(&b.0));
                }
                self.sweep(done, pending, mapper)
            }
            (
                St::RenameWalk { to, mut dirs, mut gets, moved },
                Zk(ZkResponse::Children { names, .. }),
            ) => {
                // Children of the directory listed last: the front of `dirs`.
                let dir = dirs.pop_front().expect("a listing was outstanding");
                gets.extend(names.iter().map(|n| format!("{dir}/{n}")));
                self.walk(to, dirs, gets, moved)
            }
            (
                St::RenameWalk { to, mut dirs, mut gets, mut moved },
                Zk(ZkResponse::Data { data, .. }),
            ) => {
                let path = gets.pop_front().expect("a get was outstanding");
                if NodeMeta::decode(&data).is_ok_and(|m| m.is_dir()) {
                    dirs.push_back(path.clone());
                }
                moved.push((path, data));
                self.walk(to, dirs, gets, moved)
            }
            (St::StatFs { mut acc, next }, Backend(BackendResp::Usage(u))) => {
                acc.physical_entries += u.entries;
                acc.objects += u.objects;
                acc.bytes_used += u.bytes_used;
                if next as u64 >= acc.backends {
                    self.done(Ok(OpOutput::StatFs(acc)))
                } else {
                    self.st = St::StatFs { acc, next: next + 1 };
                    PlanStep::Backend { backend: next, req: BackendReq::StatFs }
                }
            }
            (_, Zk(ZkResponse::Error(e))) => self.fail(e),
            (st, resp) => panic!("{st:?}: unexpected {resp:?}"),
        }
    }

    /// The op's next move once its path's znode is known: done from the
    /// metadata alone, one more coordination request, or the back-end hop
    /// on the file's FID.
    fn looked_up(
        &mut self,
        op: MetaOp,
        meta: NodeMeta,
        data: Bytes,
        stat: &Stat,
        mapper: &dyn BackendMapper,
    ) -> PlanStep {
        use NodeMeta::{Dir, File, Symlink};
        match (op, meta) {
            (MetaOp::Rmdir { path }, Dir { .. }) => {
                self.coord(ZkRequest::Delete { path, version: None }, None)
            }
            (MetaOp::Rmdir { .. }, _) => self.fail(DufsError::NotDir),
            (MetaOp::Unlink { .. }, Dir { .. }) => self.fail(DufsError::IsDir),
            (MetaOp::Unlink { path }, meta) => {
                // A symlink is metadata only; a file's data is reaped after.
                let reap = meta.fid().map(|fid| {
                    (Hop::Reap, file_call(mapper, fid, |path| BackendReq::Unlink { path }))
                });
                self.coord(ZkRequest::Delete { path, version: None }, reap)
            }
            // Paper Fig 6: a directory's `struct stat` is filled from the
            // coordination service alone; so is a symlink's.
            (MetaOp::Stat { .. }, Dir { mode }) => {
                self.done(Ok(OpOutput::Attr(DufsAttr::from_znode_dir(stat, mode))))
            }
            (MetaOp::Stat { .. }, Symlink { target, mode }) => self
                .done(Ok(OpOutput::Attr(DufsAttr::from_znode_symlink(stat, mode, target.len())))),
            (MetaOp::Readlink { .. }, Symlink { target, .. }) => {
                self.done(Ok(OpOutput::Target(target)))
            }
            (MetaOp::Readlink { .. }, _) => self.fail(DufsError::Inval),
            (MetaOp::Chmod { path, mode }, meta @ (Dir { .. } | Symlink { .. })) => {
                let data = meta.with_mode(mode & 0o7777).encode();
                self.coord(ZkRequest::SetData { path, data, version: None }, None)
            }
            (MetaOp::Access { mask, .. }, meta @ (Dir { .. } | Symlink { .. })) => {
                let owner = (meta.mode() >> 6) & 0o7;
                self.done(Ok(OpOutput::Allowed(owner & mask == mask)))
            }
            // Directory/symlink timestamps are transaction-clocked by the
            // coordination service; accept and ignore, as the FUSE
            // prototype does for metadata-only nodes.
            (MetaOp::Utimens { .. }, Dir { .. } | Symlink { .. }) => self.done(Ok(OpOutput::Unit)),
            // One atomic multi moves the name — after walking the subtree
            // of a directory. The FID moves with the name; the data never
            // does (§IV-A).
            (MetaOp::Rename { from, to }, meta) => {
                let dirs =
                    if meta.is_dir() { VecDeque::from([from.clone()]) } else { VecDeque::new() };
                self.walk(to, dirs, VecDeque::new(), vec![(from, data)])
            }
            (op, File { fid, .. }) => {
                let hop =
                    if matches!(op, MetaOp::Open { .. }) { Hop::Opened(fid) } else { Hop::Answer };
                let call = file_call(mapper, fid, |path| match op {
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
                self.hop(hop, call)
            }
            // open, truncate, read and write name a regular file.
            (_, Dir { .. }) => self.fail(DufsError::IsDir),
            (_, Symlink { .. }) => self.fail(DufsError::Inval),
        }
    }

    /// readdir_plus: stat the next pending file, or answer with `done`.
    fn sweep(
        &mut self,
        done: Vec<(String, DufsAttr)>,
        mut pending: VecDeque<(String, Fid)>,
        mapper: &dyn BackendMapper,
    ) -> PlanStep {
        let Some((current, fid)) = pending.pop_front() else {
            return self.done(Ok(OpOutput::Entries(done)));
        };
        let (backend, req) = file_call(mapper, fid, |path| BackendReq::Stat { path });
        self.st = St::RdPlusStats { done, pending, current };
        PlanStep::Backend { backend, req }
    }

    /// rename: the walk's next `GetData` or listing (entries before
    /// listings, so `moved` is breadth-first, parents before children), or
    /// once the walk is complete the one atomic multi — creates
    /// parent-first, deletes children-first.
    fn walk(
        &mut self,
        to: String,
        dirs: VecDeque<String>,
        gets: VecDeque<String>,
        moved: Vec<(String, Bytes)>,
    ) -> PlanStep {
        let req = if let Some(path) = gets.front() {
            get_data(path.clone())
        } else if let Some(path) = dirs.front() {
            ZkRequest::GetChildren { path: path.clone(), watch: false }
        } else {
            let root = moved[0].0.len();
            let creates = moved.iter().map(|(old, data)| MultiOp::Create {
                path: format!("{to}{}", &old[root..]),
                data: data.clone(),
                mode: CreateMode::Persistent,
            });
            let deletes = moved
                .iter()
                .rev()
                .map(|(old, _)| MultiOp::Delete { path: old.clone(), version: None });
            return self.coord(ZkRequest::Multi { ops: creates.chain(deletes).collect() }, None);
        };
        self.st = St::RenameWalk { to, dirs, gets, moved };
        PlanStep::Zk(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Md5Mapping;

    // Every op's full step sequence is pinned by the golden transcript
    // (`tests/plan_transcript.rs`); these check the paper's invariants by
    // value.

    fn mapper() -> Md5Mapping {
        Md5Mapping::new(2)
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
