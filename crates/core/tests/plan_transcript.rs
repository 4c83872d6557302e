//! Golden planner transcripts: every `MetaOp` run through `plan::run`
//! against a scripted namespace, one row per (op, situation). A row
//! records every request the op sends (`Zk(..)` to the coordination
//! service, `Backend { .. }` to a mount), its final output or error
//! (`Done(..)`), and `steps`, the requests plus one. The expected text
//! (`plan_transcript.txt`) was dumped from the planner before its
//! continuation states were collapsed into lookup / back-end hop / final
//! write, and kept when the planner became an `async fn`, so a change to
//! how the planner is *written* cannot change what it *asks for*. The
//! rename rows whose destination parent is not `/` were re-dumped when
//! rename started checking that parent like every other create.
//!
//! On a mismatch the whole transcript is written to
//! `target/tmp/plan_transcript.txt` for diffing against the golden file.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use bytes::Bytes;
use dufs_backendfs::{FileAttr, FsError, MountUsage};
use dufs_coord::session::ready;
use dufs_coord::{ZkRequest, ZkResponse};
use dufs_core::plan::{self, BackendReq, BackendResp, MetaOp, PlanIo};
use dufs_core::{shard, Fid, Md5Mapping, NodeMeta};
use dufs_zkstore::{MultiOp, MultiResult, Stat, ZkError};

const GOLDEN: &str = include_str!("plan_transcript.txt");

/// The services one row runs against: znodes (path → encoded `NodeMeta`)
/// answering like the coordination service, and back-ends holding a set of
/// physical files, optionally failing every call.
#[derive(Clone, Default)]
struct World {
    znodes: BTreeMap<String, Bytes>,
    files: BTreeSet<String>,
    backend_err: Option<FsError>,
}

fn parent(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

fn or<T>(err: Option<FsError>, ok: T) -> Result<T, FsError> {
    err.map_or(Ok(ok), Err)
}

impl World {
    fn with(nodes: &[(&str, NodeMeta)]) -> World {
        let mut w = World::default();
        for (path, meta) in nodes {
            w.znodes.insert(path.to_string(), meta.encode());
            if let Some(fid) = meta.fid() {
                w.files.insert(shard::physical_path("/", fid));
            }
        }
        w
    }

    fn exists(&self, path: &str) -> bool {
        path == "/" || self.znodes.contains_key(path)
    }

    fn children(&self, dir: &str) -> Vec<String> {
        let names = self.znodes.keys().filter(|k| parent(k) == dir);
        names.map(|k| k[k.rfind('/').unwrap() + 1..].to_string()).collect()
    }

    fn stat(&self, path: &str) -> Stat {
        let num_children = self.children(path).len() as u32;
        Stat { num_children, ctime_ns: 7, mtime_ns: 9, ..Default::default() }
    }

    fn create(&mut self, path: String, data: Bytes) -> Result<MultiResult, ZkError> {
        if self.exists(&path) {
            return Err(ZkError::NodeExists);
        }
        if !self.exists(parent(&path)) {
            return Err(ZkError::NoNode);
        }
        self.znodes.insert(path.clone(), data);
        Ok(MultiResult::Created(path))
    }

    fn delete(&mut self, path: &str) -> Result<MultiResult, ZkError> {
        if !self.znodes.contains_key(path) {
            return Err(ZkError::NoNode);
        }
        if !self.children(path).is_empty() {
            return Err(ZkError::NotEmpty);
        }
        self.znodes.remove(path);
        Ok(MultiResult::Deleted)
    }

    fn zk(&mut self, req: ZkRequest) -> ZkResponse {
        let missing = ZkResponse::Error(ZkError::NoNode);
        match req {
            ZkRequest::GetData { path, .. } => match self.znodes.get(&path) {
                Some(data) => ZkResponse::Data { data: data.clone(), stat: self.stat(&path) },
                None => missing,
            },
            ZkRequest::GetChildren { path, .. } if self.exists(&path) => {
                ZkResponse::Children { names: self.children(&path), stat: self.stat(&path) }
            }
            ZkRequest::GetChildrenData { path } if self.exists(&path) => {
                let entries = self.children(&path).into_iter().map(|name| {
                    let child = format!("{}/{name}", path.trim_end_matches('/'));
                    (name, self.znodes[&child].clone(), self.stat(&child))
                });
                ZkResponse::ChildrenData { entries: entries.collect() }
            }
            ZkRequest::GetChildren { .. } | ZkRequest::GetChildrenData { .. } => missing,
            ZkRequest::Create { path, data, .. } => match self.create(path, data) {
                Ok(MultiResult::Created(path)) => ZkResponse::Created { path },
                Ok(other) => unreachable!("{other:?}"),
                Err(e) => ZkResponse::Error(e),
            },
            ZkRequest::Delete { path, .. } => {
                self.delete(&path).map_or_else(ZkResponse::Error, |_| ZkResponse::Deleted)
            }
            ZkRequest::SetData { path, data, .. } if self.znodes.contains_key(&path) => {
                self.znodes.insert(path.clone(), data);
                ZkResponse::Stat(self.stat(&path))
            }
            ZkRequest::SetData { .. } => missing,
            ZkRequest::Multi { ops } => {
                let before = self.clone();
                let results: Result<Vec<_>, _> = ops
                    .into_iter()
                    .map(|op| match op {
                        MultiOp::Create { path, data, .. } => self.create(path, data),
                        MultiOp::Delete { path, .. } => self.delete(&path),
                        other => panic!("unscripted multi op {other:?}"),
                    })
                    .collect();
                results.map_or_else(
                    |e| {
                        *self = before;
                        ZkResponse::Error(e)
                    },
                    ZkResponse::MultiResults,
                )
            }
            other => panic!("unscripted request {other:?}"),
        }
    }

    fn backend(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        let n = backend as u64 + 1;
        let path = match &req {
            BackendReq::StatFs => {
                let usage = MountUsage { entries: 10 * n, objects: n, bytes_used: 100 * n };
                return BackendResp::Usage(usage);
            }
            BackendReq::CreateFile { path, .. }
            | BackendReq::Unlink { path }
            | BackendReq::Stat { path }
            | BackendReq::Chmod { path, .. }
            | BackendReq::Access { path, .. }
            | BackendReq::Truncate { path, .. }
            | BackendReq::Read { path, .. }
            | BackendReq::Write { path, .. }
            | BackendReq::SetTimes { path, .. } => path.clone(),
        };
        let absent = !matches!(req, BackendReq::CreateFile { .. }) && !self.files.contains(&path);
        let err = self.backend_err.or(absent.then_some(FsError::NoEnt));
        match req {
            BackendReq::CreateFile { .. } => {
                let r = or(err, ());
                if r.is_ok() {
                    self.files.insert(path);
                }
                BackendResp::Unit(r)
            }
            BackendReq::Unlink { .. } => {
                let r = or(err, ());
                if r.is_ok() {
                    self.files.remove(&path);
                }
                BackendResp::Unit(r)
            }
            BackendReq::Stat { .. } => {
                BackendResp::Attr(or(err, FileAttr { size: 5, ..FileAttr::file(3) }))
            }
            BackendReq::Access { mask, .. } => BackendResp::Allowed(or(err, mask & 4 != 0)),
            BackendReq::Read { len, .. } => {
                BackendResp::Data(or(err, Bytes::from(vec![b'x'; len.min(5)])))
            }
            BackendReq::Write { data, .. } => BackendResp::Written(or(err, data.len())),
            BackendReq::Chmod { .. }
            | BackendReq::Truncate { .. }
            | BackendReq::SetTimes { .. } => BackendResp::Unit(or(err, ())),
            BackendReq::StatFs => unreachable!(),
        }
    }
}

/// `World` behind the planner's io, writing one line per request.
struct Recorder {
    world: World,
    out: String,
    steps: u32,
}

impl PlanIo for Recorder {
    async fn coord(&mut self, req: ZkRequest) -> ZkResponse {
        writeln!(self.out, "  Zk({req:?})").unwrap();
        self.steps += 1;
        self.world.zk(req)
    }

    async fn backend(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        writeln!(self.out, "  Backend {{ backend: {backend}, req: {req:?} }}").unwrap();
        self.steps += 1;
        self.world.backend(backend, req)
    }
}

/// Run `op` to completion against `world`; one line per step.
fn transcript(world: World, op: MetaOp, backends: usize) -> String {
    let mapper = Md5Mapping::new(backends);
    let mut io = Recorder { world, out: String::new(), steps: 1 };
    let done = ready(plan::run(op, || Fid::new(7, 1), &mapper, &mut io));
    writeln!(io.out, "  Done({done:?})").unwrap();
    writeln!(io.out, "  steps = {}", io.steps).unwrap();
    io.out
}

/// Every op, aimed at `path`.
fn every_op(path: &str) -> Vec<(&'static str, MetaOp)> {
    let p = || path.to_string();
    vec![
        ("mkdir", MetaOp::Mkdir { path: p(), mode: 0o755 }),
        ("rmdir", MetaOp::Rmdir { path: p() }),
        ("create", MetaOp::Create { path: p(), mode: 0o644 }),
        ("open", MetaOp::Open { path: p() }),
        ("unlink", MetaOp::Unlink { path: p() }),
        ("stat", MetaOp::Stat { path: p() }),
        ("readdir", MetaOp::Readdir { path: p() }),
        ("readdir_plus", MetaOp::ReaddirPlus { path: p() }),
        ("rename", MetaOp::Rename { from: p(), to: "/moved".into() }),
        ("symlink", MetaOp::Symlink { target: "/elsewhere".into(), link: p() }),
        ("readlink", MetaOp::Readlink { path: p() }),
        ("chmod", MetaOp::Chmod { path: p(), mode: 0o600 }),
        ("access", MetaOp::Access { path: p(), mask: 6 }),
        ("truncate", MetaOp::Truncate { path: p(), size: 3 }),
        ("read", MetaOp::Read { path: p(), offset: 1, len: 4 }),
        ("write", MetaOp::Write { path: p(), offset: 2, data: Bytes::from_static(b"xy") }),
        ("utimens", MetaOp::Utimens { path: p(), atime_ns: 11, mtime_ns: 22 }),
        ("statfs", MetaOp::StatFs),
    ]
}

/// Every row: (name, transcript).
fn rows() -> Vec<(String, String)> {
    let file = |lo| NodeMeta::file(Fid::new(1, lo), 0o644);
    let base = [("/d", NodeMeta::dir(0o755)), ("/f", file(1))];
    let with = |extra: &[(&str, NodeMeta)]| World::with(&[&base[..], extra].concat());
    let failing = World { backend_err: Some(FsError::Stale), ..with(&[("/d/t", file(2))]) };
    let columns = [
        ("file", "/d/t", with(&[("/d/t", file(2))])),
        ("dir", "/d/t", with(&[("/d/t", NodeMeta::dir(0o750))])),
        ("symlink", "/d/t", with(&[("/d/t", NodeMeta::symlink("/target"))])),
        ("nonode", "/d/t", with(&[])),
        ("parent-file", "/f/t", with(&[])),
        ("backend-error", "/d/t", failing.clone()),
    ];
    let mut rows = Vec::new();
    for (column, path, world) in &columns {
        for (op_name, op) in every_op(path) {
            rows.push((format!("{op_name} / {column}"), transcript(world.clone(), op, 2)));
        }
    }
    let rename = |to: &str| MetaOp::Rename { from: "/d/t".into(), to: to.into() };
    let mut vanishing = with(&[
        ("/d/a", file(3)),
        ("/d/b", file(4)),
        ("/d/c", NodeMeta::dir(0o700)),
        ("/d/l", NodeMeta::symlink("/d/a")),
    ]);
    vanishing.files.remove(&shard::physical_path("/", Fid::new(1, 4)));
    let subtree = with(&[
        ("/d1", NodeMeta::dir(0o755)),
        ("/d1/f", file(5)),
        ("/d1/sub", NodeMeta::dir(0o711)),
        ("/d1/sub/deeper", NodeMeta::dir(0o700)),
        ("/d1/sub/g", file(6)),
    ]);
    let extra = [
        ("create cleanup", failing, MetaOp::Create { path: "/d/new".into(), mode: 0o640 }, 2),
        ("readdir_plus vanishing file", vanishing, MetaOp::ReaddirPlus { path: "/d".into() }, 2),
        ("rename nested dir", subtree, MetaOp::Rename { from: "/d1".into(), to: "/d2".into() }, 2),
        ("statfs 3 mounts", with(&[]), MetaOp::StatFs, 3),
        ("mkdir under root", with(&[]), MetaOp::Mkdir { path: "/top".into(), mode: 0o700 }, 2),
        ("create under root", with(&[]), MetaOp::Create { path: "/top".into(), mode: 0o600 }, 2),
        ("rename onto existing", with(&[("/d/t", file(2))]), rename("/f"), 2),
        ("rename into dir", with(&[("/d/t", file(2))]), rename("/d/u"), 2),
        ("rename into file", with(&[("/d/t", file(2))]), rename("/f/x"), 2),
        ("rename under missing parent", with(&[("/d/t", file(2))]), rename("/nope/x"), 2),
    ];
    for (name, world, op, backends) in extra {
        rows.push((name.to_string(), transcript(world, op, backends)));
    }
    rows
}

fn render(rows: &[(String, String)]) -> String {
    rows.iter().map(|(name, body)| format!("== {name}\n{body}")).collect()
}

#[test]
fn every_op_emits_its_golden_transcript() {
    let rows = rows();
    let golden: BTreeMap<&str, &str> = GOLDEN
        .split("== ")
        .skip(1)
        .map(|row| row.split_once('\n').expect("a row has a name line"))
        .collect();
    let actual = render(&rows);
    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plan_transcript.txt");
        std::fs::write(&dump, &actual).unwrap();
        eprintln!("actual transcript written to {}", dump.display());
    }
    for (name, body) in &rows {
        assert_eq!(golden.get(name.as_str()).copied(), Some(body.as_str()), "row `{name}`");
    }
    assert_eq!(golden.len(), rows.len(), "golden rows no longer produced");
}
