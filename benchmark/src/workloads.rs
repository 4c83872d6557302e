//! The four workloads. Each is a closed loop of pre-generated POSIX ops
//! run in fixed-size trials that leave the namespace and the live data
//! the size they found them.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use bytes::Bytes;

use dufs_coord::ZkRequest;
use dufs_core::plan::BackendReq;
use dufs_core::{
    BackendMapper, BackendSet, Dufs, Fid, FidGenerator, LocalBackends, Md5Mapping, NodeKind,
    NodeMeta,
};
use dufs_store::StoreClient;
use dufs_zkstore::{CreateMode, MultiOp};

use crate::stack::{Backends, Coord, DataPath, Ensemble, Session, BACKENDS, VOTERS};
use crate::trace::{self, Recorder};
use crate::util::{self, Rng, Zipf};

pub const WORKLOADS: &[(&str, &str)] = &[
    ("md_mutate", "mdtest mkdir/create/rename/unlink/rmdir in private dirs, cache off: every op is a ZAB proposal, quorum and WAL fsync"),
    ("md_lookup", "uniform stat/open/readdir_plus over 20000 resident files on follower sessions, cache off: net round trip and replica read"),
    ("md_mixed_cached", "Zipf stat/open on an 8000-file hot set that fits CachingCoord, beside 10% create/rename/unlink: cache hits next to writes"),
    ("data_stream", "1 MiB files striped to two durable store servers, CRC-verified on read-back: large frames, CRC32, copies, FileEngine"),
];

/// Closed-loop load threads for the metadata workloads: one per core of
/// the 2-vCPU machine this is sized for, never more than `nproc`.
pub fn md_clients() -> usize {
    util::nproc().clamp(1, 2)
}

// Resident namespace shared by the md_* workloads.
pub const RESIDENT_DIRS: usize = 200;
pub const FILES_PER_DIR: usize = 100;
const HOT_DIRS: usize = 80;

// Per client per trial. md_mutate keeps mdtest's 20:1000:500:1000:20 phase
// ratio at a fifth of the size, so that a dozen trials fit one run.
const MUTATE_DIRS: usize = 4;
const MUTATE_FILES: usize = 200;
const MUTATE_RENAMES: usize = 100;
const LOOKUP_OPS: usize = 2000;
const MIXED_OPS: usize = 3000;
/// Every tenth op of md_mixed_cached is a mutation.
const MIXED_MUTATE_EVERY: usize = 10;

// data_stream, per trial.
pub const DATA_FILES: usize = 32;
pub const FILE_BYTES: usize = 1 << 20;
const PAYLOAD_POOL: usize = 8;

/// Op kinds; the first eight index `trace::NAMES` (`dufs.<op>`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    Mkdir = 0,
    Create,
    Rename,
    Unlink,
    Rmdir,
    Stat,
    Open,
    ReaddirPlus,
    WriteFile,
    ReadFile,
    DeleteFile,
}

pub const KINDS: usize = 11;
pub const ALL_KINDS: [Kind; KINDS] = [
    Kind::Mkdir,
    Kind::Create,
    Kind::Rename,
    Kind::Unlink,
    Kind::Rmdir,
    Kind::Stat,
    Kind::Open,
    Kind::ReaddirPlus,
    Kind::WriteFile,
    Kind::ReadFile,
    Kind::DeleteFile,
];
pub const MUTATIONS: &[Kind] =
    &[Kind::Mkdir, Kind::Create, Kind::Rename, Kind::Unlink, Kind::Rmdir];
pub const LOOKUPS: &[Kind] = &[Kind::Stat, Kind::Open, Kind::ReaddirPlus];

struct Op {
    kind: Kind,
    path: String,
    /// Rename destination.
    to: String,
}

impl Op {
    fn new(kind: Kind, path: String) -> Op {
        Op { kind, path, to: String::new() }
    }
}

/// Per-kind latency samples in nanoseconds.
pub struct Latencies(pub [Vec<u64>; KINDS]);

impl Latencies {
    fn with_capacity(cap: usize) -> Self {
        Latencies(std::array::from_fn(|_| Vec::with_capacity(cap)))
    }

    /// The samples of `kinds` that each client added after its `marks`
    /// entry (see [`Latencies::mark`]), pooled.
    pub fn since(all: &[&Latencies], marks: &[[usize; KINDS]], kinds: &[Kind]) -> Vec<u64> {
        let mut out = Vec::new();
        for (lat, mark) in all.iter().zip(marks) {
            for &k in kinds {
                out.extend_from_slice(&lat.0[k as usize][mark[k as usize]..]);
            }
        }
        out
    }

    /// How many samples of each kind every client holds right now.
    pub fn mark(all: &[&Latencies]) -> Vec<[usize; KINDS]> {
        all.iter().map(|lat| std::array::from_fn(|k| lat.0[k].len())).collect()
    }
}

/// What one trial measured.
#[derive(Default, Clone)]
pub struct Trial {
    /// Ops the end-to-end rates are taken over.
    pub ops: u64,
    /// Everything attempted, including clean-up the rates do not count.
    pub attempted: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// p50 of the workload's primary op class within this trial.
    pub primary_p50_us: f64,
    pub write_mb_s: f64,
    pub read_mb_s: f64,
    pub disk_bytes_per_user_byte: f64,
}

/// Counters read from outside the layers; the per-op count metrics are
/// differences of two of these.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub coord_reads: u64,
    pub coord_barrier_reads: u64,
    pub coord_writes: u64,
    pub backend_calls: u64,
    pub cache: dufs_core::CacheStats,
    pub net: dufs_net::NetStatsSnapshot,
    pub net_servers: dufs_net::NetStatsSnapshot,
}

/// Correctness-gate ledger: every check is one attempt.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("GATE FAILED: {}", what());
        }
    }
}

/// What the driver needs from a workload, whatever stack it assembles.
pub trait Bench: Sized {
    /// Build the whole system under test and its resident state in `dir`.
    fn setup(dir: &Path, seed: u64, workload: &str) -> Result<Self, String>;
    /// One fixed-size trial; `traced` records spans and round-trip samples.
    fn trial(&mut self, trial: u64, traced: bool) -> Trial;
    fn counters(&mut self) -> Counters;
    fn latencies(&self) -> Vec<&Latencies>;
    fn primary(&self) -> &'static [Kind];
    fn take_recorders(&mut self) -> Vec<Recorder>;
    fn sessions(&mut self) -> Vec<&mut Session>;
    /// Replica agreement after the last trial; returns the agreed
    /// `(digest, node_count)`.
    fn gate(&mut self, gate: &mut Gate) -> Option<(u64, usize)>;
    /// Stop every thread and hand back the ensemble's WAL directory.
    fn teardown(self) -> PathBuf;
}

// ---------------------------------------------------------------------
// Shared set-up
// ---------------------------------------------------------------------

fn resident_file(dir: usize, file: usize) -> String {
    format!("/r{dir:03}/f{file:03}")
}

/// The znodes of resident directory `d` — the directory, then its files —
/// as `(path, payload)` in creation order, and each file's FID. Set-up and
/// the probes build the same namespace from this.
pub fn resident_dir(d: usize, fids: &mut FidGenerator) -> (Vec<(String, Bytes)>, Vec<Fid>) {
    let mut nodes = vec![(format!("/r{d:03}"), NodeMeta::dir(0o755).encode())];
    let mut minted = Vec::with_capacity(FILES_PER_DIR);
    for f in 0..FILES_PER_DIR {
        let fid = fids.next_fid();
        nodes.push((resident_file(d, f), NodeMeta::file(fid, 0o644).encode()));
        minted.push(fid);
    }
    (nodes, minted)
}

/// One multi-op transaction creating `nodes`.
pub fn create_all(nodes: Vec<(String, Bytes)>) -> ZkRequest {
    let ops = nodes
        .into_iter()
        .map(|(path, data)| MultiOp::Create { path, data, mode: CreateMode::Persistent })
        .collect();
    ZkRequest::Multi { ops }
}

/// Create the resident namespace in a few hundred multi-op transactions
/// (one per directory) and the matching physical files on the mounts, so
/// set-up stays a fraction of a second and can be repeated.
fn populate(
    ens: &Ensemble,
    mounts: &mut LocalBackends,
    extra_dirs: &[String],
) -> Result<usize, String> {
    let mut session = ens.session(0)?;
    let mapper = Md5Mapping::new(BACKENDS);
    let mut fids = FidGenerator::new(1 << 32);
    let mut send = |nodes: Vec<(String, Bytes)>| {
        let first = nodes[0].0.clone();
        match session.zk().request(create_all(nodes)).err() {
            Some(e) => Err(format!("populate {first}: {e:?}")),
            None => Ok(()),
        }
    };
    for d in 0..RESIDENT_DIRS {
        let (nodes, minted) = resident_dir(d, &mut fids);
        for fid in minted {
            let path = dufs_core::shard::physical_path("/", fid);
            mounts.call(mapper.backend_of(fid), BackendReq::CreateFile { path, mode: 0o644 });
        }
        send(nodes)?;
    }
    if !extra_dirs.is_empty() {
        send(extra_dirs.iter().map(|p| (p.clone(), NodeMeta::dir(0o755).encode())).collect())?;
    }
    Ok(RESIDENT_DIRS * (1 + FILES_PER_DIR) + extra_dirs.len())
}

fn check_replicas(ens: &Ensemble, expected_nodes: usize, gate: &mut Gate) -> Option<(u64, usize)> {
    match ens.converged() {
        Ok(all) => {
            gate.check(all[0].node_count == expected_nodes, || {
                format!(
                    "node_count {} after the last trial, expected {expected_nodes}",
                    all[0].node_count
                )
            });
            Some((all[0].digest, all[0].node_count))
        }
        Err(e) => {
            gate.check(false, || e);
            None
        }
    }
}

// ---------------------------------------------------------------------
// md_mutate / md_lookup / md_mixed_cached
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum MdKind {
    Mutate,
    Lookup,
    Mixed,
}

struct MdClient<C: Coord> {
    fs: Dufs<C, Backends>,
    lat: Latencies,
}

/// A metadata workload over coordination handle `C` (`Session` with the
/// cache off, `Cached` with it on).
pub struct Md<C: Coord> {
    kind: MdKind,
    seed: u64,
    wal_dir: PathBuf,
    ens: Ensemble,
    clients: Vec<MdClient<C>>,
    recorders: Vec<Recorder>,
    expected_nodes: usize,
    /// Hot-set rank → resident file, shuffled by the seed.
    hot: Vec<(usize, usize)>,
    zipf: Zipf,
}

impl<C: Coord> Md<C> {
    fn gen_ops(&self, client: usize, trial: u64) -> Vec<Op> {
        let mut rng = Rng::new(self.seed, (trial << 8) | client as u64);
        let tag = rng.next_u64() & 0xFFFF_FFFF;
        match self.kind {
            MdKind::Mutate => {
                let dir = |j: usize| format!("/m{client}/t{tag:08x}_{j}");
                let file = |i: usize| format!("{}/f{i}", dir(i % MUTATE_DIRS));
                let moved = |i: usize| format!("{}/g{i}", dir(i % MUTATE_DIRS));
                let mut ops =
                    Vec::with_capacity(2 * MUTATE_DIRS + 2 * MUTATE_FILES + MUTATE_RENAMES);
                ops.extend((0..MUTATE_DIRS).map(|j| Op::new(Kind::Mkdir, dir(j))));
                ops.extend((0..MUTATE_FILES).map(|i| Op::new(Kind::Create, file(i))));
                ops.extend((0..MUTATE_RENAMES).map(|i| Op {
                    kind: Kind::Rename,
                    path: file(i),
                    to: moved(i),
                }));
                ops.extend((0..MUTATE_FILES).map(|i| {
                    Op::new(Kind::Unlink, if i < MUTATE_RENAMES { moved(i) } else { file(i) })
                }));
                ops.extend((0..MUTATE_DIRS).map(|j| Op::new(Kind::Rmdir, dir(j))));
                ops
            }
            MdKind::Lookup => {
                let mut ops: Vec<Op> = (0..LOOKUP_OPS)
                    .map(|i| match i % 10 {
                        0 => {
                            Op::new(Kind::ReaddirPlus, format!("/r{:03}", rng.below(RESIDENT_DIRS)))
                        }
                        1 | 2 => Op::new(
                            Kind::Open,
                            resident_file(rng.below(RESIDENT_DIRS), rng.below(FILES_PER_DIR)),
                        ),
                        _ => Op::new(
                            Kind::Stat,
                            resident_file(rng.below(RESIDENT_DIRS), rng.below(FILES_PER_DIR)),
                        ),
                    })
                    .collect();
                rng.shuffle(&mut ops);
                ops
            }
            MdKind::Mixed => {
                let mut ops = Vec::with_capacity(MIXED_OPS);
                let mut scratch = (String::new(), String::new());
                let mut mutation = 0usize;
                for i in 0..MIXED_OPS {
                    if i % MIXED_MUTATE_EVERY == MIXED_MUTATE_EVERY - 1 {
                        // create → rename → unlink of one scratch file in a
                        // hot directory; three mutations close a cycle, so
                        // the trial leaves the namespace as it found it.
                        match mutation % 3 {
                            0 => {
                                let (d, _) = self.hot[self.zipf.sample(&mut rng)];
                                let k = mutation / 3;
                                scratch = (
                                    format!("/r{d:03}/s{client}_{tag:08x}_{k}"),
                                    format!("/r{d:03}/t{client}_{tag:08x}_{k}"),
                                );
                                ops.push(Op::new(Kind::Create, scratch.0.clone()));
                            }
                            1 => ops.push(Op {
                                kind: Kind::Rename,
                                path: scratch.0.clone(),
                                to: scratch.1.clone(),
                            }),
                            _ => ops.push(Op::new(Kind::Unlink, scratch.1.clone())),
                        }
                        mutation += 1;
                    } else {
                        let (d, f) = self.hot[self.zipf.sample(&mut rng)];
                        let kind = if rng.below(9) < 2 { Kind::Open } else { Kind::Stat };
                        ops.push(Op::new(kind, resident_file(d, f)));
                    }
                }
                debug_assert_eq!(mutation % 3, 0);
                ops
            }
        }
    }
}

/// Run one op, check what it returned, and sample its latency.
fn exec<C: Coord>(c: &mut MdClient<C>, op: &Op) -> bool {
    let t0 = Instant::now();
    let ok = trace::span(op.kind as u8, || match op.kind {
        Kind::Mkdir => c.fs.mkdir(&op.path, 0o755).is_ok(),
        Kind::Create => c.fs.create(&op.path, 0o644).is_ok(),
        Kind::Rename => c.fs.rename(&op.path, &op.to).is_ok(),
        Kind::Unlink => c.fs.unlink(&op.path).is_ok(),
        Kind::Rmdir => c.fs.rmdir(&op.path).is_ok(),
        Kind::Stat => c.fs.stat(&op.path).is_ok_and(|a| a.kind == NodeKind::File),
        Kind::Open => c.fs.open(&op.path).and_then(|h| c.fs.close(h)).is_ok(),
        Kind::ReaddirPlus => c.fs.readdir_plus(&op.path).is_ok_and(|e| {
            e.len() >= FILES_PER_DIR && e.iter().all(|(_, a)| a.kind == NodeKind::File)
        }),
        Kind::WriteFile | Kind::ReadFile | Kind::DeleteFile => unreachable!("data_stream op"),
    });
    c.lat.0[op.kind as usize].push(t0.elapsed().as_nanos() as u64);
    ok
}

impl<C: Coord> Bench for Md<C> {
    fn setup(dir: &Path, seed: u64, workload: &str) -> Result<Self, String> {
        let kind = match workload {
            "md_mutate" => MdKind::Mutate,
            "md_lookup" => MdKind::Lookup,
            "md_mixed_cached" => MdKind::Mixed,
            other => return Err(format!("not a metadata workload: {other}")),
        };
        let n_clients = md_clients();
        let wal_dir = dir.join("wal");
        let ens = Ensemble::start(VOTERS, Some(&wal_dir))?;
        let mut mounts = LocalBackends::lustre(BACKENDS);
        let private: Vec<String> = match kind {
            MdKind::Mutate => (0..n_clients).map(|c| format!("/m{c}")).collect(),
            _ => Vec::new(),
        };
        let expected_nodes = populate(&ens, &mut mounts, &private)?;

        let mut rng = Rng::new(seed, 0xD0F5);
        let mut hot: Vec<(usize, usize)> =
            (0..HOT_DIRS).flat_map(|d| (0..FILES_PER_DIR).map(move |f| (d, f))).collect();
        rng.shuffle(&mut hot);

        let samples = 64 * LOOKUP_OPS.max(MIXED_OPS);
        let mut clients = Vec::with_capacity(n_clients);
        for c in 0..n_clients {
            let coord = C::wrap(ens.session(c)?);
            clients.push(MdClient {
                fs: Dufs::new(c as u64 + 1, coord, Backends::new(mounts.clone())),
                lat: Latencies::with_capacity(samples),
            });
        }
        if kind == MdKind::Mixed {
            // Fill each client's cache with the whole hot set (one
            // READDIRPLUS-style round trip per directory, watches included)
            // so the hit ratio is steady from the first measured trial.
            for c in &mut clients {
                for d in 0..HOT_DIRS {
                    let resp =
                        c.fs.coord_mut()
                            .request(ZkRequest::WarmChildren { path: format!("/r{d:03}") });
                    if resp.err().is_some() {
                        return Err(format!("warm /r{d:03}: {resp:?}"));
                    }
                }
            }
        }
        let all = ens.converged()?;
        if all[0].node_count != expected_nodes {
            return Err(format!(
                "set-up left {} znodes, expected {expected_nodes}",
                all[0].node_count
            ));
        }
        Ok(Md {
            kind,
            seed,
            wal_dir,
            ens,
            clients,
            recorders: Vec::new(),
            expected_nodes,
            hot,
            zipf: Zipf::new(HOT_DIRS * FILES_PER_DIR),
        })
    }

    fn trial(&mut self, trial: u64, traced: bool) -> Trial {
        // Op streams exist before the clock starts.
        let streams: Vec<Vec<Op>> =
            (0..self.clients.len()).map(|c| self.gen_ops(c, trial)).collect();
        let marks = Latencies::mark(&self.latencies());
        for c in &mut self.clients {
            c.fs.coord_mut().session().set_traced(traced, 4 * MIXED_OPS);
        }
        let epoch = Instant::now();
        let start = Barrier::new(self.clients.len());
        let cpu0 = util::process_cpu_ns();
        let results: Vec<(u64, u64, u64, Option<Recorder>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&streams)
                .map(|(c, ops)| {
                    let start = &start;
                    s.spawn(move || {
                        if traced {
                            trace::install(epoch, 8 * ops.len());
                        }
                        start.wait();
                        let t0 = epoch.elapsed().as_nanos() as u64;
                        let failed = ops.iter().filter(|op| !exec(c, op)).count() as u64;
                        let t1 = epoch.elapsed().as_nanos() as u64;
                        (t0, t1, failed, trace::take())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let cpu_ns = util::process_cpu_ns() - cpu0;
        let first = results.iter().map(|r| r.0).min().unwrap_or(0);
        let last = results.iter().map(|r| r.1).max().unwrap_or(0);
        let failed = results.iter().map(|r| r.2).sum();
        self.recorders.extend(results.into_iter().filter_map(|r| r.3));

        let ops: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let mut primary = Latencies::since(&self.latencies(), &marks, self.primary());
        Trial {
            ops,
            attempted: ops,
            failed,
            wall_ns: last - first,
            cpu_ns,
            primary_p50_us: util::p50_us(&mut primary),
            ..Trial::default()
        }
    }

    fn counters(&mut self) -> Counters {
        let mut k = Counters::default();
        for c in &mut self.clients {
            k.backend_calls += c.fs.backends_mut().calls;
            if let Some(cs) = c.fs.coord_mut().cache_stats() {
                k.cache.absorb(&cs);
            }
            let s = c.fs.coord_mut().session();
            k.coord_reads += s.stats.reads;
            k.coord_barrier_reads += s.stats.barrier_reads;
            k.coord_writes += s.stats.writes;
            k.net.absorb(&s.net_stats());
        }
        k.net_servers = self.ens.net_stats();
        k
    }

    fn latencies(&self) -> Vec<&Latencies> {
        self.clients.iter().map(|c| &c.lat).collect()
    }

    fn primary(&self) -> &'static [Kind] {
        match self.kind {
            MdKind::Mutate => MUTATIONS,
            MdKind::Lookup => LOOKUPS,
            MdKind::Mixed => &[Kind::Stat, Kind::Open],
        }
    }

    fn take_recorders(&mut self) -> Vec<Recorder> {
        std::mem::take(&mut self.recorders)
    }

    fn sessions(&mut self) -> Vec<&mut Session> {
        self.clients.iter_mut().map(|c| c.fs.coord_mut().session()).collect()
    }

    fn gate(&mut self, gate: &mut Gate) -> Option<(u64, usize)> {
        check_replicas(&self.ens, self.expected_nodes, gate)
    }

    fn teardown(self) -> PathBuf {
        drop(self.clients);
        self.ens.shutdown();
        self.wal_dir
    }
}

// ---------------------------------------------------------------------
// data_stream
// ---------------------------------------------------------------------

pub struct DataStream {
    seed: u64,
    wal_dir: PathBuf,
    ens: Ensemble,
    data: DataPath,
    fs: Dufs<Session, Backends>,
    store: StoreClient,
    /// Seeded payloads and their CRCs, generated before any clock starts.
    payloads: Vec<(Vec<u8>, u32)>,
    read_buf: Vec<u8>,
    lat: Latencies,
    recorders: Vec<Recorder>,
    expected_nodes: usize,
}

impl Bench for DataStream {
    fn setup(dir: &Path, seed: u64, _workload: &str) -> Result<Self, String> {
        let wal_dir = dir.join("wal");
        let ens = Ensemble::start(VOTERS, Some(&wal_dir))?;
        let data = DataPath::start(dir)?;
        let store = data.client()?;
        // The same resident namespace as the md_* workloads: one system,
        // so a checkpoint costs here what it costs there.
        let mut mounts = LocalBackends::lustre(BACKENDS);
        let expected_nodes = populate(&ens, &mut mounts, &["/d0".into()])?;
        let fs = Dufs::new(1, ens.session(0)?, Backends::new(mounts));
        let mut rng = Rng::new(seed, 0xDA7A);
        let payloads = (0..PAYLOAD_POOL)
            .map(|_| {
                let mut buf = vec![0u8; FILE_BYTES];
                rng.fill(&mut buf);
                let crc = dufs_net::crc32(&buf);
                (buf, crc)
            })
            .collect();
        Ok(DataStream {
            seed,
            wal_dir,
            ens,
            data,
            fs,
            store,
            payloads,
            read_buf: vec![0u8; FILE_BYTES],
            lat: Latencies::with_capacity(64 * DATA_FILES),
            recorders: Vec::new(),
            expected_nodes,
        })
    }

    fn trial(&mut self, trial: u64, traced: bool) -> Trial {
        let mut rng = Rng::new(self.seed, trial << 8);
        let tag = rng.next_u64() & 0xFFFF_FFFF;
        let files: Vec<(String, usize)> = (0..DATA_FILES)
            .map(|k| (format!("/d0/f{tag:08x}_{k}"), rng.below(PAYLOAD_POOL)))
            .collect();
        let mut fids: Vec<Option<Fid>> = vec![None; DATA_FILES];
        let marks = Latencies::mark(&[&self.lat]);
        self.fs.coord_mut().set_traced(traced, 8 * DATA_FILES);
        let epoch = Instant::now();
        if traced {
            trace::install(epoch, 32 * DATA_FILES);
        }
        let disk0 = self.data.disk_bytes();
        let cpu0 = util::process_cpu_ns();
        let mut failed = 0u64;

        // Write phase: first create → sync ack.
        let t_write = Instant::now();
        for (k, (path, p)) in files.iter().enumerate() {
            let t0 = Instant::now();
            let ok = trace::span(trace::WRITE_FILE, || {
                match trace::span(Kind::Create as u8, || self.fs.create(path, 0o644)) {
                    Ok(fid) => {
                        fids[k] = Some(fid);
                        trace::span(trace::STORE_WRITE, || {
                            self.store.write(fid, 0, &self.payloads[*p].0)
                        })
                        .is_ok()
                    }
                    Err(_) => false,
                }
            });
            self.lat.0[Kind::WriteFile as usize].push(t0.elapsed().as_nanos() as u64);
            failed += !ok as u64;
        }
        failed += trace::span(trace::STORE_SYNC, || self.store.sync()).is_err() as u64;
        let write_ns = t_write.elapsed().as_nanos() as u64;
        let disk_high = self.data.disk_bytes();

        // Read phase: the clock covers the reads, not the harness's own CRC.
        let mut read_ns = 0u64;
        for (k, (_, p)) in files.iter().enumerate() {
            let Some(fid) = fids[k] else { continue };
            let t0 = Instant::now();
            let got = trace::span(trace::READ_FILE, || {
                trace::span(trace::STORE_READ, || self.store.read_into(fid, 0, &mut self.read_buf))
            });
            let ns = t0.elapsed().as_nanos() as u64;
            read_ns += ns;
            self.lat.0[Kind::ReadFile as usize].push(ns);
            let ok = got.is_ok() && dufs_net::crc32(&self.read_buf) == self.payloads[*p].1;
            failed += !ok as u64;
        }

        // Clean-up: the namespace and the live data return to their size.
        for (k, (path, _)) in files.iter().enumerate() {
            let Some(fid) = fids[k] else { continue };
            let t0 = Instant::now();
            let ok = trace::span(trace::DELETE_FILE, || {
                trace::span(Kind::Unlink as u8, || self.fs.unlink(path)).is_ok()
                    && trace::span(trace::STORE_DELETE, || self.store.delete(fid))
                        .is_ok_and(|existed| existed)
            });
            self.lat.0[Kind::DeleteFile as usize].push(t0.elapsed().as_nanos() as u64);
            failed += !ok as u64;
        }
        let wall_ns = epoch.elapsed().as_nanos() as u64;
        let cpu_ns = util::process_cpu_ns() - cpu0;
        self.recorders.extend(trace::take());

        let bytes = (DATA_FILES * FILE_BYTES) as f64;
        let mut primary = Latencies::since(&[&self.lat], &marks, self.primary());
        Trial {
            ops: 2 * DATA_FILES as u64,
            attempted: 3 * DATA_FILES as u64 + 1,
            failed,
            wall_ns,
            cpu_ns,
            primary_p50_us: util::p50_us(&mut primary),
            write_mb_s: bytes / 1e6 / (write_ns as f64 / 1e9),
            read_mb_s: bytes / 1e6 / (read_ns.max(1) as f64 / 1e9),
            disk_bytes_per_user_byte: (disk_high - disk0) as f64 / bytes,
        }
    }

    fn counters(&mut self) -> Counters {
        let s = self.fs.coord_mut();
        Counters {
            coord_reads: s.stats.reads,
            coord_barrier_reads: s.stats.barrier_reads,
            coord_writes: s.stats.writes,
            net: s.net_stats(),
            backend_calls: self.fs.backends_mut().calls,
            net_servers: self.ens.net_stats(),
            ..Counters::default()
        }
    }

    fn latencies(&self) -> Vec<&Latencies> {
        vec![&self.lat]
    }

    fn primary(&self) -> &'static [Kind] {
        &[Kind::WriteFile]
    }

    fn take_recorders(&mut self) -> Vec<Recorder> {
        std::mem::take(&mut self.recorders)
    }

    fn sessions(&mut self) -> Vec<&mut Session> {
        vec![self.fs.coord_mut()]
    }

    fn gate(&mut self, gate: &mut Gate) -> Option<(u64, usize)> {
        check_replicas(&self.ens, self.expected_nodes, gate)
    }

    fn teardown(self) -> PathBuf {
        drop(self.fs);
        drop(self.store);
        self.data.stop();
        self.ens.shutdown();
        self.wal_dir
    }
}
