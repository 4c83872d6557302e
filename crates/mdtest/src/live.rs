//! Live-cluster mdtest: drive the workload of [`crate::workload`] through
//! the DUFS client library against a *real* coordination ensemble
//! (in-process `ThreadCluster` or socket-backed `TcpCluster`) instead of
//! the simulated testbed.
//!
//! Each mdtest "process" is a thread owning one [`Dufs`] client — the same
//! POSIX calls (`mkdir`, `create`, `stat`, `unlink`, `rmdir`) over the same
//! [`crate::workload::WorkloadSpec`] op streams the simulated clients step
//! through `dufs_core::plan`, minting FIDs under the same client ids
//! ([`crate::scenario::client_id`]). A live run therefore lands on the
//! **simulated run's namespace digest**, whatever session shape serves it.
//! Phases are separated by joining all threads (mdtest's `MPI_Barrier`),
//! and every mutation phase ends with a `Sync` so replica digests can be
//! compared immediately after.
//!
//! A mutation that fails — including one the transport retried after a lost
//! reply, which `Dufs` reports as `Exists`/`NoEnt` — panics naming the op:
//! on a healthy ensemble none does, and a lost or doubled operation must
//! not pass for a slow one.

use std::time::Instant;

use dufs_cache::CacheStats;
use dufs_coord::{CoordService, ZkRequest};
use dufs_core::services::LocalBackends;
use dufs_core::vfs::Dufs;
use dufs_core::{DufsError, DufsResult, Fid};
use dufs_store::StoreClient;

use crate::data::{contents_for, verify_file, DataSpec, Zipf};
use crate::scenario::client_id;
use crate::workload::{NativeOp, Phase, WorkloadSpec};

/// Wall-clock result of one live phase (all processes joined).
#[derive(Debug, Clone)]
pub struct LivePhase {
    /// Which mdtest phase this was.
    pub phase: Phase,
    /// Total operations across all processes.
    pub ops: u64,
    /// Wall-clock duration of the phase, in microseconds.
    pub wall_us: u64,
    /// Aggregate throughput (`ops / wall`).
    pub ops_per_sec: f64,
}

/// The data half of a mixed run: what every file holds, and how process
/// `p` reaches the data targets.
pub struct DataPath<'a> {
    /// Bytes per file, stripe size, re-read skew.
    pub spec: DataSpec,
    /// Open process `p`'s striped client.
    pub store_for: Box<dyn Fn(usize) -> StoreClient + 'a>,
}

/// What [`run_live`] hands back.
pub struct LiveRun<S> {
    /// Per-phase wall-clock results.
    pub phases: Vec<LivePhase>,
    /// The processes' clients, for transport or cache statistics
    /// (`Dufs::coord_mut`) or further operations on the namespace built.
    pub clients: Vec<Dufs<S, LocalBackends>>,
    /// Mixed runs: the contents digest folded over every file a stat phase
    /// read back — [`crate::data::expected_data_digest`] when the spec
    /// stats every file once. `None` without a [`DataPath`].
    pub data_digest: Option<u64>,
}

/// One mdtest process: its DUFS client and, on a mixed run, its data half.
struct Proc<S> {
    fs: Dufs<S, LocalBackends>,
    data: Option<ProcData>,
}

struct ProcData {
    store: StoreClient,
    bytes: usize,
    /// The popularity sampler over this process's own files.
    hot: Option<(Zipf, Vec<String>)>,
    digest: u64,
}

/// The FID the namespace holds for file `path`.
fn fid_of<S: CoordService>(fs: &mut Dufs<S, LocalBackends>, path: &str) -> DufsResult<Fid> {
    fs.node_meta(path)?.fid().ok_or(DufsError::IsDir)
}

/// Execute one native op through the POSIX API. On a mixed run a `creat`
/// is followed by a striped write of the file's contents under the FID it
/// minted, a file stat by a read-back verify (plus one popularity-skewed
/// re-read when the Zipf knob is on), and an unlink deletes the data.
fn exec<S: CoordService>(p: &mut Proc<S>, op: &NativeOp) -> DufsResult<()> {
    let Proc { fs, data } = p;
    match op {
        NativeOp::Mkdir(path) => fs.mkdir(path, 0o755),
        NativeOp::Rmdir(path) => fs.rmdir(path),
        NativeOp::Create(path) => {
            let fid = fs.create(path, 0o644)?;
            if let Some(d) = data {
                d.store.write(fid, 0, &contents_for(path, d.bytes)).expect("striped write");
            }
            Ok(())
        }
        NativeOp::Unlink(path) => {
            let Some(d) = data else { return fs.unlink(path) };
            let fid = fid_of(fs, path)?;
            fs.unlink(path)?;
            d.store.delete(fid).expect("data delete");
            Ok(())
        }
        NativeOp::StatDir(path) => fs.stat(path).map(drop),
        NativeOp::StatFile(path) => {
            fs.stat(path)?;
            let Some(d) = data else { return Ok(()) };
            let own = verify_file(&mut d.store, fid_of(fs, path)?, path, d.bytes);
            d.digest = d.digest.wrapping_add(own);
            if let Some((zipf, files)) = d.hot.as_mut() {
                let hot = &files[zipf.sample()];
                verify_file(&mut d.store, fid_of(fs, hot)?, hot, d.bytes);
            }
            Ok(())
        }
    }
}

/// Run the spec's phases through one [`Dufs`] client per mdtest process
/// against a live ensemble.
///
/// `client_for(proc)` must hand out an *established* session for mdtest
/// process `proc`; sessions live for the whole run (one per thread). Any
/// [`CoordService`] works — a plain `ZkClient` on either transport, a
/// `ShardedClient`, or either behind `dufs_cache::Cached` (private, or
/// attached to one process-wide `SharedCache`). `zk_servers` and `backends`
/// are the simulated topology the run is comparable with: they fix the
/// client ids FIDs are minted under, and `backends` is also the number of
/// in-memory mounts the clients merge. With `data`, every process also
/// drives the striped data path.
///
/// `strict_stats` makes the stat phases insist that every stat *finds* its
/// node. Only enable it when `client_for` hands out sessions with
/// read-your-writes or stronger reads ([`dufs_coord::ReadConsistency`]) —
/// with plain local reads on a lagging follower, an empty stat is a
/// legitimate outcome, not a bug.
pub fn run_live<S, F>(
    spec: &WorkloadSpec,
    zk_servers: usize,
    backends: usize,
    client_for: F,
    data: Option<DataPath<'_>>,
    strict_stats: bool,
) -> LiveRun<S>
where
    S: CoordService + Send,
    F: Fn(usize) -> S,
{
    let mounts = LocalBackends::lustre(backends);
    let mut procs: Vec<Proc<S>> = (0..spec.processes)
        .map(|p| Proc {
            fs: Dufs::new(client_id(zk_servers, backends, p), client_for(p), mounts.clone()),
            data: data.as_ref().map(|d| ProcData {
                store: (d.store_for)(p),
                bytes: d.spec.bytes,
                hot: d.spec.zipf.map(|theta| {
                    (Zipf::new(spec.files_per_proc, theta, p as u64 + 1), spec.file_paths(p))
                }),
                digest: 0,
            }),
        })
        .collect();
    // Unmeasured setup, exactly like mdtest: the shared root (every process
    // tries, one wins) and the process's private subtree root.
    for (p, proc) in procs.iter_mut().enumerate() {
        for path in spec.setup_paths(p) {
            match proc.fs.mkdir(&path, 0o755) {
                Ok(()) | Err(DufsError::Exists) => {}
                Err(e) => panic!("setup {path}: {e:?}"),
            }
        }
    }

    let mut phases = Vec::with_capacity(spec.phases.len());
    for &phase in &spec.phases {
        let t0 = Instant::now();
        let mut total_ops = 0u64;
        // The scope joins every process (mdtest's `MPI_Barrier`) and
        // propagates any panic.
        std::thread::scope(|scope| {
            for (p, proc) in procs.iter_mut().enumerate() {
                let ops = spec.ops_for(p, phase);
                total_ops += ops.len() as u64;
                scope.spawn(move || {
                    for op in &ops {
                        match exec(proc, op) {
                            Ok(()) => {}
                            Err(DufsError::NoEnt) if !phase.is_mutation() && !strict_stats => {}
                            Err(e) => panic!("process {p}: {op:?}: {e:?}"),
                        }
                    }
                    if phase.is_mutation() {
                        let synced =
                            proc.fs.coord_mut().request(ZkRequest::Sync { coalesce: false });
                        assert!(synced.err().is_none(), "phase sync: {synced:?}");
                        if let Some(d) = proc.data.as_mut() {
                            d.store.sync().expect("data sync");
                        }
                    }
                });
            }
        });
        let wall_us = t0.elapsed().as_micros().max(1) as u64;
        phases.push(LivePhase {
            phase,
            ops: total_ops,
            wall_us,
            ops_per_sec: total_ops as f64 / (wall_us as f64 / 1e6),
        });
    }

    let data_digest = data.is_some().then(|| {
        procs.iter().flat_map(|p| &p.data).fold(0u64, |sum, d| sum.wrapping_add(d.digest))
    });
    LiveRun { phases, clients: procs.into_iter().map(|p| p.fs).collect(), data_digest }
}

/// Sum per-session [`CacheStats`] into one line's worth of counters.
pub fn aggregate_cache_stats(stats: impl IntoIterator<Item = CacheStats>) -> CacheStats {
    let mut total = CacheStats::default();
    for s in stats {
        total.absorb(&s);
    }
    total
}
