//! The design's core promise, verified: the *same* operation planner drives
//! both the synchronous library and the discrete-event simulator, so an
//! identical workload must produce a **bit-identical coordination-service
//! namespace** in both worlds (content digest over paths, payloads — which
//! embed FIDs — and versions).
//!
//! The second half is the **`Dufs` stack matrix**: the same per-process op
//! streams through `Dufs` over every session shape the client stack offers
//! — in-process, {thread, tcp} × {no cache, private cache, one shared
//! cache}, and {thread, tcp} × {1, 2 shards} × {no cache, shared cache} —
//! must build the same namespace.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dufs_cache::{CacheBuilder, Cached};
use dufs_repro::coord::{
    ClientOptions, ClusterBuilder, ClusterHandle, ReadConsistency, ShardedCluster, ZkRequest,
    ZkResponse,
};
use dufs_repro::core::services::{BackendSet, CoordService, LocalBackends, SoloCoord};
use dufs_repro::core::vfs::Dufs;
use dufs_repro::core::DufsError;
use dufs_repro::mdtest::scenario::{run_mdtest_report, MdtestConfig, MdtestSystem};
use dufs_repro::mdtest::workload::{NativeOp, Phase, WorkloadSpec};

/// A shareable handle over one in-process coordination service, so several
/// live DUFS clients hit a single namespace like the simulated ones do.
#[derive(Clone)]
struct SharedSolo(Rc<RefCell<SoloCoord>>);

impl CoordService for SharedSolo {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        self.0.borrow_mut().request(req)
    }
}

/// Execute one mdtest op through the POSIX API.
fn apply<C: CoordService, B: BackendSet>(fs: &mut Dufs<C, B>, op: NativeOp) {
    match op {
        NativeOp::Mkdir(path) => fs.mkdir(&path, 0o755).unwrap(),
        NativeOp::Rmdir(path) => fs.rmdir(&path).unwrap(),
        NativeOp::Create(path) => {
            fs.create(&path, 0o644).unwrap();
        }
        NativeOp::Unlink(path) => fs.unlink(&path).unwrap(),
        NativeOp::StatDir(path) | NativeOp::StatFile(path) => {
            fs.stat(&path).unwrap();
        }
    }
}

fn spec(processes: usize) -> WorkloadSpec {
    WorkloadSpec {
        // Stop after the file phases so a non-trivial namespace remains
        // (files present, trees present) for the comparison.
        phases: vec![Phase::DirCreate, Phase::DirStat, Phase::FileCreate, Phase::FileStat],
        ..WorkloadSpec::mdtest(processes, 9)
    }
}

#[test]
fn simulated_and_live_runs_produce_identical_namespaces() {
    let processes = 6;
    let zk_servers = 1; // client ids below depend on the topology
    let n_backends = 2;
    let s = spec(processes);

    // --- Simulated run.
    let report = run_mdtest_report(&MdtestConfig::new(
        MdtestSystem::DufsLustre { zk_servers, backends: n_backends },
        s.clone(),
        77,
    ));
    assert!(report.phases.iter().all(|p| p.errors == 0));

    // --- Live replay: same per-process op streams, same client ids (the
    // simulator assigns client id = sim node id = zk + backends + 1 + p).
    let solo = SharedSolo(Rc::new(RefCell::new(SoloCoord::new())));
    let backends = LocalBackends::lustre(n_backends);
    let mut clients: Vec<Dufs<SharedSolo, LocalBackends>> = (0..processes)
        .map(|p| {
            let client_id = (zk_servers + n_backends + 1 + p) as u64;
            Dufs::new(client_id, solo.clone(), backends.clone())
        })
        .collect();
    // Setup phase (same as the simulated clients' setup).
    for (p, fs) in clients.iter_mut().enumerate() {
        let _ = fs.mkdir("/mdtest", 0o755);
        fs.mkdir(&WorkloadSpec::proc_root(p), 0o755).unwrap();
    }
    // Phases with barrier semantics: all clients finish phase k before k+1.
    for &phase in &s.phases {
        for (p, fs) in clients.iter_mut().enumerate() {
            for op in s.ops_for(p, phase) {
                apply(fs, op);
            }
        }
    }

    let live = solo.0.borrow();
    let live_tree = live.server().tree();
    assert_eq!(
        live_tree.node_count(),
        report.namespace_nodes,
        "same number of znodes in both worlds"
    );
    assert_eq!(
        live_tree.digest(),
        report.namespace_digest,
        "identical namespace contents (paths, FIDs, modes, versions)"
    );
}

#[test]
fn simulated_runs_are_reproducible_across_invocations() {
    let cfg =
        MdtestConfig::new(MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 }, spec(4), 5);
    let a = run_mdtest_report(&cfg);
    let b = run_mdtest_report(&cfg);
    assert_eq!(a.namespace_digest, b.namespace_digest);
    assert_eq!(a.namespace_nodes, b.namespace_nodes);
    let ta: Vec<u64> = a.phases.iter().map(|p| p.ops).collect();
    let tb: Vec<u64> = b.phases.iter().map(|p| p.ops).collect();
    assert_eq!(ta, tb);
    // Throughputs are bit-identical too: virtual time is deterministic.
    for (x, y) in a.phases.iter().zip(&b.phases) {
        assert_eq!(x.ops_per_sec.to_bits(), y.ops_per_sec.to_bits());
    }
}

// ---------------------------------------------------------------------
// The Dufs stack matrix
// ---------------------------------------------------------------------

/// Cluster cells use real-time election timers; run them one at a time.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

const PROCS: usize = 3;

/// Drive the matrix workload through one `Dufs` client per session, with
/// the same client ids (hence the same FIDs) in every cell: setup, the four
/// create/stat phases, one same-directory file rename per process, then
/// removal of every other file. Ops run one at a time from this thread, so
/// the op order — and with it every znode version — is identical across
/// cells. Ends with a `Sync` on every session.
fn drive<C: CoordService>(sessions: Vec<C>) -> Vec<Dufs<C, LocalBackends>> {
    let s = spec(PROCS);
    let backends = LocalBackends::lustre(2);
    let mut clients: Vec<Dufs<C, LocalBackends>> = sessions
        .into_iter()
        .enumerate()
        .map(|(p, c)| Dufs::new(100 + p as u64, c, backends.clone()))
        .collect();
    for (p, fs) in clients.iter_mut().enumerate() {
        match fs.mkdir("/mdtest", 0o755) {
            Ok(()) | Err(DufsError::Exists) => {}
            Err(e) => panic!("setup /mdtest: {e:?}"),
        }
        fs.mkdir(&WorkloadSpec::proc_root(p), 0o755).unwrap();
    }
    for &phase in &s.phases {
        for (p, fs) in clients.iter_mut().enumerate() {
            for op in s.ops_for(p, phase) {
                apply(fs, op);
            }
        }
    }
    for (p, fs) in clients.iter_mut().enumerate() {
        let files = s.file_paths(p);
        fs.rename(&files[0], &format!("{}.moved", files[0])).unwrap();
        for path in files.iter().skip(1).step_by(2) {
            fs.unlink(path).unwrap();
        }
        let synced = fs.coord_mut().request(ZkRequest::Sync { coalesce: false });
        assert!(synced.err().is_none(), "final sync: {synced:?}");
    }
    clients
}

/// `(digest, znodes)` once every member reports the same applied state.
fn converged<C: ClusterHandle>(cluster: &C) -> (u64, usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let all: Vec<_> = (0..cluster.members()).map(|i| cluster.status(i)).collect();
        if all.iter().all(|x| x.digest == all[0].digest && x.last_applied == all[0].last_applied) {
            return (all[0].digest, all[0].node_count);
        }
        assert!(Instant::now() < deadline, "no convergence: {all:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn cache_hits<C: CoordService, B>(clients: &mut [Dufs<Cached<C>, B>]) -> u64
where
    B: BackendSet,
{
    clients.iter_mut().map(|fs| fs.coord_mut().stats().hits).sum()
}

/// The three unsharded cells of one runtime: no cache, a private cache per
/// session, all sessions on one shared cache. Each boots a fresh 3-voter
/// ensemble (sessions at the leader, `SyncThenLocal`, so the cached cells
/// run the lease protocol) and returns its converged `(digest, znodes)`.
fn unsharded_cells<C: ClusterHandle>(boot: impl Fn() -> C) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    for mode in ["no cache", "private cache", "shared cache"] {
        let cluster = boot();
        let leader = cluster.await_leader(Duration::from_secs(30)).expect("leader");
        let opts = ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal);
        let open = |_| cluster.client(opts).expect("session");
        let shared = CacheBuilder::new().shared();
        match mode {
            "no cache" => drop(drive((0..PROCS).map(open).collect())),
            "private cache" => {
                let sessions = (0..PROCS).map(|p| CacheBuilder::new().session(open(p)));
                assert!(cache_hits(&mut drive(sessions.collect())) > 0, "{mode} never hit");
            }
            _ => {
                let sessions = (0..PROCS).map(|p| shared.session(open(p)));
                assert!(cache_hits(&mut drive(sessions.collect())) > 0, "{mode} never hit");
            }
        }
        out.push(converged(&cluster));
        cluster.shutdown();
    }
    out
}

/// The four sharded cells of one runtime — {1, 2 shards} × {no cache,
/// shared cache} — each returning the shard-count-independent
/// `user_digest` of the namespace it built.
fn sharded_cells<C: ClusterHandle>(boot: impl Fn(usize) -> ShardedCluster<C>) -> Vec<u64> {
    let mut out = Vec::new();
    for shards in [1, 2] {
        for cached in [false, true] {
            let cluster = boot(shards);
            let opts = ClientOptions::at(0).with_consistency(ReadConsistency::SyncThenLocal);
            let open = |_| cluster.client(opts).expect("session");
            out.push(if cached {
                let shared = CacheBuilder::new().shared();
                let mut clients = drive((0..PROCS).map(|p| shared.session(open(p))).collect());
                assert!(cache_hits(&mut clients) > 0, "sharded shared cache never hit");
                clients[0].coord_mut().inner_mut().user_digest().expect("digest")
            } else {
                drive((0..PROCS).map(open).collect())[0].coord_mut().user_digest().expect("digest")
            });
            cluster.shutdown();
        }
    }
    out
}

#[test]
fn dufs_builds_the_same_namespace_over_every_unsharded_stack() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Reference: the in-process single-server coordination service.
    let solo = SharedSolo(Rc::new(RefCell::new(SoloCoord::new())));
    drop(drive((0..PROCS).map(|_| solo.clone()).collect()));
    let reference = {
        let solo = solo.0.borrow();
        let tree = solo.server().tree();
        (tree.digest(), tree.node_count())
    };
    let thread = unsharded_cells(|| ClusterBuilder::new().voters(3).threads());
    let tcp = unsharded_cells(|| ClusterBuilder::new().voters(3).tcp());
    for (runtime, cells) in [("thread", thread), ("tcp", tcp)] {
        for (mode, cell) in ["no cache", "private cache", "shared cache"].iter().zip(cells) {
            assert_eq!(cell, reference, "{runtime} × {mode} diverged from SoloCoord");
        }
    }
}

#[test]
fn dufs_builds_the_same_namespace_over_every_sharded_stack() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let thread = sharded_cells(|n| ClusterBuilder::new().voters(1).shards(n).sharded_threads());
    let tcp = sharded_cells(|n| ClusterBuilder::new().voters(1).shards(n).sharded_tcp());
    for (runtime, cells) in [("thread", thread), ("tcp", tcp)] {
        // [1 shard, 1 shard + cache, 2 shards, 2 shards + cache]
        assert_eq!(cells[0], cells[1], "{runtime}: the cache changed the 1-shard namespace");
        assert_eq!(cells[2], cells[0], "{runtime}: 2 shards diverged from 1 shard");
        assert_eq!(cells[3], cells[0], "{runtime}: 2 shards + shared cache diverged");
    }
}
