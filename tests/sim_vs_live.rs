//! The design's core promise, verified: the *same* operation planner drives
//! both the synchronous library and the discrete-event simulator, so an
//! identical workload must produce a **bit-identical coordination-service
//! namespace** in both worlds (content digest over paths, payloads — which
//! embed FIDs — and versions).
//!
//! The live side is the **`Dufs` stack matrix**, the one table of session
//! shapes the client stack offers: every cell runs the mdtest op streams
//! through `dufs_mdtest::run_live` — one `Dufs` client and one thread per
//! process — and must land on the simulated run's digest when the last
//! phase has joined. A serial tail (a rename and some unlinks per process)
//! then checks the cells against each other.

use std::sync::{mpsc, Mutex};
use std::time::Duration;

use dufs_cache::{CacheBuilder, CacheStats, Cached};
use dufs_repro::coord::{
    ClientOptions, ClusterBuilder, ClusterHandle, ReadConsistency, ShardedClient, ShardedCluster,
    ZkClient, ZkRequest, ZkResponse,
};
use dufs_repro::core::services::{CoordService, LocalBackends, SoloCoord};
use dufs_repro::core::vfs::Dufs;
use dufs_repro::mdtest::data::{expected_data_digest, DataSpec, DataTargets};
use dufs_repro::mdtest::live::{aggregate_cache_stats, run_live, DataPath};
use dufs_repro::mdtest::scenario::{run_mdtest_report, MdtestConfig, MdtestReport, MdtestSystem};
use dufs_repro::mdtest::workload::{Phase, WorkloadSpec};
use dufs_repro::mdtest::ScratchDir;

const PROCS: usize = 3;
const BACKENDS: usize = 2;
/// Members of an unsharded cell's ensemble (a sharded cell's shards have one).
const ZK: usize = 3;
const DATA: DataSpec = DataSpec { bytes: 300, stripe: 128, zipf: Some(0.9) };

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        // Stop after the file phases so a non-trivial namespace remains
        // (files present, trees present) for the comparison.
        phases: vec![Phase::DirCreate, Phase::DirStat, Phase::FileCreate, Phase::FileStat],
        ..WorkloadSpec::mdtest(PROCS, 9)
    }
}

/// The simulated run every cell over `shards` ensembles of `zk_servers`
/// members is compared with.
fn simulated(zk_servers: usize, shards: usize) -> MdtestReport {
    let system = MdtestSystem::DufsLustre { zk_servers, backends: BACKENDS };
    let report =
        run_mdtest_report(&MdtestConfig { shards, ..MdtestConfig::new(system, spec(), 77) });
    assert!(report.phases.iter().all(|p| p.errors == 0));
    report
}

#[test]
fn simulated_runs_are_reproducible_across_invocations() {
    let cfg = MdtestConfig::new(MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 }, spec(), 5);
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

type Clients<S> = Vec<Dufs<S, LocalBackends>>;

/// `(digest, znodes)` of a converged namespace (a sharded cell's logical
/// `user_digest` has no znode count: 0).
type Namespace = (u64, usize);

#[derive(Debug, Clone, Copy)]
enum Cache {
    Off,
    /// A private cache per session.
    Private,
    /// Every session attached to one process-wide cache.
    Shared,
}
use Cache::*;

/// Run the matrix workload through `run_live` over the sessions `open(p)`
/// hands out, with the simulator's client ids for `zk_servers` (hence its
/// FIDs). Every phase must have done work, and a mixed run must have read
/// back exactly the contents the spec describes.
fn drive<S: CoordService + Send>(
    zk_servers: usize,
    open: impl Fn(usize) -> S,
    data: Option<&DataTargets>,
) -> Clients<S> {
    let s = spec();
    let data = data
        .map(|t| DataPath { spec: DATA, store_for: Box::new(move |p| t.client(DATA.stripe, p)) });
    let expect = data.as_ref().map(|_| expected_data_digest(&s, &DATA));
    let run = run_live(&s, zk_servers, BACKENDS, open, data, true);
    assert_eq!(run.phases.len(), s.phases.len());
    assert!(run.phases.iter().all(|p| p.ops > 0 && p.ops_per_sec > 0.0), "{:?}", run.phases);
    assert_eq!(run.data_digest, expect, "read-back contents digest");
    run.clients
}

/// One cell, whatever serves it: `open`'s sessions wrapped per `cache`, the
/// workload driven through them, and the namespace `probe` reads off
/// process 0's bare session held to `populated` — the simulated run's —
/// when the last phase has joined. Then the tail the simulator does not
/// run — per process one same-directory file rename and the removal of
/// every other file, one op at a time from this thread, then a `Sync` —
/// after which the namespace is returned for comparison between cells.
/// `spread` says what the cache counters must show.
fn run_cell<B: CoordService + Send>(
    label: &str,
    (cache, spread): (Cache, bool),
    zk_servers: usize,
    (open, data): (impl Fn(usize) -> B, Option<&DataTargets>),
    probe: impl Fn(&mut B) -> Namespace,
    populated: Namespace,
) -> Namespace {
    fn finish<S: CoordService + Send, B>(
        (label, spread, populated): (&str, bool, Namespace),
        mut clients: Clients<S>,
        bare: fn(&mut S) -> &mut B,
        stats: Option<fn(&S) -> CacheStats>,
        probe: impl Fn(&mut B) -> Namespace,
    ) -> Namespace {
        let found = probe(bare(clients[0].coord_mut()));
        assert_eq!(found, populated, "{label} diverged from the simulated run");
        let s = spec();
        for (p, fs) in clients.iter_mut().enumerate() {
            let files = s.file_paths(p);
            fs.rename(&files[0], &format!("{}.moved", files[0])).unwrap();
            for path in files.iter().skip(1).step_by(2) {
                fs.unlink(path).unwrap();
            }
            let synced = fs.coord_mut().request(ZkRequest::Sync { coalesce: false });
            assert!(synced.err().is_none(), "final sync: {synced:?}");
        }
        if let Some(stats) = stats {
            let all = aggregate_cache_stats(clients.iter_mut().map(|fs| stats(fs.coord_mut())));
            // mdtest stats each path once, so follower sessions exercise the
            // miss and lease paths (each phase-synced session licenses its
            // local stats with one renewed grant); sessions at the leader hit.
            let used = if spread { all.misses > 0 && all.lease_renewals > 0 } else { all.hits > 0 };
            assert!(used, "{label}: the cache did no work: {all}");
        }
        probe(bare(clients[0].coord_mut()))
    }
    let cell = (label, spread, populated);
    let shared = CacheBuilder::new().shared();
    match cache {
        Off => finish(cell, drive(zk_servers, open, data), |s| s, None, probe),
        Private => {
            let open = |p| CacheBuilder::new().session(open(p));
            let clients = drive(zk_servers, open, data);
            finish(cell, clients, Cached::inner_mut, Some(Cached::stats), probe)
        }
        Shared => {
            let clients = drive(zk_servers, |p| shared.session(open(p)), data);
            finish(cell, clients, Cached::inner_mut, Some(Cached::stats), probe)
        }
    }
}

/// A session on one in-process coordination server that every process's
/// client shares, like the simulated ones do. `SoloCoord` is not `Send`, so
/// it lives on a thread of its own (which ends with its last session) and
/// the sessions send it their work.
#[derive(Clone)]
struct SoloSession(mpsc::Sender<SoloJob>);
type SoloJob = Box<dyn FnOnce(&mut SoloCoord) + Send>;

impl SoloSession {
    fn start() -> Self {
        let (tx, rx) = mpsc::channel::<SoloJob>();
        std::thread::spawn(move || {
            let mut solo = SoloCoord::new();
            for job in rx {
                job(&mut solo);
            }
        });
        SoloSession(tx)
    }

    fn with<T: Send + 'static>(&self, f: impl FnOnce(&mut SoloCoord) -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let job = move |solo: &mut SoloCoord| drop(tx.send(f(solo)));
        self.0.send(Box::new(job)).expect("solo thread is up");
        rx.recv().expect("solo thread answers")
    }
}

impl CoordService for SoloSession {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        self.with(move |solo| solo.request(req))
    }
}

/// The `SoloCoord` cell, with the unsharded cells' client ids: held to the
/// simulated namespace, it returns the namespace after the tail — the
/// reference the cluster cells' tails are held to.
fn solo_cell(populated: Namespace) -> Namespace {
    let solo = SoloSession::start();
    let probe = |solo: &mut SoloSession| {
        solo.with(|solo| {
            let tree = solo.server().tree();
            (tree.digest(), tree.node_count())
        })
    };
    run_cell("SoloCoord", (Off, false), ZK, (|_| solo.clone(), None), probe, populated)
}

fn simulated_namespace() -> Namespace {
    let report = simulated(ZK, 1);
    (report.namespace_digest, report.namespace_nodes)
}

#[test]
fn simulated_and_live_runs_produce_identical_namespaces() {
    // Identical namespace contents: paths, FIDs, modes, versions.
    solo_cell(simulated_namespace());
}

/// Cluster cells use real-time election timers; run them one at a time.
static GATE: Mutex<()> = Mutex::new(());

/// One unsharded cell: a fresh `ZK`-voter ensemble on the thread or the TCP
/// runtime, `SyncThenLocal` sessions (so the cached cells run the lease
/// protocol) all at the leader or spread — process `p` at member `p % ZK`,
/// follower reads.
#[derive(Debug)]
struct Cell {
    tcp: bool,
    spread: bool,
    cache: Cache,
    /// A write-ahead log under every member.
    durable: bool,
    /// A mixed run: in-memory data targets beside the thread runtime, store
    /// servers over file-backed targets beside TCP.
    data: bool,
}

const fn cell(tcp: bool, spread: bool, cache: Cache) -> Cell {
    Cell { tcp, spread, cache, durable: false, data: false }
}

const THREAD: bool = false;
const TCP: bool = true;
const LEADER: bool = false;
const SPREAD: bool = true;

const UNSHARDED: [Cell; 15] = [
    cell(THREAD, LEADER, Off),
    cell(THREAD, LEADER, Private),
    cell(THREAD, LEADER, Shared),
    cell(THREAD, SPREAD, Off),
    cell(THREAD, SPREAD, Private),
    cell(THREAD, SPREAD, Shared),
    cell(TCP, LEADER, Off),
    cell(TCP, LEADER, Private),
    cell(TCP, LEADER, Shared),
    cell(TCP, SPREAD, Off),
    cell(TCP, SPREAD, Private),
    cell(TCP, SPREAD, Shared),
    Cell { durable: true, ..cell(TCP, LEADER, Off) },
    Cell { data: true, ..cell(THREAD, LEADER, Off) },
    Cell { data: true, ..cell(TCP, SPREAD, Off) },
];

/// Boot `cell`'s ensemble on the runtime `boot` starts and run it against
/// `[simulated, SoloCoord after the tail]`. `over_sockets` says whether a
/// session's transport moved real bytes (vacuously true on channels).
fn unsharded_cell<C: ClusterHandle>(
    cell: &Cell,
    [populated, after_tail]: [Namespace; 2],
    boot: impl Fn(ClusterBuilder) -> C,
    over_sockets: impl Fn(&ZkClient<C::Transport>) -> bool,
) where
    C::Transport: Send,
{
    let label = format!("{cell:?}");
    let wal = cell.durable.then(|| ScratchDir::new("matrix-wal"));
    let builder = ClusterBuilder::new().voters(ZK);
    let cluster = boot(match &wal {
        Some(dir) => builder.durable(dir.path()),
        None => builder,
    });
    let leader = cluster.await_leader(Duration::from_secs(30)).expect("leader");
    let open = |p: usize| {
        let opts = ClientOptions::at(if cell.spread { p % ZK } else { leader }).with_failover();
        cluster.client(opts.with_consistency(ReadConsistency::SyncThenLocal)).expect("session")
    };
    let targets = cell.data.then(|| DataTargets::start(cell.tcp, BACKENDS));
    let probe = |session: &mut ZkClient<C::Transport>| {
        assert!(over_sockets(session), "{label}: the session moved no bytes");
        let s = cluster.converged(Duration::from_secs(30));
        let s = s.unwrap_or_else(|| panic!("{label}: replicas never converged"));
        (s.digest, s.node_count)
    };
    let shape = (cell.cache, cell.spread);
    let found = run_cell(&label, shape, ZK, (open, targets.as_ref()), probe, populated);
    assert_eq!(found, after_tail, "{label} diverged from SoloCoord after the tail");
    cluster.shutdown();
}

#[test]
fn dufs_builds_the_same_namespace_over_every_unsharded_stack() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let populated = simulated_namespace();
    let reference = [populated, solo_cell(populated)];
    for cell in &UNSHARDED {
        if cell.tcp {
            unsharded_cell(cell, reference, ClusterBuilder::tcp, |session| {
                let net = session.transport().stats();
                net.frames_sent > 0 && net.bytes_recv > 0
            })
        } else {
            unsharded_cell(cell, reference, ClusterBuilder::threads, |_| true)
        }
    }
}

/// One sharded cell — `shards` single-voter ensembles behind the hash ring,
/// sessions bare or on one shared cache — held to the simulated logical
/// digest. Returns the shard-count-independent `user_digest` after the tail.
fn sharded_cell<C: ClusterHandle>(
    boot: impl Fn(ClusterBuilder) -> C,
    shards: usize,
    cache: Cache,
    logical_digest: u64,
) -> u64
where
    C::Transport: Send,
{
    let label = format!("{shards} shards, cache {cache:?}");
    let members = (0..shards).map(|_| boot(ClusterBuilder::new().voters(1))).collect();
    let cluster = ShardedCluster::from_shards(members).expect("bootstrap shard config");
    let opts = ClientOptions::at(0).with_consistency(ReadConsistency::SyncThenLocal);
    let open = |_| cluster.client(opts).expect("session");
    let probe = |s: &mut ShardedClient<C::Transport>| (s.user_digest().expect("digest"), 0);
    let found = run_cell(&label, (cache, false), 1, (open, None), probe, (logical_digest, 0));
    cluster.shutdown();
    found.0
}

#[test]
fn dufs_builds_the_same_namespace_over_every_sharded_stack() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let logical = simulated(1, 1).logical_digest;
    assert_eq!(simulated(1, 2).logical_digest, logical, "simulated: 2 shards diverged from 1");
    let mut tails = Vec::new();
    for shards in [1, 2] {
        for cache in [Off, Shared] {
            tails.push(sharded_cell(ClusterBuilder::threads, shards, cache, logical));
            tails.push(sharded_cell(ClusterBuilder::tcp, shards, cache, logical));
        }
    }
    assert!(tails.iter().all(|&d| d == tails[0]), "sharded cells diverged in the tail: {tails:x?}");
}
