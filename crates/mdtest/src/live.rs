//! Live-cluster mdtest: drive the workload of [`crate::workload`] against a
//! *real* coordination ensemble (in-process [`ThreadCluster`] or
//! socket-backed [`TcpCluster`]) instead of the simulated testbed.
//!
//! The op streams are generated by the same [`WorkloadSpec`] as the
//! simulation, so a live run on the channel runtime and a live run on the
//! TCP runtime perform *byte-identical* operation sequences — which is what
//! makes the cross-runtime namespace-digest parity check in `scripts/ci.sh`
//! meaningful. Each mdtest "process" is a client thread with its own
//! session; phases are separated by joining all threads (mdtest's
//! `MPI_Barrier`), and every mutation phase ends with a `sync()` so replica
//! digests can be compared immediately after.
//!
//! All mutations are idempotent at the content level (`NodeExists` /
//! `NoNode` count as success) so the at-least-once retry inside
//! [`dufs_coord::ZkClient::request`] cannot diverge the final tree.
//!
//! [`ThreadCluster`]: dufs_coord::runtime::ThreadCluster
//! [`TcpCluster`]: dufs_coord::tcp::TcpCluster

use std::time::Instant;

use bytes::Bytes;

use dufs_cache::CacheStats;
use dufs_coord::{CoordService, ZkRequest, ZkResponse};
use dufs_zkstore::{CreateMode, Stat, ZkError};

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

/// `Ok` unless `resp` is an error other than `tolerated`. The mdtest
/// mutations are *idempotent at the content level* (`NodeExists` on create
/// and `NoNode` on delete count as success), so the at-least-once retry
/// inside the transports cannot diverge the final tree.
fn settled(resp: ZkResponse, tolerated: ZkError) -> Result<(), ZkError> {
    match resp.err() {
        Some(e) if e != tolerated => Err(e),
        _ => Ok(()),
    }
}

/// Create a node (mkdir and creat); `NodeExists` counts as success.
fn create_node<S: CoordService>(c: &mut S, path: &str, data: Bytes) -> Result<(), ZkError> {
    let mode = CreateMode::Persistent;
    settled(c.request(ZkRequest::Create { path: path.into(), data, mode }), ZkError::NodeExists)
}

/// Stat a node (`None` = not found).
fn stat_node<S: CoordService>(c: &mut S, path: &str) -> Result<Option<Stat>, ZkError> {
    match c.request(ZkRequest::Exists { path: path.into(), watch: false }) {
        ZkResponse::ExistsResult(stat) => Ok(stat),
        r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
    }
}

/// Execute one native op against a session. With `strict_stats`, a stat
/// must actually find its node — valid whenever the session's consistency
/// level gives read-your-writes (each process stats only paths it created
/// itself in an earlier, synced phase).
pub(crate) fn exec<S: CoordService>(c: &mut S, op: &NativeOp, strict_stats: bool) {
    match op {
        NativeOp::Mkdir(p) => {
            create_node(c, p, Bytes::new()).unwrap_or_else(|e| panic!("mkdir {p}: {e:?}"))
        }
        NativeOp::Create(p) => {
            // Deterministic, path-derived content so the digest check is
            // sensitive to data bytes, not just to the path set.
            let data = Bytes::from(p.clone().into_bytes());
            create_node(c, p, data).unwrap_or_else(|e| panic!("creat {p}: {e:?}"))
        }
        NativeOp::Rmdir(p) | NativeOp::Unlink(p) => {
            let resp = c.request(ZkRequest::Delete { path: p.clone(), version: None });
            settled(resp, ZkError::NoNode).unwrap_or_else(|e| panic!("rm {p}: {e:?}"))
        }
        NativeOp::StatDir(p) | NativeOp::StatFile(p) => {
            let stat = stat_node(c, p).unwrap_or_else(|e| panic!("stat {p}: {e:?}"));
            if strict_stats {
                assert!(stat.is_some(), "stat {p} found nothing despite read-your-writes");
            }
        }
    }
}

/// Unmeasured setup, exactly like mdtest: the shared root and process
/// `p`'s private subtree root must pre-exist.
pub(crate) fn setup<S: CoordService>(spec: &WorkloadSpec, p: usize, c: &mut S) {
    for path in spec.setup_paths(p) {
        create_node(c, &path, Bytes::new()).unwrap_or_else(|e| panic!("setup {path}: {e:?}"));
    }
}

/// End-of-mutation-phase barrier, so replica digests can be compared right
/// after the phase joins.
pub(crate) fn phase_sync<S: CoordService>(c: &mut S) {
    let resp = c.request(ZkRequest::Sync { coalesce: false });
    assert!(resp.err().is_none(), "phase sync: {resp:?}");
}

/// The phase loop: for each phase, one thread per process runs that
/// process's op stream through `exec` (then `settle` after a mutation
/// phase); the scope joins them all (mdtest's `MPI_Barrier`, propagating
/// any panic) before `after_phase` fires on the coordinating thread.
pub(crate) fn run_phases<P: Send>(
    spec: &WorkloadSpec,
    procs: &mut [P],
    exec: impl Fn(&mut P, &NativeOp) + Sync,
    settle: impl Fn(&mut P) + Sync,
    mut after_phase: impl FnMut(Phase),
) -> Vec<LivePhase> {
    let mut out = Vec::with_capacity(spec.phases.len());
    for &phase in &spec.phases {
        let t0 = Instant::now();
        let mut total_ops = 0u64;
        std::thread::scope(|scope| {
            for (p, st) in procs.iter_mut().enumerate() {
                let ops = spec.ops_for(p, phase);
                total_ops += ops.len() as u64;
                let (exec, settle) = (&exec, &settle);
                scope.spawn(move || {
                    for op in &ops {
                        exec(st, op);
                    }
                    if phase.is_mutation() {
                        settle(st);
                    }
                });
            }
        });
        let wall_us = t0.elapsed().as_micros().max(1) as u64;
        out.push(LivePhase {
            phase,
            ops: total_ops,
            wall_us,
            ops_per_sec: total_ops as f64 / (wall_us as f64 / 1e6),
        });
        after_phase(phase);
    }
    out
}

/// Run the spec's phases against a live ensemble.
///
/// `client_for(proc)` must hand out an *established* session for mdtest
/// process `proc`; sessions live for the whole run (one per thread). Any
/// [`CoordService`] works — a plain `ZkClient` on either transport, a
/// `ShardedClient`, or either behind `dufs_cache::Cached` (private, or
/// attached to one process-wide `SharedCache`) — and every shape is driven
/// with the same raw znode requests (`Create` / `Delete` / `Exists`, and a
/// `Sync` after every mutation phase). `after_phase(phase)` fires on the
/// coordinating thread after every phase has fully joined and synced — the
/// hook the caller uses to snapshot a converged namespace digest at a
/// chosen point.
///
/// Returns the per-phase wall-clock results and the clients (so the caller
/// can read transport or cache statistics off them afterwards).
///
/// `strict_stats` makes the stat phases assert that every stat *finds* its
/// node. Only enable it when `client_for` hands out sessions with
/// read-your-writes or stronger reads ([`dufs_coord::ReadConsistency`]) —
/// with plain local reads on a lagging follower, an empty stat is a
/// legitimate outcome, not a bug.
pub fn run_live<S, F, G>(
    spec: &WorkloadSpec,
    client_for: F,
    after_phase: G,
    strict_stats: bool,
) -> (Vec<LivePhase>, Vec<S>)
where
    S: CoordService + Send,
    F: Fn(usize) -> S,
    G: FnMut(Phase),
{
    let mut clients: Vec<S> = (0..spec.processes).map(&client_for).collect();
    for (p, c) in clients.iter_mut().enumerate() {
        setup(spec, p, c);
    }
    let exec = |c: &mut S, op: &NativeOp| exec(c, op, strict_stats);
    let phases = run_phases(spec, &mut clients, exec, phase_sync, after_phase);
    (phases, clients)
}

/// Sum per-session [`CacheStats`] into one line's worth of counters.
pub fn aggregate_cache_stats<'a>(stats: impl IntoIterator<Item = &'a CacheStats>) -> CacheStats {
    let mut total = CacheStats::default();
    for s in stats {
        total.absorb(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_cache::CacheBuilder;
    use dufs_coord::{ClientOptions, ClusterBuilder, ReadConsistency};
    use std::time::Duration;

    /// Each test here boots at least one real ensemble with wall-clock
    /// election timers; run them one at a time.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            files_per_proc: 10,
            // Create/stat only: leaves the namespace populated so the
            // digest below is non-trivial.
            phases: vec![Phase::DirCreate, Phase::DirStat, Phase::FileCreate, Phase::FileStat],
            ..WorkloadSpec::mdtest(3, 8)
        }
    }

    fn converged_digest(
        status: impl Fn(usize) -> dufs_coord::runtime::ServerStatus,
        n: usize,
    ) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let s: Vec<_> = (0..n).map(&status).collect();
            if s.iter().all(|x| x.digest == s[0].digest && x.last_applied == s[0].last_applied) {
                return s[0].digest;
            }
            assert!(Instant::now() < deadline, "no convergence: {s:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn live_runs_agree_across_runtimes() {
        let _g = serial();
        let spec = small_spec();

        let tc = ClusterBuilder::new().voters(3).threads();
        let leader = tc.await_leader(Duration::from_secs(20)).expect("leader");
        let (phases, _) =
            run_live(&spec, |_| tc.client(ClientOptions::at(leader)).unwrap(), |_| {}, true);
        assert_eq!(phases.len(), spec.phases.len());
        assert!(phases.iter().all(|p| p.ops > 0 && p.ops_per_sec > 0.0));
        let d_thread = converged_digest(|i| tc.status(i), 3);
        tc.shutdown();

        // TCP run: sessions spread across ALL members (follower reads),
        // upgraded to read-your-writes so the strict stat check is sound.
        let cluster = ClusterBuilder::new().voters(3).tcp();
        cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let (_, clients) = run_live(
            &spec,
            |p| {
                cluster
                    .client(
                        ClientOptions::at(p % 3)
                            .with_failover()
                            .with_consistency(ReadConsistency::SyncThenLocal),
                    )
                    .unwrap()
            },
            |_| {},
            true,
        );
        let d_tcp = converged_digest(|i| cluster.status(i), 3);

        assert_eq!(d_thread, d_tcp, "live mdtest digests diverged across runtimes");
        // The TCP run moved real bytes.
        let mut agg = clients[0].transport().stats();
        for c in &clients[1..] {
            agg.absorb(&c.transport().stats());
        }
        assert!(agg.frames_sent > 0 && agg.bytes_recv > 0, "no socket traffic: {agg:?}");
        cluster.shutdown();
    }

    #[test]
    fn cached_live_digest_matches_uncached() {
        // The cache must be invisible in the final namespace: identical op
        // streams with and without the wrapper converge to one digest (the
        // in-crate version of the ci.sh cache parity gate), while the
        // wrapper's counters prove the cache actually did something.
        let _g = serial();
        let spec = small_spec();

        let tc = ClusterBuilder::new().voters(3).threads();
        let leader = tc.await_leader(Duration::from_secs(20)).expect("leader");
        let (_, _) = run_live(
            &spec,
            |_| {
                tc.client(
                    ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal),
                )
                .unwrap()
            },
            |_| {},
            true,
        );
        let d_plain = converged_digest(|i| tc.status(i), 3);
        tc.shutdown();

        let tc = ClusterBuilder::new().voters(3).threads();
        tc.await_leader(Duration::from_secs(20)).expect("leader");
        let builder = CacheBuilder::new();
        let (phases, clients) = run_live(
            &spec,
            |p| {
                builder.session(
                    tc.client(
                        ClientOptions::at(p % 3)
                            .with_failover()
                            .with_consistency(ReadConsistency::SyncThenLocal),
                    )
                    .unwrap(),
                )
            },
            |_| {},
            true,
        );
        assert_eq!(phases.len(), spec.phases.len());
        let d_cached = converged_digest(|i| tc.status(i), 3);
        let stats: Vec<CacheStats> = clients.iter().map(|c| c.stats()).collect();
        let agg = aggregate_cache_stats(&stats);
        tc.shutdown();

        assert_eq!(d_plain, d_cached, "cache-on/cache-off namespaces diverged");
        // mdtest stats each path once, so this workload exercises the miss
        // and lease paths (each phase-synced session licenses its local
        // stats with one renewed grant), not warm hits — those are
        // bench_reads territory.
        assert!(agg.misses > 0, "stat phases never touched the cache: {agg:?}");
        assert!(agg.lease_renewals > 0, "no session ever adopted a grant: {agg:?}");
    }

    #[test]
    fn sharded_live_digest_matches_single_shard() {
        // The same workload through 1-shard and 2-shard namespaces must
        // produce the same logical content — the parity gate `scripts/
        // ci.sh` runs via `mdtest_sim --live`. Read-your-writes per shard
        // makes the strict stat check sound.
        let _g = serial();
        let spec = small_spec();
        let mut digests = Vec::new();
        for shards in [1usize, 2] {
            let cluster = ClusterBuilder::new().voters(1).shards(shards).sharded_threads();
            let (phases, mut clients) = run_live(
                &spec,
                |_| {
                    cluster
                        .client(
                            ClientOptions::at(0)
                                .with_failover()
                                .with_consistency(ReadConsistency::SyncThenLocal),
                        )
                        .unwrap()
                },
                |_| {},
                true,
            );
            assert_eq!(phases.len(), spec.phases.len());
            assert!(phases.iter().all(|p| p.ops > 0 && p.ops_per_sec > 0.0));
            digests.push(clients[0].user_digest().unwrap());
            cluster.shutdown();
        }
        assert_eq!(digests[0], digests[1], "sharded live namespace diverged");
    }
}
