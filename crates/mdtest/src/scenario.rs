//! Testbed assembly and high-level experiment entry points.
//!
//! Reconstructs the paper's §V deployment in the simulator:
//! 8 client nodes (8 cores each) running the mdtest processes, with
//! coordination servers co-located on the first `z` client nodes (the paper
//! ran "ZooKeeper server … along with the DUFS clients"), dedicated
//! back-end metadata servers, and 1 GigE in between.

use std::collections::BTreeSet;

use bytes::Bytes;
use rand::rngs::StdRng;

use dufs_backendfs::ParallelFs;
use dufs_coord::shard::{is_internal_path, parent_dir, DEFAULT_VNODES};
use dufs_coord::HashRing;
use dufs_simnet::{GigEModel, LatencyModel, NodeId, Sim, SimDuration, SimTime};
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};
use dufs_zkstore::DataTree;

pub use crate::clients::RawOp;
use crate::clients::{DufsClientProc, NativeClientProc, NodeCpu, RawZkClientProc};
use crate::controller::ControllerProc;
use crate::costs;
use crate::msg::{wire_size, ClusterMsg};
use crate::servers::{BackendProc, CoordServerProc};
use crate::workload::{Phase, WorkloadSpec};

/// The system under test for an mdtest run (the four lines of Fig 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdtestSystem {
    /// mdtest directly against one Lustre-profile filesystem.
    BasicLustre,
    /// mdtest directly against one PVFS2-profile filesystem.
    BasicPvfs2,
    /// mdtest through DUFS over `backends` Lustre-profile mounts with a
    /// `zk_servers`-member coordination ensemble.
    DufsLustre {
        /// Coordination ensemble size (paper: 1/4/8).
        zk_servers: usize,
        /// Number of merged back-end mounts (paper: 2 or 4).
        backends: usize,
    },
    /// As above with PVFS2-profile mounts.
    DufsPvfs2 {
        /// Coordination ensemble size.
        zk_servers: usize,
        /// Number of merged mounts.
        backends: usize,
    },
}

impl MdtestSystem {
    /// Label used in tables (matches the paper's legends).
    pub fn label(self) -> String {
        match self {
            MdtestSystem::BasicLustre => "Basic Lustre".into(),
            MdtestSystem::BasicPvfs2 => "Basic PVFS".into(),
            MdtestSystem::DufsLustre { zk_servers, backends } => {
                format!("DUFS {backends}xLustre ({zk_servers} ZK)")
            }
            MdtestSystem::DufsPvfs2 { zk_servers, backends } => {
                format!("DUFS {backends}xPVFS ({zk_servers} ZK)")
            }
        }
    }
}

/// Configuration for one mdtest run.
#[derive(Debug, Clone)]
pub struct MdtestConfig {
    /// The system under test.
    pub system: MdtestSystem,
    /// The workload.
    pub spec: WorkloadSpec,
    /// Simulation seed (runs are deterministic per seed).
    pub seed: u64,
    /// Fault injection: crash coordination server `index` at the given
    /// virtual time, restarting it `down_ms` later (paper §IV-I: the
    /// service rides out server failures as long as a quorum survives).
    pub crash_coord: Option<CoordCrash>,
    /// ZAB group-commit tuning for the coordination ensemble. The default
    /// (`max_batch == 1`) is the configuration the paper measured.
    pub zab: ZabConfig,
    /// Run every coordination server with a write-ahead log: group fsyncs
    /// gate ACKs (charged as `FSYNC_US` pipeline time) and crashed servers
    /// recover from their log instead of from a live peer. The default
    /// (`false`) is the in-memory configuration every figure measures.
    pub durable: bool,
    /// Fault injection beyond quorum: crash the *entire* coordination
    /// ensemble at once and restart it from disk. Requires `durable`
    /// (without logs there is nothing to come back from) and switches the
    /// DUFS clients to retry-until-applied so the post-recovery namespace
    /// is comparable against an uncrashed control run.
    pub crash_all_coord: Option<CoordOutage>,
    /// Partition the namespace across this many **independent** ZAB
    /// ensembles (consistent-hash routing by parent directory), each of
    /// `zk_servers` members. `1` (the default) is the paper's
    /// single-ensemble deployment and runs the identical simulation it
    /// always did, bit for bit.
    pub shards: usize,
}

/// A scheduled coordination-server crash/restart.
#[derive(Debug, Clone, Copy)]
pub struct CoordCrash {
    /// Which coordination server (0-based).
    pub server: usize,
    /// Virtual time of the crash, milliseconds.
    pub at_ms: u64,
    /// How long it stays down.
    pub down_ms: u64,
}

/// A scheduled whole-ensemble outage: every coordination server crashes at
/// the same instant and restarts (from its write-ahead log) together.
#[derive(Debug, Clone, Copy)]
pub struct CoordOutage {
    /// Virtual time of the simultaneous crash, milliseconds.
    pub at_ms: u64,
    /// How long the whole ensemble stays down.
    pub down_ms: u64,
}

impl MdtestConfig {
    /// A fault-free configuration with the paper's write path (no
    /// batching, no write-ahead log).
    pub fn new(system: MdtestSystem, spec: WorkloadSpec, seed: u64) -> Self {
        MdtestConfig {
            system,
            spec,
            seed,
            crash_coord: None,
            zab: ZabConfig::default(),
            durable: false,
            crash_all_coord: None,
            shards: 1,
        }
    }
}

/// Write-path tuning for a raw coordination run: server-side group commit
/// plus client-side session pipelining. [`RawTuning::default`] reproduces
/// the paper's Fig 7 configuration exactly (batch 1, depth 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawTuning {
    /// Group-commit configuration for every coordination server.
    pub zab: ZabConfig,
    /// Outstanding requests per client session (`zoo_acreate`-style);
    /// 1 is the paper's synchronous closed loop.
    pub depth: usize,
    /// Put every coordination server behind a write-ahead log (group
    /// fsync before ACK, `FSYNC_US` per flush). `false` reproduces the
    /// paper's in-memory write path bit for bit.
    pub durable: bool,
}

impl Default for RawTuning {
    fn default() -> Self {
        RawTuning { zab: ZabConfig::default(), depth: 1, durable: false }
    }
}

/// Result of one measured phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Which phase.
    pub phase: Phase,
    /// Total operations.
    pub ops: u64,
    /// Failed operations.
    pub errors: u64,
    /// Aggregate throughput (the y-axis of Figs 8–10).
    pub ops_per_sec: f64,
    /// Mean per-operation latency, microseconds.
    pub mean_latency_us: f64,
    /// Approximate 99th-percentile latency, microseconds.
    pub p99_latency_us: f64,
}

/// Latency model with a physical-node map: messages between co-located sim
/// nodes (e.g. a client process and its node-local coordination server) use
/// loopback cost instead of the network.
struct TestbedLatency {
    phys: Vec<u32>,
    net: GigEModel,
}

impl LatencyModel for TestbedLatency {
    fn sample(&self, rng: &mut StdRng, src: NodeId, dst: NodeId, size_bytes: usize) -> SimDuration {
        let ps = self.phys.get(src.index()).copied().unwrap_or(u32::MAX);
        let pd = self.phys.get(dst.index()).copied().unwrap_or(u32::MAX - 1);
        if ps == pd {
            self.net.loopback
        } else {
            self.net.sample(rng, src, dst, size_bytes)
        }
    }
}

/// Drive the sim until the controller reports completion (or `cap` virtual
/// time elapses — a failed run hits the cap instead of hanging).
fn run_to_completion(sim: &mut Sim<ClusterMsg>, ctrl: NodeId, cap: SimTime) -> bool {
    loop {
        let target = (sim.now() + SimDuration::from_millis(500)).min(cap);
        sim.run_until(target);
        if sim.node_ref::<ControllerProc>(ctrl).finished {
            return true;
        }
        if sim.now() >= cap {
            return false;
        }
    }
}

/// Detailed result of a raw run (throughput + latency distribution).
#[derive(Debug, Clone)]
pub struct RawRunResult {
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// Mean per-operation latency, microseconds.
    pub mean_latency_us: f64,
    /// Approximate 99th-percentile latency, microseconds.
    pub p99_latency_us: f64,
}

/// Run a raw coordination-throughput experiment (paper Fig 7): `processes`
/// closed-loop clients over 8 client nodes issuing `op` against an ensemble
/// of `voters` servers plus `observers` non-voting ones (ZooKeeper
/// observers: they serve reads and forward writes but never join quorums,
/// so reads scale without the write-path fan-out penalty); every client
/// performs `items` measured operations. `tuning` is the write path (group
/// commit × pipeline depth × WAL); [`RawTuning::default`] is the paper's.
pub fn run_zk_raw(
    voters: usize,
    observers: usize,
    processes: usize,
    op: RawOp,
    items: usize,
    seed: u64,
    tuning: RawTuning,
) -> RawRunResult {
    let zk_servers = voters + observers;
    assert!(voters >= 1 && processes >= 1);
    // Physical placement: coordination server i on client node i (§V-A:
    // ZooKeeper servers run along with the clients).
    let n_nodes = zk_servers + 1 + processes; // servers, controller, clients
    let mut phys = Vec::with_capacity(n_nodes);
    for i in 0..zk_servers {
        phys.push((i % costs::CLIENT_NODES) as u32);
    }
    phys.push(1000); // controller: off to the side
    for p in 0..processes {
        phys.push((p % costs::CLIENT_NODES) as u32);
    }

    let mut sim: Sim<ClusterMsg> = Sim::new(seed, TestbedLatency { phys, net: GigEModel::gige() });
    sim.set_message_sizer(wire_size);

    let ensemble = EnsembleConfig::with_observers(voters, observers);
    let peer_nodes: Vec<NodeId> = (0..zk_servers as u32).map(NodeId).collect();
    for i in 0..zk_servers {
        let (peer, ens, nodes) = (PeerId(i as u32), ensemble.clone(), peer_nodes.clone());
        sim.add_node(CoordServerProc::new(peer, ens, nodes, tuning.zab, tuning.durable));
    }
    let ctrl = NodeId(zk_servers as u32);
    let client_ids: Vec<NodeId> =
        (0..processes).map(|p| NodeId((zk_servers + 1 + p) as u32)).collect();
    sim.add_node(ControllerProc::new(client_ids.clone(), 1));

    let cpus: Vec<NodeCpu> =
        (0..costs::CLIENT_NODES).map(|_| NodeCpu::new(costs::NODE_CORES)).collect();
    for (p, &node) in client_ids.iter().enumerate() {
        let server = NodeId((p % zk_servers) as u32);
        let added = sim.add_node(
            RawZkClientProc::new(
                node.0 as u64,
                server,
                ctrl,
                cpus[p % costs::CLIENT_NODES].clone(),
                op,
                items,
            )
            .with_depth(tuning.depth),
        );
        assert_eq!(added, node);
    }

    let ok = run_to_completion(&mut sim, ctrl, SimTime::from_secs(3_000));
    assert!(ok, "raw run did not complete (zk={zk_servers}, procs={processes}, op={op:?})");
    let c = sim.node_ref::<ControllerProc>(ctrl);
    let t = &c.results[0];
    RawRunResult {
        ops_per_sec: t.ops_per_sec(),
        mean_latency_us: t.latency.mean().as_micros_f64(),
        p99_latency_us: t.latency.quantile(0.99).as_micros_f64(),
    }
}

/// Run an mdtest experiment and return one [`PhaseResult`] per configured
/// phase.
pub fn run_mdtest(cfg: &MdtestConfig) -> Vec<PhaseResult> {
    run_mdtest_report(cfg).phases
}

/// Full report of an mdtest run: per-phase throughput plus the final
/// coordination-service namespace (digest over all replicas — asserted
/// identical — and znode count). Lets tests compare the simulated system
/// against a live replay of the same workload.
#[derive(Debug, Clone)]
pub struct MdtestReport {
    /// Per-phase results.
    pub phases: Vec<PhaseResult>,
    /// Content digest of the final replicated namespace (0 for the native
    /// baselines, which have no coordination service). For sharded runs
    /// this is the logical-namespace digest (see [`MdtestReport::logical_digest`]).
    pub namespace_digest: u64,
    /// Number of znodes in the final namespace (logical count for sharded
    /// runs).
    pub namespace_nodes: usize,
    /// Shard-count-independent digest of the *logical* user namespace:
    /// owner-verified paths closed over ancestors, coordination internals
    /// excluded. Equal values across different `shards` settings certify
    /// the runs built the same namespace. 0 for the native baselines.
    pub logical_digest: u64,
}

/// The client id mdtest process `proc` mints FIDs under: its simulation
/// node id in the single-shard layout (coordination servers, back-ends and
/// the controller come first). [`crate::live::run_live`] numbers its
/// clients the same way, so both worlds write byte-identical file metadata.
pub fn client_id(zk_servers: usize, backends: usize, proc: usize) -> u64 {
    (zk_servers + backends + 1 + proc) as u64
}

/// As [`run_mdtest`], returning the post-run namespace as well.
pub fn run_mdtest_report(cfg: &MdtestConfig) -> MdtestReport {
    let spec = &cfg.spec;
    let (zk_servers, n_backends, pvfs, dufs) = match cfg.system {
        MdtestSystem::BasicLustre => (0, 1, false, false),
        MdtestSystem::BasicPvfs2 => (0, 1, true, false),
        MdtestSystem::DufsLustre { zk_servers, backends } => (zk_servers, backends, false, true),
        MdtestSystem::DufsPvfs2 { zk_servers, backends } => (zk_servers, backends, true, true),
    };
    assert!(!dufs || zk_servers >= 1, "DUFS needs a coordination ensemble");
    let shards = cfg.shards;
    assert!(shards >= 1, "at least one shard");
    assert!(shards == 1 || dufs, "sharding needs a coordination ensemble");
    // Total coordination servers: `shards` independent ensembles of
    // `zk_servers` members each, at node ids `shard * zk_servers + member`.
    let n_coord = zk_servers * shards;

    let n_nodes = n_coord + n_backends + 1 + spec.processes;
    let mut phys = Vec::with_capacity(n_nodes);
    for i in 0..n_coord {
        // Member m of every shard is co-located with client node m (the
        // paper's "ZooKeeper servers run along with the DUFS clients").
        phys.push(((i % zk_servers) % costs::CLIENT_NODES) as u32);
    }
    for j in 0..n_backends {
        phys.push(100 + j as u32); // dedicated server nodes
    }
    phys.push(1000); // controller
    for p in 0..spec.processes {
        phys.push((p % costs::CLIENT_NODES) as u32);
    }

    let mut sim: Sim<ClusterMsg> =
        Sim::new(cfg.seed, TestbedLatency { phys, net: GigEModel::gige() });
    sim.set_message_sizer(wire_size);

    // Coordination servers first: one independent ensemble per shard.
    let ensemble = EnsembleConfig::of_size(zk_servers.max(1));
    for s in 0..shards {
        let peer_nodes: Vec<NodeId> =
            (0..zk_servers).map(|i| NodeId((s * zk_servers + i) as u32)).collect();
        for i in 0..zk_servers {
            let (peer, ens, nodes) = (PeerId(i as u32), ensemble.clone(), peer_nodes.clone());
            sim.add_node(CoordServerProc::new(peer, ens, nodes, cfg.zab, cfg.durable));
        }
    }
    // Back-end mounts.
    let backend_nodes: Vec<NodeId> = (0..n_backends)
        .map(|j| {
            let fs = if pvfs { ParallelFs::pvfs2() } else { ParallelFs::lustre() };
            let id = sim.add_node(BackendProc::new(fs));
            debug_assert_eq!(id, NodeId((n_coord + j) as u32));
            id
        })
        .collect();
    // Controller.
    let ctrl = NodeId((n_coord + n_backends) as u32);
    let client_ids: Vec<NodeId> =
        (0..spec.processes).map(|p| NodeId((n_coord + n_backends + 1 + p) as u32)).collect();
    sim.add_node(ControllerProc::new(client_ids.clone(), spec.phases.len()));

    // Client processes.
    let cpus: Vec<NodeCpu> =
        (0..costs::CLIENT_NODES).map(|_| NodeCpu::new(costs::NODE_CORES)).collect();
    for (p, &node) in client_ids.iter().enumerate() {
        let cpu = cpus[p % costs::CLIENT_NODES].clone();
        if dufs {
            let server = NodeId((p % zk_servers) as u32);
            let mut client = DufsClientProc::new(
                node.0 as u64,
                p,
                server,
                backend_nodes.clone(),
                ctrl,
                cpu,
                spec.clone(),
            )
            .with_retry(cfg.crash_all_coord.is_some());
            if shards > 1 {
                // One session per shard, each pinned to the same member
                // index the unsharded client would use. FIDs are minted
                // under the node id this client would have in the
                // single-shard layout, so the shard sweep builds
                // byte-identical file metadata.
                let servers: Vec<NodeId> =
                    (0..shards).map(|s| NodeId((s * zk_servers + p % zk_servers) as u32)).collect();
                client = client
                    .with_shards(HashRing::new(shards as u32, DEFAULT_VNODES), servers)
                    .with_fid_client(client_id(zk_servers, n_backends, p));
            }
            let added = sim.add_node(client);
            assert_eq!(added, node);
        } else {
            let added = sim.add_node(NativeClientProc::new(
                node.0 as u64,
                p,
                backend_nodes[0],
                ctrl,
                cpu,
                spec.clone(),
            ));
            assert_eq!(added, node);
        }
    }

    if let Some(crash) = cfg.crash_coord {
        assert!(dufs && crash.server < n_coord, "crash target must be a coord server");
        let node = NodeId(crash.server as u32);
        sim.schedule_crash(node, SimTime::from_millis(crash.at_ms));
        sim.schedule_restart(node, SimTime::from_millis(crash.at_ms + crash.down_ms));
    }
    if let Some(outage) = cfg.crash_all_coord {
        assert!(dufs, "a whole-ensemble outage needs a coordination ensemble");
        assert!(cfg.durable, "nothing survives a whole-ensemble crash without write-ahead logs");
        for i in 0..n_coord {
            let node = NodeId(i as u32);
            sim.schedule_crash(node, SimTime::from_millis(outage.at_ms));
            sim.schedule_restart(node, SimTime::from_millis(outage.at_ms + outage.down_ms));
        }
    }
    let ok = run_to_completion(&mut sim, ctrl, SimTime::from_secs(30_000));
    assert!(ok, "mdtest run did not complete ({:?})", cfg.system);

    // Replication correctness under the measured load: every replica of
    // every shard must end bit-identical to its ensemble peers.
    let (namespace_digest, namespace_nodes, logical_digest) = if dufs {
        for s in 0..shards {
            let digests: Vec<(u64, usize)> = (0..zk_servers)
                .map(|i| {
                    let srv = sim
                        .node_ref::<CoordServerProc>(NodeId((s * zk_servers + i) as u32))
                        .server();
                    (srv.tree().digest(), srv.tree().node_count())
                })
                .collect();
            assert!(
                digests.windows(2).all(|w| w[0].0 == w[1].0),
                "shard {s} replicas diverged after the run: {digests:?}"
            );
        }
        let trees: Vec<&DataTree> = (0..shards)
            .map(|s| {
                sim.node_ref::<CoordServerProc>(NodeId((s * zk_servers) as u32)).server().tree()
            })
            .collect();
        let ring = HashRing::new(shards as u32, DEFAULT_VNODES);
        let (logical, logical_nodes) = logical_namespace_digest(&trees, &ring);
        if shards == 1 {
            // Single ensemble: keep the historical raw-tree figures.
            (trees[0].digest(), trees[0].node_count(), logical)
        } else {
            (logical, logical_nodes, logical)
        }
    } else {
        (0, 0, 0)
    };

    let tallies = sim.node_ref::<ControllerProc>(ctrl).results.clone();
    let phases = spec
        .phases
        .iter()
        .zip(tallies)
        .map(|(&phase, t)| PhaseResult {
            phase,
            ops: t.ops,
            errors: t.errors,
            ops_per_sec: t.ops_per_sec(),
            mean_latency_us: t.latency.mean().as_micros_f64(),
            p99_latency_us: t.latency.quantile(0.99).as_micros_f64(),
        })
        .collect();
    MdtestReport { phases, namespace_digest, namespace_nodes, logical_digest }
}

/// Shard-count-independent digest of the logical user namespace held by
/// `trees` (one fully-converged replica per shard), mirroring
/// `ShardedClient::user_digest`: a path logically exists if it is present
/// on its owner shard or is an ancestor of one that is (ancestors may
/// exist only as lazily-materialized copies on other shards); each logical
/// node contributes `fnv(path ++ 0x00 ++ owner-data)`; coordination
/// internals are excluded. Returns `(digest, logical node count)`.
fn logical_namespace_digest(trees: &[&DataTree], ring: &HashRing) -> (u64, usize) {
    let mut candidates: BTreeSet<String> = BTreeSet::new();
    for t in trees {
        for p in t.subtree_paths("/").expect("root always exists") {
            if p != "/" && !is_internal_path(&p) {
                candidates.insert(p);
            }
        }
    }
    let mut live: BTreeSet<String> = BTreeSet::new();
    for p in &candidates {
        let owner = ring.route_path(p) as usize;
        if trees[owner].get_data(p).is_ok() {
            live.insert(p.clone());
        }
    }
    let mut logical: BTreeSet<String> = BTreeSet::new();
    for p in &live {
        let mut cur = p.as_str();
        while cur != "/" {
            if !logical.insert(cur.to_string()) {
                break;
            }
            cur = parent_dir(cur);
        }
    }
    let mut digest = 0u64;
    for p in &logical {
        let owner = ring.route_path(p) as usize;
        let data = match trees[owner].get_data(p) {
            Ok((d, _)) => d,
            Err(_) => Bytes::new(),
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in p.as_bytes().iter().chain([0u8].iter()).chain(data.iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        digest = digest.wrapping_add(h);
    }
    (digest, logical.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(processes: usize) -> WorkloadSpec {
        WorkloadSpec::mdtest(processes, 12)
    }

    #[test]
    fn group_commit_and_pipelining_raise_write_throughput() {
        // The gain grows with ensemble size (group commit amortizes the
        // per-transaction follower fan-out), so measure where the paper's
        // write path is at its worst: 8 voters.
        let run = |tuning| run_zk_raw(8, 0, 24, RawOp::Create, 30, 17, tuning).ops_per_sec;
        let base = run(RawTuning::default());
        let tuned =
            run(RawTuning { zab: ZabConfig::batched(32, 1), depth: 8, ..RawTuning::default() });
        assert!(
            tuned > base * 1.5,
            "batched+pipelined writes must beat the synchronous loop: {tuned} vs {base}"
        );
    }

    #[test]
    fn raw_get_scales_with_servers_and_create_does_not() {
        let run =
            |servers, op| run_zk_raw(servers, 0, 32, op, 40, 1, RawTuning::default()).ops_per_sec;
        let (get1, get4) = (run(1, RawOp::Get), run(4, RawOp::Get));
        assert!(get4 > get1 * 1.8, "reads must scale out: 1={get1:.0} 4={get4:.0}");
        let (cr1, cr4) = (run(1, RawOp::Create), run(4, RawOp::Create));
        assert!(cr1 > cr4, "writes must slow with ensemble size: 1={cr1:.0} 4={cr4:.0}");
    }

    #[test]
    fn basic_lustre_mdtest_runs_clean() {
        let cfg = MdtestConfig::new(MdtestSystem::BasicLustre, small_spec(16), 3);
        let res = run_mdtest(&cfg);
        assert_eq!(res.len(), 6);
        for r in &res {
            assert_eq!(r.errors, 0, "{:?}: {} errors", r.phase, r.errors);
            assert_eq!(r.ops, 16 * 12, "{:?}", r.phase);
            assert!(r.ops_per_sec > 0.0);
        }
        // Stat phases are faster than their mutation counterparts.
        let by = |p: Phase| res.iter().find(|r| r.phase == p).unwrap().ops_per_sec;
        assert!(by(Phase::DirStat) > by(Phase::DirCreate));
        assert!(by(Phase::FileStat) > by(Phase::FileCreate));
    }

    #[test]
    fn dufs_mdtest_survives_coord_follower_crash_mid_run() {
        // Crash one of 3 coordination servers two virtual seconds in and
        // bring it back 5 s later: the run completes, losses are bounded to
        // requests in flight during failover, and the restarted replica
        // converges (asserted inside run_mdtest_report).
        let cfg = MdtestConfig {
            crash_coord: Some(CoordCrash { server: 2, at_ms: 2_000, down_ms: 5_000 }),
            ..MdtestConfig::new(
                MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 },
                small_spec(12),
                9,
            )
        };
        let report = run_mdtest_report(&cfg);
        assert_eq!(report.phases.len(), 6);
        let total_ops: u64 = report.phases.iter().map(|p| p.ops).sum();
        let total_errors: u64 = report.phases.iter().map(|p| p.errors).sum();
        assert_eq!(total_ops, 6 * 12 * 12);
        // Clients whose server died time out and count an error; the
        // overwhelming majority of the workload must still succeed.
        assert!(
            (total_errors as f64) < (total_ops as f64) * 0.2,
            "errors bounded: {total_errors}/{total_ops}"
        );
    }

    #[test]
    fn durable_servers_change_cost_but_not_namespace_content() {
        // The WAL is a durability layer, not a semantics layer: the same
        // workload through fsyncing servers must build the identical
        // namespace, only slower. (MemStorage never fails, so the runs
        // differ purely in service times.)
        let system = MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 };
        let base = run_mdtest_report(&MdtestConfig::new(system, small_spec(8), 21));
        let durable = run_mdtest_report(&MdtestConfig {
            durable: true,
            ..MdtestConfig::new(system, small_spec(8), 21)
        });
        assert_eq!(durable.namespace_digest, base.namespace_digest);
        assert_eq!(durable.namespace_nodes, base.namespace_nodes);
        let ops = |r: &MdtestReport| -> u64 { r.phases.iter().map(|p| p.ops).sum() };
        assert_eq!(ops(&durable), ops(&base));
        // fsync-per-write (batch 1) must actually cost something on the
        // write phases — otherwise the charge is not wired through.
        let create = |r: &MdtestReport| {
            r.phases.iter().find(|p| p.phase == Phase::DirCreate).unwrap().ops_per_sec
        };
        assert!(
            create(&durable) < create(&base) * 0.9,
            "fsync-per-write must slow creates: durable {} vs in-memory {}",
            create(&durable),
            create(&base)
        );
    }

    #[test]
    fn dufs_mdtest_survives_whole_ensemble_crash_and_matches_uncrashed_control() {
        // Kill ALL coordination servers 60 virtual ms into the run (mid
        // file-creation for this workload size) and restart them from
        // their write-ahead logs 2 s later. The run must complete, and
        // the recovered namespace must be *identical* (content digest) to
        // a control run that never crashed: nothing acknowledged is lost,
        // nothing is applied twice, every workload op eventually lands.
        let system = MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 };
        let control =
            MdtestConfig { durable: true, ..MdtestConfig::new(system, small_spec(8), 33) };
        let crashed = MdtestConfig {
            crash_all_coord: Some(CoordOutage { at_ms: 60, down_ms: 2_000 }),
            ..control.clone()
        };
        let want = run_mdtest_report(&control);
        let got = run_mdtest_report(&crashed);
        assert_eq!(got.phases.len(), 6);
        // Guard against the outage landing after the workload already
        // finished (which would make this test vacuous): the stall and
        // retries must be visible in at least one phase's timing.
        let disrupted = got
            .phases
            .iter()
            .zip(&want.phases)
            .any(|(g, w)| g.ops_per_sec.to_bits() != w.ops_per_sec.to_bits());
        assert!(disrupted, "the outage must land mid-run and perturb phase timing");
        assert_eq!(
            got.namespace_digest, want.namespace_digest,
            "recovered namespace must match the uncrashed control bit for bit"
        );
        assert_eq!(got.namespace_nodes, want.namespace_nodes);
        let ops = |r: &MdtestReport| -> u64 { r.phases.iter().map(|p| p.ops).sum() };
        assert_eq!(ops(&got), ops(&want), "every workload op completes despite the outage");
    }

    #[test]
    fn sharded_sim_builds_the_same_logical_namespace() {
        // The full 6-phase workload over 2 shards must complete with zero
        // errors and tear the namespace back down to the same logical
        // content a single-ensemble run ends with (routing, mkdir -p ghost
        // materialization, and the two-leg sharded delete all cancel out).
        let system = MdtestSystem::DufsLustre { zk_servers: 1, backends: 2 };
        let base = run_mdtest_report(&MdtestConfig::new(system, small_spec(8), 11));
        let sharded = run_mdtest_report(&MdtestConfig {
            shards: 2,
            ..MdtestConfig::new(system, small_spec(8), 11)
        });
        for r in base.phases.iter().chain(sharded.phases.iter()) {
            assert_eq!(r.errors, 0, "{:?}: {} errors", r.phase, r.errors);
        }
        let ops = |r: &MdtestReport| -> u64 { r.phases.iter().map(|p| p.ops).sum() };
        assert_eq!(ops(&sharded), ops(&base));
        assert_eq!(
            sharded.logical_digest, base.logical_digest,
            "2-shard run diverged from the single-ensemble namespace"
        );
    }

    #[test]
    fn sharded_sim_logical_digest_is_shard_count_independent_with_live_tree() {
        // Create/stat phases only, so the run *ends* with the namespace
        // fully populated: the digest certifies every dir and file landed
        // on its owner shard with the right data, across 1/2/4 shards.
        let spec = WorkloadSpec {
            phases: vec![Phase::DirCreate, Phase::DirStat, Phase::FileCreate, Phase::FileStat],
            ..small_spec(8)
        };
        let system = MdtestSystem::DufsLustre { zk_servers: 1, backends: 2 };
        let reports: Vec<MdtestReport> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let cfg = MdtestConfig { shards, ..MdtestConfig::new(system, spec.clone(), 13) };
                let r = run_mdtest_report(&cfg);
                for p in &r.phases {
                    assert_eq!(p.errors, 0, "shards={shards} {:?}: {} errors", p.phase, p.errors);
                }
                r
            })
            .collect();
        assert_eq!(reports[0].logical_digest, reports[1].logical_digest);
        assert_eq!(reports[0].logical_digest, reports[2].logical_digest);
        // A populated tree: /mdtest + 8 proc roots + 8×12 dirs + 8×12 files.
        assert_eq!(reports[1].namespace_nodes, 1 + 8 + 8 * 12 + 8 * 12);
    }

    #[test]
    fn dufs_mdtest_runs_clean() {
        let cfg = MdtestConfig::new(
            MdtestSystem::DufsLustre { zk_servers: 3, backends: 2 },
            small_spec(16),
            5,
        );
        let res = run_mdtest(&cfg);
        assert_eq!(res.len(), 6);
        for r in &res {
            assert_eq!(r.errors, 0, "{:?}: {} errors", r.phase, r.errors);
            assert_eq!(r.ops, 16 * 12, "{:?}", r.phase);
            assert!(r.mean_latency_us > 0.0, "{:?} latency populated", r.phase);
            assert!(r.p99_latency_us >= r.mean_latency_us * 0.5, "{:?}", r.phase);
        }
    }
}
