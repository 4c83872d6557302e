//! Simulated server processes: coordination servers and back-end
//! metadata/IO servers.
//!
//! A simulated coordination server is the second host of
//! [`dufs_coord::event_loop::Member`], beside the live TCP server: the
//! member builds the state machine, drops traffic while crashed, keeps and
//! voids its timers and routes its outputs; [`CoordServerProc`] adds only
//! what the simulation models — the pipeline queue, the CPU cost of each
//! event, and the WAL fsync charge. Each event is a pass of its own: the
//! member's durability point follows it, and its outputs all leave after
//! the one lumped charge.

use dufs_backendfs::{FsError, MetaOpKind, ParallelFs};
use dufs_coord::event_loop::{Host, Member};
use dufs_coord::runtime::ClientEvent;
use dufs_coord::server::{ClientId, CoordMsg, CoordServer, ServerIn, ServerOut};
use dufs_coord::shard::parent_dir;
use dufs_coord::{TxnOp, ZkRequest};
use dufs_core::plan::BackendReq;
use dufs_core::services::apply_backend_req;
use dufs_simnet::{Ctx, NodeId, Process, ServiceQueue, SimDuration, SimTime, TimerToken};
use dufs_wal::MemStorage;
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};

use crate::costs;
use crate::msg::ClusterMsg;
use crate::workload::NativeOp;

/// A coordination server inside the simulation: the [`CoordServer`] state
/// machine plus a CPU cost model. All request handling is serialized
/// through a single pipeline queue (ZooKeeper's ordered commit path), which
/// is what makes writes *slow down* as the ensemble grows — every extra
/// follower adds propose/ack/commit CPU at the leader (Fig 7a–c) — while
/// reads scale out across servers (Fig 7d).
pub struct CoordServerProc {
    member: Member,
    /// Map peer id → sim node of that coordination server.
    peer_nodes: Vec<NodeId>,
    queue: ServiceQueue,
    startup: Option<Vec<ServerOut>>,
    /// WAL fsyncs already charged on the pipeline (durable servers only):
    /// each increment of `wal_sync_count()` past this costs `FSYNC_US`.
    wal_synced: u64,
}

impl CoordServerProc {
    /// Build server `peer` of `ensemble`; `peer_nodes[i]` must be the sim
    /// node hosting peer `i`. `zab` is the group-commit tuning (the default
    /// reproduces the paper's one-round-per-write broadcast). A `durable`
    /// server keeps a write-ahead log: it fsyncs every ZAB batch before its
    /// ACK leaves (charged as `FSYNC_US` pipeline time per group fsync) and
    /// recovers its state from the log after a crash instead of resyncing
    /// from a peer. The log lives on deterministic in-memory storage so
    /// simulation runs stay reproducible per seed.
    pub fn new(
        peer: PeerId,
        ensemble: EnsembleConfig,
        peer_nodes: Vec<NodeId>,
        zab: ZabConfig,
        durable: bool,
    ) -> Self {
        let log = durable.then(|| Box::new(MemStorage::new()) as _);
        let (member, startup) = Member::new(peer, ensemble, zab, log);
        CoordServerProc {
            wal_synced: member.server().wal_sync_count(),
            member,
            peer_nodes,
            queue: ServiceQueue::new(costs::ZK_PIPELINE_WIDTH),
            startup: Some(startup),
        }
    }

    /// The wrapped server (for digests/memory probes after a run).
    pub fn server(&self) -> &CoordServer {
        self.member.server()
    }

    /// Pipeline time of one replicated write that arrived in messages
    /// costing `msgs_us`: the transaction pipeline plus what the op's size
    /// adds.
    fn write_cost(msgs_us: f64, op: Option<&TxnOp>) -> f64 {
        let extra = match op {
            Some(TxnOp::Multi { ops }) => costs::ZK_MULTI_PER_OP_US * ops.len() as f64,
            Some(TxnOp::SetData { .. }) => 40.0, // payload rewrite (Fig 7c)
            _ => 0.0,
        };
        costs::ZK_WRITE_BASE_US + msgs_us + extra
    }

    fn request_cost(req: &ZkRequest) -> f64 {
        let msgs_us = 2.0 * costs::ZK_CLIENT_MSG_US;
        if req.is_read() {
            costs::ZK_READ_US + msgs_us
        } else {
            Self::write_cost(msgs_us, TxnOp::from_request(req.clone(), 0).as_ref())
        }
    }

    /// Take the event's durability point, charge `cost_us` (+ per-peer-
    /// message tx cost once outputs are known) on the pipeline and
    /// dispatch.
    fn charge_and_dispatch(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        mut outs: Vec<ServerOut>,
        base_cost_us: f64,
    ) {
        if !self.member.sync() {
            outs.clear();
        }
        let peer_sends = outs.iter().filter(|o| matches!(o, ServerOut::Peer { .. })).count() as f64;
        // Durable servers block the pipeline for the WAL group fsync the
        // event triggered, and send its proposals and its acks alike after
        // it: the model keeps the leader's and the followers' fsyncs in
        // series.
        let syncs = self.server().wal_sync_count().saturating_sub(self.wal_synced) as f64;
        self.wal_synced = self.server().wal_sync_count();
        let cost =
            costs::us(base_cost_us + peer_sends * costs::ZK_PEER_MSG_US + syncs * costs::FSYNC_US);
        let done = self.queue.complete_at(ctx.now(), cost);
        let delay = done.since(ctx.now());
        self.route(ctx, outs, delay);
    }

    /// Route outputs through the member, sending network messages and
    /// arming timers `delay` late (the event's residual service time).
    fn route(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, outs: Vec<ServerOut>, delay: SimDuration) {
        let me = self.server().id();
        let mut host = SimHost { ctx, peer_nodes: &self.peer_nodes, me, delay };
        self.member.route(outs, &mut host);
    }
}

/// Where a simulated member's outputs go: into the simulation, `delay` late.
struct SimHost<'a, 'c> {
    ctx: &'a mut Ctx<'c, ClusterMsg>,
    peer_nodes: &'a [NodeId],
    me: PeerId,
    delay: SimDuration,
}

impl Host for SimHost<'_, '_> {
    fn deliver(&mut self, to: ClientId, ev: ClientEvent) {
        // The simulated mdtest clients do not register watches.
        if let ClientEvent::Resp { req_id, resp } = ev {
            let msg = ClusterMsg::ZkResp { req_id, resp };
            self.ctx.send_after(NodeId(to as u32), msg, self.delay);
        }
    }

    fn send_peer(&mut self, to: PeerId, msg: CoordMsg) {
        let msg = ClusterMsg::CoordPeer { from: self.me, msg };
        self.ctx.send_after(self.peer_nodes[to.0 as usize], msg, self.delay);
    }

    fn arm(&mut self, token: TimerToken, after_ms: u64) {
        self.ctx.set_timer(SimDuration::from_millis(after_ms) + self.delay, token);
    }
}

impl Process<ClusterMsg> for CoordServerProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        if let Some(outs) = self.startup.take() {
            self.route(ctx, outs, SimDuration::ZERO);
        }
    }

    fn on_crash(&mut self) {
        self.member.crash();
        self.queue.reset();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        let outs = self.member.restart(ctx.now().as_nanos());
        // Recovery replay (log scan + snapshot load) happens "during the
        // restart"; its fsync is not charged against the serving pipeline.
        self.wal_synced = self.server().wal_sync_count();
        self.route(ctx, outs, SimDuration::ZERO);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
        let (cost, input) = match msg {
            ClusterMsg::ZkReq { client, req_id, session, req } => {
                (Self::request_cost(&req), ServerIn::Client { client, req_id, session, req })
            }
            // A forwarded client write costs the full transaction pipeline
            // at the leader, exactly like a locally received one; protocol
            // chatter costs one message's worth.
            ClusterMsg::CoordPeer { from, msg } => {
                let cost = match &msg {
                    CoordMsg::Forward { op, .. } => {
                        Self::write_cost(costs::ZK_PEER_MSG_US, Some(op))
                    }
                    _ => costs::ZK_PEER_MSG_US,
                };
                (cost, ServerIn::Peer { from, msg })
            }
            other => panic!("coord server got unexpected message {other:?}"),
        };
        let outs = self.member.handle(ctx.now().as_nanos(), input);
        self.charge_and_dispatch(ctx, outs, cost);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, token: TimerToken) {
        let now = ctx.now().as_nanos();
        let outs = self.member.fire(now, token).expect("a timer fires only while armed");
        // Protocol timers are cheap; only their sends cost.
        self.charge_and_dispatch(ctx, outs, 1.0);
    }
}

/// One back-end filesystem mount inside the simulation: a functional
/// [`ParallelFs`] behind an MDS service queue with the mount's timing
/// profile (Lustre or PVFS2).
pub struct BackendProc {
    fs: ParallelFs,
    queue: ServiceQueue,
    /// One exclusive DLM lock per directory: namespace mutations serialize
    /// on their parent (see `PfsTimingProfile::dir_lock_us`).
    dir_locks: std::collections::HashMap<String, ServiceQueue>,
}

impl BackendProc {
    /// Wrap a functional filesystem instance.
    pub fn new(fs: ParallelFs) -> Self {
        let width = fs.profile().mds_parallelism;
        BackendProc {
            fs,
            queue: ServiceQueue::new(width),
            dir_locks: std::collections::HashMap::new(),
        }
    }

    /// Mutations first acquire the parent directory's exclusive lock; the
    /// MDS service starts once the lock is granted.
    fn mutation_start(&mut self, now: SimTime, path: &str) -> SimTime {
        let lock_us = self.fs.profile().dir_lock_us;
        if lock_us <= 0.0 {
            return now;
        }
        let parent = parent_dir(path).to_string();
        let q = self.dir_locks.entry(parent).or_insert_with(|| ServiceQueue::new(1));
        q.complete_at(now, costs::us(lock_us))
    }

    fn kind_of_backend_req(req: &BackendReq) -> MetaOpKind {
        match req {
            BackendReq::CreateFile { .. } => MetaOpKind::Create,
            BackendReq::Unlink { .. } => MetaOpKind::Unlink,
            BackendReq::Stat { .. } => MetaOpKind::StatFile,
            BackendReq::Chmod { .. } | BackendReq::Truncate { .. } => MetaOpKind::SetAttr,
            BackendReq::Access { .. } => MetaOpKind::Open,
            BackendReq::SetTimes { .. } => MetaOpKind::SetAttr,
            BackendReq::StatFs => MetaOpKind::StatDir,
            BackendReq::Read { .. } | BackendReq::Write { .. } => MetaOpKind::Open, // + IO below
        }
    }

    fn kind_of_native(op: &NativeOp) -> MetaOpKind {
        match op {
            NativeOp::Mkdir(_) => MetaOpKind::Mkdir,
            NativeOp::Rmdir(_) => MetaOpKind::Rmdir,
            NativeOp::Create(_) => MetaOpKind::Create,
            NativeOp::Unlink(_) => MetaOpKind::Unlink,
            NativeOp::StatDir(_) => MetaOpKind::StatDir,
            NativeOp::StatFile(_) => MetaOpKind::StatFile,
        }
    }

    /// Run a native op at virtual time `t`; whether it succeeded.
    fn apply_native(&mut self, op: &NativeOp, t: u64) -> bool {
        match op {
            NativeOp::Mkdir(p) => {
                matches!(self.fs.mkdir(p, 0o755, t), Ok(()) | Err(FsError::Exists))
            }
            NativeOp::Rmdir(p) => self.fs.rmdir(p, t).is_ok(),
            NativeOp::Create(p) => self.fs.create(p, 0o644, t).is_ok(),
            NativeOp::Unlink(p) => self.fs.unlink(p, t).is_ok(),
            NativeOp::StatDir(p) | NativeOp::StatFile(p) => self.fs.stat(p).is_ok(),
        }
    }
}

impl Process<ClusterMsg> for BackendProc {
    /// Every request takes one path: its service time at the current load,
    /// the parent directory's lock if it mutates the namespace, the MDS
    /// queue, then the reply, which leaves when the request completes.
    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, from: NodeId, msg: ClusterMsg) {
        let now = ctx.now();
        let load = self.queue.in_flight(now);
        let profile = self.fs.profile();
        let (service, mutated) = match &msg {
            ClusterMsg::BeReq { req, deep_path, .. } => {
                let mut service = profile.service_time(Self::kind_of_backend_req(req), load);
                if *deep_path {
                    service = service.mul_f64(profile.shard_depth_factor);
                }
                // Data ops add per-target IO time.
                match req {
                    BackendReq::Read { len, .. } => service = service + profile.io_time(*len),
                    BackendReq::Write { data, .. } => {
                        service = service + profile.io_time(data.len())
                    }
                    _ => {}
                }
                let mutated = match req {
                    BackendReq::CreateFile { path, .. } | BackendReq::Unlink { path } => Some(path),
                    _ => None,
                };
                (service, mutated)
            }
            ClusterMsg::NativeReq { op, .. } => {
                let mutated = match op {
                    NativeOp::Mkdir(p)
                    | NativeOp::Rmdir(p)
                    | NativeOp::Create(p)
                    | NativeOp::Unlink(p) => Some(p),
                    NativeOp::StatDir(_) | NativeOp::StatFile(_) => None,
                };
                (profile.service_time(Self::kind_of_native(op), load), mutated)
            }
            other => panic!("backend got unexpected message {other:?}"),
        };
        let start = match mutated {
            Some(path) => self.mutation_start(now, path),
            None => now,
        };
        let done = self.queue.complete_at(start, service);
        let reply = match msg {
            ClusterMsg::BeReq { req_id, req, .. } => ClusterMsg::BeResp {
                req_id,
                resp: apply_backend_req(&mut self.fs, req, done.as_nanos()),
            },
            ClusterMsg::NativeReq { req_id, op } => {
                ClusterMsg::NativeResp { req_id, ok: self.apply_native(&op, done.as_nanos()) }
            }
            _ => unreachable!("matched above"),
        };
        ctx.send_after(from, reply, done.since(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_simnet::{FixedLatency, Sim};

    /// A driver that fires native requests at a backend and records reply
    /// times.
    struct Probe {
        target: NodeId,
        send: Vec<NativeOp>,
        replies: Vec<(u64, bool)>, // (time ns, ok)
    }
    impl Process<ClusterMsg> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
            for (i, op) in self.send.iter().cloned().enumerate() {
                ctx.send(self.target, ClusterMsg::NativeReq { req_id: i as u64, op });
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
            if let ClusterMsg::NativeResp { ok, .. } = msg {
                self.replies.push((ctx.now().as_nanos(), ok));
            }
        }
    }

    #[test]
    fn backend_serves_native_ops_with_service_delay() {
        let mut sim: Sim<ClusterMsg> = Sim::new(7, FixedLatency::micros(50));
        let be = sim.add_node(BackendProc::new(ParallelFs::lustre()));
        let probe = sim.add_node(Probe {
            target: be,
            send: vec![
                NativeOp::Mkdir("/a".into()),
                NativeOp::StatDir("/a".into()),
                NativeOp::Rmdir("/a".into()),
            ],
            replies: vec![],
        });
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.replies.len(), 3);
        assert!(p.replies.iter().all(|&(_, ok)| ok), "{:?}", p.replies);
        // mkdir costs ~1.3ms service + 100us RTT: first reply not before that.
        assert!(p.replies[0].0 > 1_300_000, "reply at {}", p.replies[0].0);
        // Backend is empty again.
        assert_eq!(sim.node_ref::<BackendProc>(be).fs.entry_count(), 0);
    }

    #[test]
    fn coord_server_single_ensemble_answers_requests() {
        struct ZkProbe {
            target: NodeId,
            got: Vec<ClusterMsg>,
        }
        impl Process<ClusterMsg> for ZkProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
                ctx.send(
                    self.target,
                    ClusterMsg::ZkReq { client: 1, req_id: 0, session: 0, req: ZkRequest::Connect },
                );
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _f: NodeId, msg: ClusterMsg) {
                if let ClusterMsg::ZkResp { resp, .. } = &msg {
                    use dufs_coord::ZkResponse;
                    match resp {
                        ZkResponse::Connected { session } => {
                            let session = *session;
                            self.got.push(msg);
                            ctx.send(
                                self.target,
                                ClusterMsg::ZkReq {
                                    client: 1,
                                    req_id: 1,
                                    session,
                                    req: ZkRequest::Create {
                                        path: "/x".into(),
                                        data: bytes::Bytes::new(),
                                        mode: dufs_zkstore::CreateMode::Persistent,
                                    },
                                },
                            );
                        }
                        _ => self.got.push(msg),
                    }
                }
            }
        }
        let mut sim: Sim<ClusterMsg> = Sim::new(3, FixedLatency::micros(50));
        // Node 0 hosts the single coordination server.
        let coord = sim.add_node(CoordServerProc::new(
            PeerId(0),
            EnsembleConfig::of_size(1),
            vec![NodeId(0)],
            ZabConfig::default(),
            false,
        ));
        assert_eq!(coord, NodeId(0));
        let probe = sim.add_node(ZkProbe { target: coord, got: vec![] });
        sim.run_until(SimTime::from_secs(2));
        let p = sim.node_ref::<ZkProbe>(probe);
        assert_eq!(p.got.len(), 2, "connect + create answered: {:?}", p.got);
    }

    /// The timer table holds what is armed, not every timer ever set. An
    /// idle 3-member ensemble keeps re-arming its ZAB timer (leader pings
    /// or follower watchdog) and its session sweep for a minute of virtual
    /// time; each member holds those two. A crash voids and clears them,
    /// and the restarted member arms its two again.
    #[test]
    fn an_idle_ensemble_keeps_only_its_armed_timers() {
        let mut sim: Sim<ClusterMsg> = Sim::new(5, FixedLatency::micros(50));
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        for i in 0..3 {
            let ens = EnsembleConfig::of_size(3);
            let zab = ZabConfig::default();
            sim.add_node(CoordServerProc::new(PeerId(i), ens, nodes.clone(), zab, false));
        }
        let table = |sim: &Sim<ClusterMsg>| -> Vec<usize> {
            nodes.iter().map(|&n| sim.node_ref::<CoordServerProc>(n).member.armed()).collect()
        };
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(table(&sim), [2, 2, 2]);
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(table(&sim), [2, 2, 2], "the tables grew with time");
        sim.schedule_crash(nodes[2], SimTime::from_secs(61));
        sim.schedule_restart(nodes[2], SimTime::from_secs(62));
        sim.run_until(SimTime::from_secs(61));
        assert_eq!(table(&sim), [2, 2, 0], "a crash voids its member's timers");
        sim.run_until(SimTime::from_secs(70));
        assert_eq!(table(&sim), [2, 2, 2]);
    }
}
