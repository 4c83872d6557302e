//! Simulated server processes: coordination servers and back-end
//! metadata/IO servers.

use dufs_backendfs::{MetaOpKind, ParallelFs};
use dufs_coord::server::{CoordMsg, CoordServer, CoordTimer, ServerIn, ServerOut};
use dufs_coord::shard::parent_dir;
use dufs_coord::{TxnOp, ZkRequest};
use dufs_core::plan::BackendReq;
use dufs_core::services::apply_backend_req;
use dufs_simnet::{Ctx, NodeId, Process, ServiceQueue, SimDuration, TimerToken};
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
    server: CoordServer,
    /// Map peer id → sim node of that coordination server.
    peer_nodes: Vec<NodeId>,
    queue: ServiceQueue,
    timers: Vec<CoordTimer>,
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
        let (server, startup) = if durable {
            CoordServer::new_durable(peer, ensemble, zab, Box::new(MemStorage::new()))
                .expect("in-memory WAL storage cannot fail")
        } else {
            CoordServer::new_with_config(peer, ensemble, zab)
        };
        CoordServerProc {
            wal_synced: server.wal_sync_count(),
            server,
            peer_nodes,
            queue: ServiceQueue::new(costs::ZK_PIPELINE_WIDTH),
            timers: Vec::new(),
            startup: Some(startup),
        }
    }

    /// The wrapped server (for digests/memory probes after a run).
    pub fn server(&self) -> &CoordServer {
        &self.server
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

    /// Execute server outputs, sending network messages after `delay`
    /// (the request's residual service time).
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        outs: Vec<ServerOut>,
        delay: SimDuration,
    ) {
        for o in outs {
            match o {
                ServerOut::Client { client, req_id, resp } => {
                    ctx.send_after(
                        NodeId(client as u32),
                        ClusterMsg::ZkResp { client, req_id, resp },
                        delay,
                    );
                }
                ServerOut::Peer { to, msg } => {
                    let node = self.peer_nodes[to.0 as usize];
                    ctx.send_after(
                        node,
                        ClusterMsg::CoordPeer { from: self.server.id(), msg },
                        delay,
                    );
                }
                ServerOut::Timer { timer, after_ms } => {
                    let token = self.timers.len() as TimerToken;
                    self.timers.push(timer);
                    ctx.set_timer(SimDuration::from_millis(after_ms) + delay, token);
                }
                ServerOut::Watch { .. } => {
                    // The simulated mdtest clients do not register watches.
                }
            }
        }
    }

    /// Charge `cost_us` (+ per-peer-message tx cost once outputs are known)
    /// on the pipeline and dispatch.
    fn charge_and_dispatch(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        outs: Vec<ServerOut>,
        base_cost_us: f64,
    ) {
        let peer_sends = outs.iter().filter(|o| matches!(o, ServerOut::Peer { .. })).count() as f64;
        // Durable servers block the pipeline for every WAL group fsync the
        // event triggered (ACKs only left the server after the flush).
        let syncs = self.server.wal_sync_count().saturating_sub(self.wal_synced) as f64;
        self.wal_synced = self.server.wal_sync_count();
        let cost =
            costs::us(base_cost_us + peer_sends * costs::ZK_PEER_MSG_US + syncs * costs::FSYNC_US);
        let done = self.queue.complete_at(ctx.now(), cost);
        let delay = done.since(ctx.now());
        self.dispatch(ctx, outs, delay);
    }
}

impl Process<ClusterMsg> for CoordServerProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        if let Some(outs) = self.startup.take() {
            self.dispatch(ctx, outs, SimDuration::ZERO);
        }
    }

    fn on_crash(&mut self) {
        self.server.on_crash();
        self.queue.reset();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        let outs = self.server.on_restart(ctx.now().as_nanos());
        // Recovery replay (log scan + snapshot load) happens "during the
        // restart"; its fsync is not charged against the serving pipeline.
        self.wal_synced = self.server.wal_sync_count();
        self.dispatch(ctx, outs, SimDuration::ZERO);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::ZkReq { client, req_id, session, req } => {
                let cost = Self::request_cost(&req);
                let outs = self.server.handle(
                    ctx.now().as_nanos(),
                    ServerIn::Client { client, req_id, session, req },
                );
                self.charge_and_dispatch(ctx, outs, cost);
            }
            ClusterMsg::CoordPeer { from, msg } => {
                // A forwarded client write costs the full transaction
                // pipeline at the leader, exactly like a locally received
                // one; protocol chatter costs one message's worth.
                let cost = match &msg {
                    CoordMsg::Forward { op, .. } => {
                        Self::write_cost(costs::ZK_PEER_MSG_US, Some(op))
                    }
                    _ => costs::ZK_PEER_MSG_US,
                };
                let outs = self.server.handle(ctx.now().as_nanos(), ServerIn::Peer { from, msg });
                self.charge_and_dispatch(ctx, outs, cost);
            }
            other => panic!("coord server got unexpected message {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, token: TimerToken) {
        let timer = self.timers[token as usize];
        let outs = self.server.handle(ctx.now().as_nanos(), ServerIn::Timer(timer));
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
    fn mutation_start(&mut self, now: dufs_simnet::SimTime, path: &str) -> dufs_simnet::SimTime {
        let lock_us = self.fs.profile().dir_lock_us;
        if lock_us <= 0.0 {
            return now;
        }
        let parent = parent_dir(path).to_string();
        let q = self.dir_locks.entry(parent).or_insert_with(|| ServiceQueue::new(1));
        q.complete_at(now, costs::us(lock_us))
    }

    /// The wrapped filesystem (post-run verification).
    pub fn fs(&self) -> &ParallelFs {
        &self.fs
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
}

impl Process<ClusterMsg> for BackendProc {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::BeReq { client, req_id, req, deep_path } => {
                let kind = Self::kind_of_backend_req(&req);
                let load = self.queue.in_flight(ctx.now());
                let mut service = self.fs.profile().service_time(kind, load);
                if deep_path {
                    service = service.mul_f64(self.fs.profile().shard_depth_factor);
                }
                // Data ops add per-target IO time.
                if let BackendReq::Read { len, .. } = &req {
                    service = service + self.fs.profile().io_time(*len);
                }
                if let BackendReq::Write { data, .. } = &req {
                    service = service + self.fs.profile().io_time(data.len());
                }
                // Namespace mutations hold the parent directory's lock.
                let start = match &req {
                    BackendReq::CreateFile { path, .. } | BackendReq::Unlink { path } => {
                        self.mutation_start(ctx.now(), path)
                    }
                    _ => ctx.now(),
                };
                let done = self.queue.complete_at(start, service);
                let resp = apply_backend_req(&mut self.fs, req, done.as_nanos());
                ctx.send_after(
                    from,
                    ClusterMsg::BeResp { client, req_id, resp },
                    done.since(ctx.now()),
                );
            }
            ClusterMsg::NativeReq { client, req_id, op } => {
                let kind = Self::kind_of_native(&op);
                let load = self.queue.in_flight(ctx.now());
                let service = self.fs.profile().service_time(kind, load);
                let start = match &op {
                    NativeOp::Mkdir(p)
                    | NativeOp::Rmdir(p)
                    | NativeOp::Create(p)
                    | NativeOp::Unlink(p) => self.mutation_start(ctx.now(), p),
                    _ => ctx.now(),
                };
                let done = self.queue.complete_at(start, service);
                let t = done.as_nanos();
                let ok = match &op {
                    NativeOp::Mkdir(p) => {
                        matches!(
                            self.fs.mkdir(p, 0o755, t),
                            Ok(()) | Err(dufs_backendfs::FsError::Exists)
                        )
                    }
                    NativeOp::Rmdir(p) => self.fs.rmdir(p, t).is_ok(),
                    NativeOp::Create(p) => self.fs.create(p, 0o644, t).is_ok(),
                    NativeOp::Unlink(p) => self.fs.unlink(p, t).is_ok(),
                    NativeOp::StatDir(p) | NativeOp::StatFile(p) => self.fs.stat(p).is_ok(),
                };
                ctx.send_after(
                    from,
                    ClusterMsg::NativeResp { client, req_id, ok },
                    done.since(ctx.now()),
                );
            }
            other => panic!("backend got unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_simnet::{FixedLatency, Sim, SimTime};

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
                ctx.send(self.target, ClusterMsg::NativeReq { client: 99, req_id: i as u64, op });
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
        assert_eq!(sim.node_ref::<BackendProc>(be).fs().entry_count(), 0);
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
}
