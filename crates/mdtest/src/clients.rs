//! Simulated client processes: raw coordination clients (Fig 7), DUFS
//! clients (Figs 8–10), and native mdtest clients (the Basic Lustre /
//! Basic PVFS2 baselines).
//!
//! Every client process defaults to a closed loop: it keeps exactly one
//! operation in flight, as an mdtest process does. The raw coordination
//! clients can additionally run a depth-K pipeline (`zoo_acreate`-style
//! asynchronous sessions) — depth 1 reproduces the paper's synchronous loop
//! event for event. Client-side CPU is charged on a per-physical-node core
//! pool shared by all processes of that node (the paper ran up to 32
//! processes per 8-core node, co-located with a ZooKeeper server — client
//! CPU is a first-class bottleneck there).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;

use dufs_coord::{HashRing, ZkRequest, ZkResponse};
use dufs_core::fid::{Fid, FidGenerator};
use dufs_core::mapping::Md5Mapping;
use dufs_core::plan::{MetaOp, OpExec, PlanStep, StepResponse};
use dufs_simnet::{
    Ctx, LatencyHist, NodeId, Process, ServiceQueue, SimDuration, SimTime, TimerToken,
};
use dufs_zkstore::CreateMode;

use crate::costs;
use crate::msg::ClusterMsg;
use crate::workload::{NativeOp, Phase, WorkloadSpec};

/// Shared core pool of one physical client node.
#[derive(Clone)]
pub struct NodeCpu(Rc<RefCell<ServiceQueue>>);

impl NodeCpu {
    /// A pool with `cores` cores.
    pub fn new(cores: usize) -> Self {
        NodeCpu(Rc::new(RefCell::new(ServiceQueue::new(cores))))
    }

    /// Charge `cost_us` of CPU starting at `now`; returns the delay until
    /// the work completes (queueing + execution).
    pub fn charge(&self, now: SimTime, cost_us: f64) -> SimDuration {
        self.0.borrow_mut().complete_at(now, costs::us(cost_us)).since(now)
    }
}

/// The raw coordination operation types of Fig 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawOp {
    /// `zoo_create()` — a fresh znode per operation.
    Create,
    /// `zoo_get()` — repeated reads of one znode.
    Get,
    /// `zoo_set()` — repeated data replacement on one znode.
    Set,
    /// `zoo_delete()` — alternating create/delete; deletes are counted.
    Delete,
}

/// Timer token used to defer an action past a CPU-charge delay.
const T_ISSUE: TimerToken = 1;
/// Timer tokens ≥ this encode a request-timeout for request id
/// `token - T_REQ_TIMEOUT_BASE`.
const T_REQ_TIMEOUT_BASE: TimerToken = 1 << 32;
/// Per-request timeout (virtual). Generous: even a saturated PVFS2 mkdir
/// queue stays well under this.
const REQ_TIMEOUT: SimDuration = SimDuration::from_secs(20);

enum RawState {
    Connecting,
    SetupBench,
    SetupOwn,
    Barrier,
    Running,
    Finished,
}

/// One outstanding measured request of a pipelined session.
struct Inflight {
    req_id: u64,
    started: SimTime,
    /// Whether completing this request counts as one measured op (false for
    /// the create half of a Delete pair).
    counts: bool,
}

/// A Fig 7 client process: raw coordination ops, closed-loop at depth 1 or
/// pipelined with up to `depth` requests outstanding per session.
pub struct RawZkClientProc {
    id: u64,
    server: NodeId,
    controller: NodeId,
    cpu: NodeCpu,
    op: RawOp,
    items: usize,
    state: RawState,
    session: u64,
    next_req: u64,
    seq: usize,
    /// For Delete: whether the next write is the create half of the pair.
    delete_create_half: bool,
    done_ops: u64,
    errors: u64,
    /// Per-op latency (measured phase only).
    pub hist: LatencyHist,
    /// Request queued while the CPU charge elapses.
    staged: Option<ZkRequest>,
    /// Setup-stage request awaited (Connect and the two setup creates are
    /// always synchronous).
    awaiting: Option<u64>,
    /// Pipeline window: max measured requests outstanding (1 = the paper's
    /// synchronous loop).
    depth: usize,
    /// Outstanding measured requests, oldest first.
    inflight: VecDeque<Inflight>,
    /// Counted measured ops *issued* so far. Issuance is bounded by this
    /// rather than by completions so a pipelined session stops at exactly
    /// `items` ops.
    issued: usize,
}

impl RawZkClientProc {
    /// Create a raw client bound to `server`, reporting to `controller`.
    pub fn new(
        id: u64,
        server: NodeId,
        controller: NodeId,
        cpu: NodeCpu,
        op: RawOp,
        items: usize,
    ) -> Self {
        RawZkClientProc {
            id,
            server,
            controller,
            cpu,
            op,
            items,
            state: RawState::Connecting,
            session: 0,
            next_req: 0,
            seq: 0,
            delete_create_half: true,
            done_ops: 0,
            errors: 0,
            hist: LatencyHist::new(),
            staged: None,
            awaiting: None,
            depth: 1,
            inflight: VecDeque::new(),
            issued: 0,
        }
    }

    /// Pipeline `depth` measured requests per session (`zoo_acreate`-style).
    /// Depth 1 is the default synchronous loop.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub fn with_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "a session needs at least one outstanding slot");
        self.depth = depth;
        self
    }

    fn base_path(&self) -> String {
        format!("/bench/c{}", self.id)
    }

    /// (Re)issue the synchronous request of the current setup stage.
    fn send_setup(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        let create = |path, data| ZkRequest::Create { path, data, mode: CreateMode::Persistent };
        let req = match self.state {
            RawState::Connecting => ZkRequest::Connect,
            RawState::SetupBench => create("/bench".into(), Bytes::new()),
            RawState::SetupOwn => create(self.base_path(), Bytes::from_static(b"seed")),
            RawState::Barrier | RawState::Running | RawState::Finished => return,
        };
        self.send_req(ctx, req, false);
    }

    fn send_req(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, req: ZkRequest, charge_cpu: bool) {
        self.next_req += 1;
        self.awaiting = Some(self.next_req);
        let delay = if charge_cpu {
            self.cpu.charge(ctx.now(), costs::RAW_CLIENT_OP_US)
        } else {
            SimDuration::ZERO
        };
        ctx.set_timer(REQ_TIMEOUT + delay, T_REQ_TIMEOUT_BASE + self.next_req);
        ctx.send_after(
            self.server,
            ClusterMsg::ZkReq {
                client: self.id,
                req_id: self.next_req,
                session: self.session,
                req,
            },
            delay,
        );
    }

    /// Generate the next measured request, with whether its completion
    /// counts as a measured op. `None` once `items` counted ops have been
    /// *issued* (some may still be in flight).
    fn next_measured_req(&mut self) -> Option<(ZkRequest, bool)> {
        if self.issued >= self.items {
            return None;
        }
        let (req, counts) = match self.op {
            RawOp::Create => {
                let path = format!("{}/n{}", self.base_path(), self.seq);
                self.seq += 1;
                (
                    ZkRequest::Create {
                        path,
                        data: Bytes::from_static(b"x"),
                        mode: CreateMode::Persistent,
                    },
                    true,
                )
            }
            RawOp::Get => (ZkRequest::GetData { path: self.base_path(), watch: false }, true),
            RawOp::Set => (
                ZkRequest::SetData {
                    path: self.base_path(),
                    data: Bytes::from_static(b"payload-xxxxxxxx"),
                    version: None,
                },
                true,
            ),
            RawOp::Delete => {
                let path = format!("{}/n{}", self.base_path(), self.seq);
                if self.delete_create_half {
                    self.delete_create_half = false;
                    (
                        ZkRequest::Create {
                            path,
                            data: Bytes::new(),
                            mode: CreateMode::Persistent,
                        },
                        false,
                    )
                } else {
                    self.delete_create_half = true;
                    self.seq += 1;
                    (ZkRequest::Delete { path, version: None }, true)
                }
            }
        };
        if counts {
            self.issued += 1;
        }
        Some((req, counts))
    }

    /// Submit one measured request: charge client CPU, arm its timeout and
    /// append it to the pipeline window.
    fn send_measured(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, req: ZkRequest, counts: bool) {
        self.next_req += 1;
        let req_id = self.next_req;
        let delay = self.cpu.charge(ctx.now(), costs::RAW_CLIENT_OP_US);
        ctx.set_timer(REQ_TIMEOUT + delay, T_REQ_TIMEOUT_BASE + req_id);
        ctx.send_after(
            self.server,
            ClusterMsg::ZkReq { client: self.id, req_id, session: self.session, req },
            delay,
        );
        self.inflight.push_back(Inflight { req_id, started: ctx.now(), counts });
    }

    /// Top the pipeline window back up to `depth` outstanding requests; once
    /// the workload is exhausted *and* the window has drained, report the
    /// phase done. With depth 1 this is exactly the old issue-one-await-one
    /// loop.
    fn fill_window(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        while self.inflight.len() < self.depth {
            match self.next_measured_req() {
                Some((req, counts)) => self.send_measured(ctx, req, counts),
                None => break,
            }
        }
        if self.inflight.is_empty() {
            self.state = RawState::Finished;
            ctx.send(
                self.controller,
                ClusterMsg::PhaseDone {
                    client: self.id,
                    ops: self.done_ops,
                    errors: self.errors,
                    hist: std::mem::take(&mut self.hist),
                },
            );
        }
    }
}

impl Process<ClusterMsg> for RawZkClientProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        self.send_setup(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::ZkResp { resp, req_id, .. } => match self.state {
                // A setup stage moves on only on the reply it awaits: the
                // late reply to an attempt that timed out is not it.
                RawState::Connecting | RawState::SetupBench | RawState::SetupOwn
                    if self.awaiting != Some(req_id) => {}
                RawState::Connecting => {
                    if let ZkResponse::Connected { session } = resp {
                        self.session = session;
                        self.state = RawState::SetupBench;
                        self.send_setup(ctx);
                    } else {
                        // Election still settling: retry shortly.
                        self.staged = Some(ZkRequest::Connect);
                        ctx.set_timer(SimDuration::from_millis(200), T_ISSUE);
                    }
                }
                RawState::SetupBench => {
                    // NodeExists from the 255 other processes is expected.
                    self.state = RawState::SetupOwn;
                    self.send_setup(ctx);
                }
                RawState::SetupOwn => {
                    self.awaiting = None;
                    self.state = RawState::Barrier;
                    ctx.send(
                        self.controller,
                        ClusterMsg::PhaseDone {
                            client: self.id,
                            ops: 0,
                            errors: 0,
                            hist: LatencyHist::new(),
                        },
                    );
                }
                RawState::Running => {
                    // Match the completion against the pipeline window by
                    // request id (the live client matches by xid too):
                    // simulated link jitter may reorder two responses in
                    // flight, and a response for a timed-out request is
                    // simply gone from the window.
                    let Some(pos) = self.inflight.iter().position(|f| f.req_id == req_id) else {
                        return;
                    };
                    let entry = self.inflight.remove(pos).expect("position is in bounds");
                    if matches!(resp, ZkResponse::Error(_)) {
                        self.errors += 1;
                    }
                    if entry.counts {
                        self.done_ops += 1;
                        self.hist.record(ctx.now().since(entry.started));
                    }
                    self.fill_window(ctx);
                }
                RawState::Barrier | RawState::Finished => {}
            },
            ClusterMsg::StartPhase { .. } => {
                self.state = RawState::Running;
                self.fill_window(ctx);
            }
            other => panic!("raw client got {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, token: TimerToken) {
        if token == T_ISSUE {
            if let Some(req) = self.staged.take() {
                self.send_req(ctx, req, false);
            }
            return;
        }
        let req_id = token - T_REQ_TIMEOUT_BASE;
        if self.awaiting == Some(req_id) {
            // A setup stage timed out: retry it (measured ops are handled
            // through the window below). The measured phase starts when
            // the controller says so, not here.
            self.awaiting = None;
            self.send_setup(ctx);
            return;
        }
        if matches!(self.state, RawState::Running) {
            if let Some(pos) = self.inflight.iter().position(|f| f.req_id == req_id) {
                // A measured request timed out: drop it from the window,
                // count the error, and issue a replacement so the session
                // still performs `items` measured ops.
                let entry = self.inflight.remove(pos).expect("position is in bounds");
                self.errors += 1;
                if entry.counts {
                    self.issued -= 1;
                }
                self.fill_window(ctx);
            }
        }
    }
}

fn native_to_meta(op: &NativeOp) -> MetaOp {
    match op {
        NativeOp::Mkdir(p) => MetaOp::Mkdir { path: p.clone(), mode: 0o755 },
        NativeOp::Rmdir(p) => MetaOp::Rmdir { path: p.clone() },
        NativeOp::Create(p) => MetaOp::Create { path: p.clone(), mode: 0o644 },
        NativeOp::Unlink(p) => MetaOp::Unlink { path: p.clone() },
        NativeOp::StatDir(p) | NativeOp::StatFile(p) => MetaOp::Stat { path: p.clone() },
    }
}

enum DufsState {
    Connecting,
    SetupShared,
    SetupRoot,
    Barrier,
    Running,
    Finished,
}

/// State machine of a sharded delete. A directory's node can exist on two
/// shards (real copy on its owner, a lazily-materialized copy on its
/// children-owner), and deeper `mkdir -p` materialization can leave empty
/// ghost *chains* under the real copy too. The ghost leg runs first: if the
/// children-owner copy holds anything, the directory is genuinely
/// non-empty and the op fails before anything moved. Once it is gone, a
/// `NotEmpty` from the owner copy can only be ghost residue, which is
/// purged (BFS listing, then deepest-first deletes) before the final
/// retry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SDel {
    /// No sharded delete in flight.
    Idle,
    /// Awaiting the children-owner shard's delete of the ghost copy.
    GhostLeg { path: String, version: Option<u32> },
    /// Awaiting the owner shard's delete of the real copy.
    OwnerLeg { path: String, version: Option<u32>, ghost_removed: bool },
    /// Awaiting `GetChildren(expanding)` on the owner shard while walking
    /// the ghost residue blocking the real copy.
    PurgeExpand {
        path: String,
        version: Option<u32>,
        owner: usize,
        expanding: String,
        /// Directories still to list.
        expand: Vec<String>,
        /// Everything discovered, BFS order (parents before children).
        discovered: Vec<String>,
    },
    /// Awaiting one residue delete; `remaining` is deleted back to front
    /// (deepest first), then the real copy is retried.
    PurgeDelete { path: String, version: Option<u32>, owner: usize, remaining: Vec<String> },
    /// Awaiting the post-purge retry of the owner copy's delete.
    OwnerRetry,
}

/// A DUFS client process: runs the mdtest phases through the full DUFS op
/// planner (FUSE → coordination service → deterministic mapping →
/// back-end), with timing for every hop.
pub struct DufsClientProc {
    id: u64,
    proc_idx: usize,
    zk_server: NodeId,
    backend_nodes: Vec<NodeId>,
    controller: NodeId,
    cpu: NodeCpu,
    spec: WorkloadSpec,
    mapper: Md5Mapping,
    fids: FidGenerator,
    state: DufsState,
    /// Sharded namespace: the routing ring (`None` = one unsharded
    /// ensemble, the paper's deployment and the default).
    ring: Option<HashRing>,
    /// One coordination server per shard (the member this client talks
    /// to). Empty when unsharded — `zk_server` is the single target.
    shard_servers: Vec<NodeId>,
    /// One session per shard (unsharded runs only use index 0).
    sessions: Vec<u64>,
    /// Which shard is being connected during startup.
    connect_idx: usize,
    /// Sharded delete in flight (see `ShardedClient::delete` for the
    /// two-copy story this state machine mirrors).
    sdel: SDel,
    next_req: u64,
    phase: usize,
    ops: Vec<MetaOp>,
    op_idx: usize,
    exec: Option<OpExec>,
    /// Request id currently awaited (stale responses are dropped).
    awaiting: Option<u64>,
    done_ops: u64,
    errors: u64,
    /// Per-op latency of the current phase.
    pub hist: LatencyHist,
    op_started: SimTime,
    retry_connect: bool,
    /// Retry timed-out ops from scratch instead of failing them (used for
    /// whole-ensemble-outage runs: every workload op must eventually land
    /// so the recovered namespace matches an uncrashed control run).
    retry_ops: bool,
    /// FID minted for the op in flight: a retry re-plans the *same* op and
    /// must reuse it, or the retried create would write different znode
    /// data than the control run.
    op_fid: Option<Fid>,
}

impl DufsClientProc {
    /// Build DUFS client `proc_idx` (globally unique node/client id `id`).
    pub fn new(
        id: u64,
        proc_idx: usize,
        zk_server: NodeId,
        backend_nodes: Vec<NodeId>,
        controller: NodeId,
        cpu: NodeCpu,
        spec: WorkloadSpec,
    ) -> Self {
        let n = backend_nodes.len();
        DufsClientProc {
            id,
            proc_idx,
            zk_server,
            backend_nodes,
            controller,
            cpu,
            spec,
            mapper: Md5Mapping::new(n),
            fids: FidGenerator::new(id),
            state: DufsState::Connecting,
            ring: None,
            shard_servers: Vec::new(),
            sessions: vec![0],
            connect_idx: 0,
            sdel: SDel::Idle,
            next_req: 0,
            phase: 0,
            ops: Vec::new(),
            op_idx: 0,
            exec: None,
            awaiting: None,
            done_ops: 0,
            errors: 0,
            hist: LatencyHist::new(),
            op_started: SimTime::ZERO,
            retry_connect: false,
            retry_ops: false,
            op_fid: None,
        }
    }

    /// Retry timed-out operations until they complete (at-least-once
    /// submission; the namespace stays exactly-once because replayed
    /// creates hit `NodeExists` and replayed deletes hit `NoNode`). Off by
    /// default — fault-free runs and single-server-crash runs keep the
    /// fail-and-continue semantics the figures were calibrated with.
    pub fn with_retry(mut self, retry: bool) -> Self {
        self.retry_ops = retry;
        self
    }

    /// Route this client across a sharded namespace: `servers[s]` is the
    /// coordination server of shard `s` this client talks to, `ring` the
    /// routing table every client computes from the shared `ShardConfig`.
    /// Creates become `CreatePath` (a shard owns a path without
    /// necessarily owning its ancestors) and deletes clean up the
    /// children-owner shard's materialized copy, mirroring the live
    /// `ShardedClient` semantics.
    ///
    /// # Panics
    /// Panics if `servers` does not match the ring's shard count.
    pub fn with_shards(mut self, ring: HashRing, servers: Vec<NodeId>) -> Self {
        assert_eq!(ring.shard_count() as usize, servers.len(), "one server per shard");
        self.sessions = vec![0; servers.len()];
        self.ring = Some(ring);
        self.shard_servers = servers;
        self
    }

    /// Mint FIDs under `id` instead of this client's node id. FIDs are
    /// baked into znode data and pick the back-end server, so runs that
    /// must build identical namespaces across different node layouts
    /// (e.g. shard-count sweeps, where coordination servers shift every
    /// node id) need a layout-independent FID identity.
    pub fn with_fid_client(mut self, id: u64) -> Self {
        self.fids = FidGenerator::new(id);
        self
    }

    fn shard_count(&self) -> usize {
        self.shard_servers.len().max(1)
    }

    /// The shard a request routes to (always 0 when unsharded).
    fn shard_of(&self, req: &ZkRequest) -> usize {
        let Some(ring) = &self.ring else { return 0 };
        match req {
            ZkRequest::Create { path, .. }
            | ZkRequest::CreatePath { path, .. }
            | ZkRequest::Delete { path, .. }
            | ZkRequest::SetData { path, .. }
            | ZkRequest::GetData { path, .. }
            | ZkRequest::Exists { path, .. } => ring.route_path(path) as usize,
            ZkRequest::GetChildren { path, .. } | ZkRequest::GetChildrenData { path } => {
                ring.route_children(path) as usize
            }
            _ => 0,
        }
    }

    fn send_zk_shard(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        shard: usize,
        req: ZkRequest,
        delay: SimDuration,
    ) {
        self.next_req += 1;
        self.awaiting = Some(self.next_req);
        ctx.set_timer(REQ_TIMEOUT + delay, T_REQ_TIMEOUT_BASE + self.next_req);
        let target =
            if self.shard_servers.is_empty() { self.zk_server } else { self.shard_servers[shard] };
        ctx.send_after(
            target,
            ClusterMsg::ZkReq {
                client: self.id,
                req_id: self.next_req,
                session: self.sessions[shard],
                req,
            },
            delay,
        );
    }

    fn send_zk(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, req: ZkRequest, delay: SimDuration) {
        let shard = self.shard_of(&req);
        self.send_zk_shard(ctx, shard, req, delay);
    }

    /// An unmeasured setup create (`/mdtest`, the proc root). Sharded runs
    /// use `CreatePath`: the owning shard materializes missing ancestors.
    fn send_setup_create(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, path: String) {
        let data = dufs_core::meta::NodeMeta::dir(0o755).encode();
        let req = if self.ring.is_some() {
            ZkRequest::CreatePath { path, data, mode: CreateMode::Persistent }
        } else {
            ZkRequest::Create { path, data, mode: CreateMode::Persistent }
        };
        self.send_zk(ctx, req, SimDuration::ZERO);
    }

    fn dispatch_step(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, step: PlanStep, delay: SimDuration) {
        match step {
            PlanStep::Zk(req) => {
                let req = match (self.ring.is_some(), req) {
                    // A sharded create must materialize ancestors the
                    // owning shard has never seen (`mkdir -p`).
                    (true, ZkRequest::Create { path, data, mode }) => {
                        ZkRequest::CreatePath { path, data, mode }
                    }
                    (_, req) => req,
                };
                if let (Some(ring), ZkRequest::Delete { path, version }) = (&self.ring, &req) {
                    let owner = ring.route_path(path) as usize;
                    let kids = ring.route_children(path) as usize;
                    if kids != owner {
                        // Two-step sharded delete: the children-owner
                        // shard's materialized copy first, so a populated
                        // directory fails with NotEmpty before anything is
                        // touched; the owner copy follows on its response.
                        self.sdel = SDel::GhostLeg { path: path.clone(), version: *version };
                        let ghost = ZkRequest::Delete { path: path.clone(), version: None };
                        self.send_zk_shard(ctx, kids, ghost, delay);
                        return;
                    }
                }
                self.send_zk(ctx, req, delay);
            }
            PlanStep::Backend { backend, req } => {
                self.next_req += 1;
                self.awaiting = Some(self.next_req);
                ctx.set_timer(REQ_TIMEOUT + delay, T_REQ_TIMEOUT_BASE + self.next_req);
                ctx.send_after(
                    self.backend_nodes[backend],
                    ClusterMsg::BeReq {
                        client: self.id,
                        req_id: self.next_req,
                        req,
                        deep_path: true,
                    },
                    delay,
                );
            }
            PlanStep::Done(r) => {
                if r.is_err() {
                    self.errors += 1;
                }
                self.awaiting = None;
                self.done_ops += 1;
                self.hist.record(ctx.now().since(self.op_started));
                self.exec = None;
                self.start_next_op(ctx);
            }
        }
    }

    fn op_cpu_cost(&self) -> f64 {
        let phase = self.spec.phases[self.phase];
        match phase {
            Phase::FileCreate | Phase::FileStat | Phase::FileRemove => {
                costs::DUFS_META_OP_US + costs::DUFS_BACKEND_EXTRA_US
            }
            _ => costs::DUFS_META_OP_US,
        }
    }

    fn start_next_op(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        if self.op_idx >= self.ops.len() {
            self.state = DufsState::Barrier;
            ctx.send(
                self.controller,
                ClusterMsg::PhaseDone {
                    client: self.id,
                    ops: self.done_ops,
                    errors: self.errors,
                    hist: std::mem::take(&mut self.hist),
                },
            );
            return;
        }
        self.op_idx += 1;
        self.op_started = ctx.now();
        self.op_fid = None;
        self.issue_op(ctx);
    }

    /// Handle one mid-flight leg of a sharded delete, if that is what
    /// `resp` answers. Returns the response to feed the planner, or `None`
    /// if another leg was just issued and the op is still in flight.
    fn sharded_delete_leg(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        resp: ZkResponse,
    ) -> Option<ZkResponse> {
        use dufs_zkstore::ZkError;
        match std::mem::replace(&mut self.sdel, SDel::Idle) {
            SDel::Idle => Some(resp),
            SDel::GhostLeg { path, version } => match resp {
                ZkResponse::Deleted | ZkResponse::Error(ZkError::NoNode) => {
                    let ghost_removed = matches!(resp, ZkResponse::Deleted);
                    let owner =
                        self.ring.as_ref().expect("sharded delete").route_path(&path) as usize;
                    let req = ZkRequest::Delete { path: path.clone(), version };
                    self.sdel = SDel::OwnerLeg { path, version, ghost_removed };
                    self.send_zk_shard(ctx, owner, req, SimDuration::ZERO);
                    None
                }
                // NotEmpty and friends fail the op before anything moved.
                other => Some(other),
            },
            SDel::OwnerLeg { path, version, ghost_removed } => match resp {
                // The directory only ever existed as a materialized copy;
                // the ghost leg's removal completed the delete.
                ZkResponse::Error(ZkError::NoNode) if ghost_removed => Some(ZkResponse::Deleted),
                // The ghost leg certified the directory has no real
                // children, so only materialized ghost chains (left by
                // deeper `mkdir -p`s that executed on this shard) block
                // the real copy. Walk and purge them, then retry.
                ZkResponse::Error(ZkError::NotEmpty) => {
                    let owner =
                        self.ring.as_ref().expect("sharded delete").route_path(&path) as usize;
                    let req = ZkRequest::GetChildren { path: path.clone(), watch: false };
                    self.sdel = SDel::PurgeExpand {
                        expanding: path.clone(),
                        path,
                        version,
                        owner,
                        expand: Vec::new(),
                        discovered: Vec::new(),
                    };
                    self.send_zk_shard(ctx, owner, req, SimDuration::ZERO);
                    None
                }
                other => Some(other),
            },
            SDel::PurgeExpand { path, version, owner, expanding, mut expand, mut discovered } => {
                match resp {
                    ZkResponse::Children { names, .. } => {
                        for n in names {
                            let child = if expanding == "/" {
                                format!("/{n}")
                            } else {
                                format!("{expanding}/{n}")
                            };
                            expand.push(child.clone());
                            discovered.push(child);
                        }
                    }
                    ZkResponse::Error(ZkError::NoNode) => {}
                    other => return Some(other),
                }
                if let Some(next) = expand.pop() {
                    let req = ZkRequest::GetChildren { path: next.clone(), watch: false };
                    self.sdel = SDel::PurgeExpand {
                        path,
                        version,
                        owner,
                        expanding: next,
                        expand,
                        discovered,
                    };
                    self.send_zk_shard(ctx, owner, req, SimDuration::ZERO);
                    return None;
                }
                self.purge_delete_next(ctx, path, version, owner, discovered);
                None
            }
            SDel::PurgeDelete { path, version, owner, remaining } => match resp {
                ZkResponse::Deleted | ZkResponse::Error(ZkError::NoNode) => {
                    self.purge_delete_next(ctx, path, version, owner, remaining);
                    None
                }
                other => Some(other),
            },
            SDel::OwnerRetry => match resp {
                // Everything — ghosts and real copy — is gone.
                ZkResponse::Error(ZkError::NoNode) => Some(ZkResponse::Deleted),
                other => Some(other),
            },
        }
    }

    /// Delete the next discovered ghost (deepest first); once all are
    /// gone, retry the owner copy's delete.
    fn purge_delete_next(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        path: String,
        version: Option<u32>,
        owner: usize,
        mut remaining: Vec<String>,
    ) {
        if let Some(victim) = remaining.pop() {
            let req = ZkRequest::Delete { path: victim, version: None };
            self.sdel = SDel::PurgeDelete { path, version, owner, remaining };
            self.send_zk_shard(ctx, owner, req, SimDuration::ZERO);
        } else {
            let req = ZkRequest::Delete { path, version };
            self.sdel = SDel::OwnerRetry;
            self.send_zk_shard(ctx, owner, req, SimDuration::ZERO);
        }
    }

    /// (Re)issue the current op (`ops[op_idx - 1]`) from its first plan
    /// step. First issue mints a fresh FID on demand; a retry reuses the
    /// cached one so both attempts describe the identical file.
    fn issue_op(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        self.sdel = SDel::Idle;
        let op = self.ops[self.op_idx - 1].clone();
        let delay = self.cpu.charge(ctx.now(), self.op_cpu_cost());
        let fids = &mut self.fids;
        let cached = &mut self.op_fid;
        let (exec, step) =
            OpExec::start(op, || *cached.get_or_insert_with(|| fids.next_fid()), &self.mapper);
        self.exec = Some(exec);
        self.dispatch_step(ctx, step, delay);
    }

    fn feed(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, resp: StepResponse) {
        let mut exec = self.exec.take().expect("an op is in flight");
        let step = exec.feed(resp, &self.mapper);
        self.exec = Some(exec);
        self.dispatch_step(ctx, step, SimDuration::ZERO);
    }
}

impl Process<ClusterMsg> for DufsClientProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        self.send_zk_shard(ctx, 0, ZkRequest::Connect, SimDuration::ZERO);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::ZkResp { resp, req_id, .. } => match self.state {
                DufsState::Connecting => {
                    let _ = req_id;
                    if let ZkResponse::Connected { session } = resp {
                        self.sessions[self.connect_idx] = session;
                        self.connect_idx += 1;
                        if self.connect_idx < self.shard_count() {
                            // Sharded: one session per shard, opened in turn.
                            let idx = self.connect_idx;
                            self.send_zk_shard(ctx, idx, ZkRequest::Connect, SimDuration::ZERO);
                            return;
                        }
                        self.state = DufsState::SetupShared;
                        self.send_setup_create(ctx, "/mdtest".into());
                    } else {
                        self.retry_connect = true;
                        ctx.set_timer(SimDuration::from_millis(200), T_ISSUE);
                    }
                }
                DufsState::SetupShared => {
                    // NodeExists is fine: 255 sibling processes race us.
                    self.state = DufsState::SetupRoot;
                    self.send_setup_create(ctx, WorkloadSpec::proc_root(self.proc_idx));
                }
                DufsState::SetupRoot => {
                    self.state = DufsState::Barrier;
                    ctx.send(
                        self.controller,
                        ClusterMsg::PhaseDone {
                            client: self.id,
                            ops: 0,
                            errors: 0,
                            hist: LatencyHist::new(),
                        },
                    );
                }
                DufsState::Running => {
                    if self.awaiting == Some(req_id) {
                        if let Some(resp) = self.sharded_delete_leg(ctx, resp) {
                            self.feed(ctx, StepResponse::Zk(resp));
                        }
                    }
                }
                DufsState::Barrier | DufsState::Finished => {}
            },
            ClusterMsg::BeResp { resp, req_id, .. } => {
                if matches!(self.state, DufsState::Running) && self.awaiting == Some(req_id) {
                    self.feed(ctx, StepResponse::Backend(resp));
                }
            }
            ClusterMsg::StartPhase { idx } => {
                if idx >= self.spec.phases.len() {
                    self.state = DufsState::Finished;
                    return;
                }
                self.phase = idx;
                self.ops = self
                    .spec
                    .ops_for(self.proc_idx, self.spec.phases[idx])
                    .iter()
                    .map(native_to_meta)
                    .collect();
                self.op_idx = 0;
                self.done_ops = 0;
                self.errors = 0;
                self.hist = LatencyHist::new();
                self.state = DufsState::Running;
                self.start_next_op(ctx);
            }
            other => panic!("dufs client got {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, token: TimerToken) {
        if token == T_ISSUE {
            if self.retry_connect {
                self.retry_connect = false;
                let idx = self.connect_idx.min(self.shard_count() - 1);
                self.send_zk_shard(ctx, idx, ZkRequest::Connect, SimDuration::ZERO);
            }
            return;
        }
        // Request timeout: if still awaited, fail the in-flight step so the
        // op completes with an error and the loop continues (the live
        // ZooKeeper client library does the same).
        let req_id = token - T_REQ_TIMEOUT_BASE;
        if self.awaiting == Some(req_id) {
            self.awaiting = None;
            match self.state {
                DufsState::Running if self.retry_ops && self.exec.is_some() => {
                    // Outage mode: throw the half-done plan away and replay
                    // the whole op (same FID). Whatever the lost attempt
                    // already applied surfaces as NodeExists/NoNode, which
                    // leaves the namespace exactly as if it ran once.
                    self.exec = None;
                    self.issue_op(ctx);
                }
                DufsState::Running if self.exec.is_some() => {
                    self.sdel = SDel::Idle;
                    self.feed(
                        ctx,
                        StepResponse::Zk(ZkResponse::Error(dufs_zkstore::ZkError::ConnectionLoss)),
                    );
                }
                DufsState::Connecting => {
                    let idx = self.connect_idx.min(self.shard_count() - 1);
                    self.send_zk_shard(ctx, idx, ZkRequest::Connect, SimDuration::ZERO);
                }
                DufsState::SetupShared | DufsState::SetupRoot => {
                    // Restart setup from the top; creates tolerate Exists.
                    self.state = DufsState::Connecting;
                    self.connect_idx = 0;
                    self.send_zk_shard(ctx, 0, ZkRequest::Connect, SimDuration::ZERO);
                }
                _ => {}
            }
        }
    }
}

enum NativeState {
    SetupShared,
    SetupRoot,
    Barrier,
    Running,
    Finished,
}

/// A native mdtest client process (Basic Lustre / Basic PVFS2): the same
/// workload issued directly against one back-end filesystem.
pub struct NativeClientProc {
    id: u64,
    proc_idx: usize,
    backend: NodeId,
    controller: NodeId,
    cpu: NodeCpu,
    spec: WorkloadSpec,
    state: NativeState,
    next_req: u64,
    phase: usize,
    ops: Vec<NativeOp>,
    op_idx: usize,
    done_ops: u64,
    errors: u64,
    /// Per-op latency of the current phase.
    pub hist: LatencyHist,
    op_started: SimTime,
}

impl NativeClientProc {
    /// Build native client `proc_idx` against `backend`.
    pub fn new(
        id: u64,
        proc_idx: usize,
        backend: NodeId,
        controller: NodeId,
        cpu: NodeCpu,
        spec: WorkloadSpec,
    ) -> Self {
        NativeClientProc {
            id,
            proc_idx,
            backend,
            controller,
            cpu,
            spec,
            state: NativeState::SetupShared,
            next_req: 0,
            phase: 0,
            ops: Vec::new(),
            op_idx: 0,
            done_ops: 0,
            errors: 0,
            hist: LatencyHist::new(),
            op_started: SimTime::ZERO,
        }
    }

    fn send_native(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, op: NativeOp, delay: SimDuration) {
        self.next_req += 1;
        ctx.send_after(
            self.backend,
            ClusterMsg::NativeReq { client: self.id, req_id: self.next_req, op },
            delay,
        );
    }

    fn start_next_op(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        if self.op_idx >= self.ops.len() {
            self.state = NativeState::Barrier;
            ctx.send(
                self.controller,
                ClusterMsg::PhaseDone {
                    client: self.id,
                    ops: self.done_ops,
                    errors: self.errors,
                    hist: std::mem::take(&mut self.hist),
                },
            );
            return;
        }
        let op = self.ops[self.op_idx].clone();
        self.op_idx += 1;
        self.op_started = ctx.now();
        let delay = self.cpu.charge(ctx.now(), costs::NATIVE_CLIENT_OP_US);
        self.send_native(ctx, op, delay);
    }
}

impl Process<ClusterMsg> for NativeClientProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        self.send_native(ctx, NativeOp::Mkdir("/mdtest".into()), SimDuration::ZERO);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::NativeResp { ok, .. } => match self.state {
                NativeState::SetupShared => {
                    self.state = NativeState::SetupRoot;
                    self.send_native(
                        ctx,
                        NativeOp::Mkdir(WorkloadSpec::proc_root(self.proc_idx)),
                        SimDuration::ZERO,
                    );
                }
                NativeState::SetupRoot => {
                    self.state = NativeState::Barrier;
                    ctx.send(
                        self.controller,
                        ClusterMsg::PhaseDone {
                            client: self.id,
                            ops: 0,
                            errors: 0,
                            hist: LatencyHist::new(),
                        },
                    );
                }
                NativeState::Running => {
                    if !ok {
                        self.errors += 1;
                    }
                    self.done_ops += 1;
                    self.hist.record(ctx.now().since(self.op_started));
                    self.start_next_op(ctx);
                }
                NativeState::Barrier | NativeState::Finished => {}
            },
            ClusterMsg::StartPhase { idx } => {
                if idx >= self.spec.phases.len() {
                    self.state = NativeState::Finished;
                    return;
                }
                self.phase = idx;
                self.ops = self.spec.ops_for(self.proc_idx, self.spec.phases[idx]);
                self.op_idx = 0;
                self.done_ops = 0;
                self.errors = 0;
                self.hist = LatencyHist::new();
                self.state = NativeState::Running;
                self.start_next_op(ctx);
            }
            other => panic!("native client got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_simnet::{FixedLatency, Sim};

    /// Coordination server and phase controller in one: answers every
    /// request at once, except that it loses its first reply to the
    /// `/bench` create, and notes what it saw when.
    #[derive(Default)]
    struct Hub {
        dropped_bench_reply: bool,
        started: bool,
        measured_before_start: usize,
        measured: usize,
        done: Option<(u64, u64)>,
    }

    impl Process<ClusterMsg> for Hub {
        fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, from: NodeId, msg: ClusterMsg) {
            match msg {
                ClusterMsg::ZkReq { client, req_id, req, .. } => {
                    let resp = match req {
                        ZkRequest::Connect => ZkResponse::Connected { session: 1 },
                        ZkRequest::Create { path, .. } => {
                            if path == "/bench" && !self.dropped_bench_reply {
                                self.dropped_bench_reply = true;
                                return;
                            }
                            if path.starts_with("/bench/c3/") {
                                self.measured += 1;
                                self.measured_before_start += usize::from(!self.started);
                            }
                            ZkResponse::Created { path }
                        }
                        other => panic!("unexpected request {other:?}"),
                    };
                    ctx.send(from, ClusterMsg::ZkResp { client, req_id, resp });
                }
                ClusterMsg::PhaseDone { .. } if !self.started => {
                    self.started = true;
                    ctx.send(from, ClusterMsg::StartPhase { idx: 0 });
                }
                ClusterMsg::PhaseDone { ops, errors, .. } => {
                    assert_eq!(self.done.replace((ops, errors)), None, "phase reported twice");
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
    }

    /// A setup create whose reply is lost is retried after its timeout; the
    /// measured phase still starts at the controller's word and runs
    /// exactly `items` ops.
    #[test]
    fn a_timed_out_setup_create_is_retried_not_answered_with_measured_ops() {
        let items = 5;
        let mut sim: Sim<ClusterMsg> = Sim::new(1, FixedLatency::micros(50));
        let hub = sim.add_node(Hub::default());
        for _ in 0..2 {
            sim.add_node(Hub::default()); // the client's id doubles as its node: 3
        }
        let cpu = NodeCpu::new(costs::NODE_CORES);
        let client = sim.add_node(RawZkClientProc::new(3, hub, hub, cpu, RawOp::Create, items));
        assert_eq!(client, NodeId(3));
        sim.run_until(SimTime::from_secs(60));
        let h = sim.node_ref::<Hub>(hub);
        assert!(h.dropped_bench_reply, "the fault was never injected");
        assert_eq!(h.measured_before_start, 0, "measured requests left before StartPhase");
        assert_eq!((h.measured, h.done), (items, Some((items as u64, 0))));
    }
}
