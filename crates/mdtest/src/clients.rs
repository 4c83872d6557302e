//! The simulated mdtest client: one process type, [`ClientProc`], runs
//! every system under test — raw coordination ops (Fig 7), DUFS
//! (Figs 8–10) and native mdtest (the Basic Lustre / Basic PVFS2
//! baselines).
//!
//! `ClientProc` owns what every client does the same way: set-up (one
//! session per shard when there is a coordination service, then the shared
//! root, then the process root — each stage advances only on the reply it
//! awaits and is retried on timeout), the controller's barrier report,
//! phase start and stand-down, request ids with one timeout timer per
//! request, per-op latency, op and error counts, and the client-side CPU
//! charge. CPU is charged on a per-physical-node core pool shared by all
//! processes of that node (the paper ran up to 32 processes per 8-core
//! node, co-located with a ZooKeeper server — client CPU is a first-class
//! bottleneck there). What differs is the [`Source`] of ops:
//! * raw: [`RawOp`] requests, up to `depth` outstanding per session
//!   (`zoo_acreate`-style; depth 1 is the paper's synchronous loop, event
//!   for event);
//! * DUFS: each mdtest op runs as one future of the DUFS op planner
//!   ([`plan::run`]: FUSE → coordination service → deterministic mapping →
//!   back-end), its coordination requests routed across shards by the live
//!   client's [`route`];
//! * native: [`NativeOp`]s straight at one back-end, with no timeout.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use bytes::Bytes;

use dufs_coord::session::poll_once;
use dufs_coord::sharded::{route, ShardIo, TxnIds};
use dufs_coord::{HashRing, ZkRequest, ZkResponse};
use dufs_core::fid::{Fid, FidGenerator};
use dufs_core::mapping::Md5Mapping;
use dufs_core::meta::NodeMeta;
use dufs_core::plan::{self, BackendReq, BackendResp, MetaOp, PlanIo};
use dufs_simnet::{
    Ctx, LatencyHist, NodeId, Process, ServiceQueue, SimDuration, SimTime, TimerToken,
};
use dufs_zkstore::{CreateMode, ZkError};

use crate::costs;
use crate::msg::ClusterMsg;
use crate::workload::{NativeOp, Phase, WorkloadSpec};

/// Shared core pool of one physical client node.
#[derive(Clone)]
pub(crate) struct NodeCpu(Rc<RefCell<ServiceQueue>>);

impl NodeCpu {
    /// A pool with `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        NodeCpu(Rc::new(RefCell::new(ServiceQueue::new(cores))))
    }

    /// Charge `cost_us` of CPU starting at `now`; returns the delay until
    /// the work completes (queueing + execution).
    fn charge(&self, now: SimTime, cost_us: f64) -> SimDuration {
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

/// Timer token of a connect retry while an election settles.
const T_RETRY: TimerToken = 1;
/// Timer tokens ≥ this encode a request-timeout for request id
/// `token - T_REQ_TIMEOUT_BASE`.
const T_REQ_TIMEOUT_BASE: TimerToken = 1 << 32;
/// Per-request timeout (virtual). Generous: even a saturated PVFS2 mkdir
/// queue stays well under this.
const REQ_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// Where a client process sits on the testbed.
pub(crate) struct Seat {
    /// Client id, equal to the process's sim node id (replies address it).
    pub(crate) id: u64,
    /// The phase controller.
    pub(crate) controller: NodeId,
    /// The core pool of the process's physical node.
    pub(crate) cpu: NodeCpu,
    /// The coordination server this process talks to, one per shard
    /// (empty without a coordination service).
    pub(crate) servers: Vec<NodeId>,
    /// Back-end mounts, by index.
    pub(crate) backends: Vec<NodeId>,
}

/// A request as an op source words it; `ClientProc` picks the node, the
/// session and the request id.
enum Req {
    /// To the coordination server of shard `.0`.
    Zk(usize, ZkRequest),
    /// To back-end mount `.0`.
    Be(usize, BackendReq),
    /// To the one native filesystem.
    Native(NativeOp),
}

/// What an op does next.
enum Step {
    /// Send this request.
    Send(Req),
    /// The op is over; `ok` is false for a failed op.
    Done { ok: bool },
}

/// What a timed-out request does to its op.
enum Resume {
    /// Give the op up as failed.
    Abandon,
    /// The op was planned again from scratch: charge its CPU again, then
    /// take this first step.
    Replanned(Step),
    /// Go on with this step.
    Go(Step),
}

/// Where a client process is in its run.
enum Stage {
    /// Opening the session to shard `.0`.
    Connect(usize),
    /// Creating the source's root `.0`: the shared root, then this
    /// process's.
    Root(usize),
    /// Set up: running a phase, or waiting at the barrier for the next.
    Phases,
}

/// One op in flight.
struct Slot {
    /// The request of the op currently awaited.
    req_id: u64,
    started: SimTime,
    /// Whether finishing the op counts as a measured op (false for the
    /// create half of a raw Delete pair).
    counts: bool,
}

/// A simulated mdtest client process: the set-up/phase/timeout machine
/// over one op [`Source`].
pub(crate) struct ClientProc {
    seat: Seat,
    source: Source,
    stage: Stage,
    /// One session per shard.
    sessions: Vec<u64>,
    next_req: u64,
    /// The set-up request awaited; replies to any other are stale.
    awaiting: Option<u64>,
    /// Ops in flight, oldest first.
    window: VecDeque<Slot>,
    /// Measured ops, failed ops and per-op latency of the current phase.
    ops: u64,
    errors: u64,
    hist: LatencyHist,
}

impl ClientProc {
    /// A client at `seat` running the ops of `source`.
    pub(crate) fn new(seat: Seat, source: Source) -> Self {
        let stage = if seat.servers.is_empty() { Stage::Root(0) } else { Stage::Connect(0) };
        ClientProc {
            sessions: vec![0; seat.servers.len()],
            seat,
            source,
            stage,
            next_req: 0,
            awaiting: None,
            window: VecDeque::new(),
            ops: 0,
            errors: 0,
            hist: LatencyHist::new(),
        }
    }

    /// Send `req` after `delay` and arm its timeout (a native filesystem
    /// call has none); returns its request id.
    fn send(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, req: Req, delay: SimDuration) -> u64 {
        self.next_req += 1;
        let req_id = self.next_req;
        let (to, msg) = match req {
            Req::Zk(shard, req) => {
                let (client, session) = (self.seat.id, self.sessions[shard]);
                (self.seat.servers[shard], ClusterMsg::ZkReq { client, req_id, session, req })
            }
            Req::Be(b, req) => {
                (self.seat.backends[b], ClusterMsg::BeReq { req_id, req, deep_path: true })
            }
            Req::Native(op) => (self.seat.backends[0], ClusterMsg::NativeReq { req_id, op }),
        };
        if !matches!(msg, ClusterMsg::NativeReq { .. }) {
            ctx.set_timer(REQ_TIMEOUT + delay, T_REQ_TIMEOUT_BASE + req_id);
        }
        ctx.send_after(to, msg, delay);
        req_id
    }

    /// (Re)issue the request of the current set-up stage; past the last
    /// root, report set-up done.
    fn send_setup(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        let req = match self.stage {
            Stage::Connect(shard) => Req::Zk(shard, ZkRequest::Connect),
            Stage::Root(i) => match self.source.root(i) {
                Some(req) => req,
                None => {
                    self.stage = Stage::Phases;
                    return self.report(ctx);
                }
            },
            Stage::Phases => return,
        };
        self.awaiting = Some(self.send(ctx, req, SimDuration::ZERO));
    }

    /// The reply the current set-up stage awaited: move on to the next.
    fn setup_reply(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, msg: ClusterMsg) {
        self.awaiting = None;
        self.stage = match (&self.stage, msg) {
            (
                &Stage::Connect(shard),
                ClusterMsg::ZkResp { resp: ZkResponse::Connected { session }, .. },
            ) => {
                self.sessions[shard] = session;
                if shard + 1 < self.sessions.len() {
                    Stage::Connect(shard + 1)
                } else {
                    Stage::Root(0)
                }
            }
            (Stage::Connect(_), _) => {
                // Election still settling: retry shortly.
                return ctx.set_timer(SimDuration::from_millis(200), T_RETRY);
            }
            // NodeExists from the sibling processes is expected.
            (&Stage::Root(i), msg) => match self.source.reply(msg) {
                Step::Done { .. } => Stage::Root(i + 1),
                // A DUFS root's routed create goes on.
                Step::Send(req) => {
                    self.awaiting = Some(self.send(ctx, req, SimDuration::ZERO));
                    return;
                }
            },
            (Stage::Phases, _) => unreachable!("nothing is awaited once set up"),
        };
        self.send_setup(ctx);
    }

    /// Tell the controller this process is set up or has finished its
    /// share of the phase.
    fn report(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        let (ops, errors, hist) = (self.ops, self.errors, std::mem::take(&mut self.hist));
        ctx.send(self.seat.controller, ClusterMsg::PhaseDone { ops, errors, hist });
    }

    fn slot(&self, req_id: u64) -> Option<usize> {
        self.window.iter().position(|s| s.req_id == req_id)
    }

    /// Start ops until the window is full or the phase has none left; once
    /// the window has drained, report the phase done.
    fn fill(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        while self.window.len() < self.source.depth() {
            let Some((step, counts)) = self.source.next_op() else { break };
            let delay = self.seat.cpu.charge(ctx.now(), self.source.cost());
            self.window.push_back(Slot { req_id: 0, started: ctx.now(), counts });
            self.advance(ctx, self.window.len() - 1, step, delay);
        }
        if self.window.is_empty() {
            self.report(ctx);
        }
    }

    /// Take the op in window slot `pos` one step: send its next request
    /// after `delay`, or retire it into the phase's counts.
    fn advance(
        &mut self,
        ctx: &mut Ctx<'_, ClusterMsg>,
        pos: usize,
        step: Step,
        delay: SimDuration,
    ) {
        match step {
            Step::Send(req) => self.window[pos].req_id = self.send(ctx, req, delay),
            Step::Done { ok } => {
                let slot = self.window.remove(pos).expect("position is in bounds");
                self.errors += u64::from(!ok);
                if slot.counts {
                    self.ops += 1;
                    self.hist.record(ctx.now().since(slot.started));
                }
            }
        }
    }
}

impl Process<ClusterMsg> for ClientProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ClusterMsg>) {
        self.send_setup(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, _from: NodeId, msg: ClusterMsg) {
        let req_id = match msg {
            ClusterMsg::ZkResp { req_id, .. }
            | ClusterMsg::BeResp { req_id, .. }
            | ClusterMsg::NativeResp { req_id, .. } => req_id,
            ClusterMsg::StartPhase { idx } => {
                // An index past the last phase stands the process down.
                if self.source.start_phase(idx) {
                    (self.ops, self.errors) = (0, 0);
                    self.fill(ctx);
                }
                return;
            }
            other => panic!("client got {other:?}"),
        };
        if self.awaiting == Some(req_id) {
            self.setup_reply(ctx, msg);
        } else if let Some(pos) = self.slot(req_id) {
            // Matched by request id (the live client matches by xid too):
            // simulated link jitter may reorder two responses in flight,
            // and the response to a timed-out request is simply stale.
            let step = self.source.reply(msg);
            self.advance(ctx, pos, step, SimDuration::ZERO);
            self.fill(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, token: TimerToken) {
        if token == T_RETRY {
            return self.send_setup(ctx);
        }
        let req_id = token - T_REQ_TIMEOUT_BASE;
        if self.awaiting == Some(req_id) {
            // A set-up stage timed out: retry it. The measured phase starts
            // when the controller says so, not here.
            return self.send_setup(ctx);
        }
        let Some(pos) = self.slot(req_id) else { return };
        match self.source.timed_out(self.window[pos].counts) {
            Resume::Abandon => {
                self.window.remove(pos);
                self.errors += 1;
            }
            Resume::Replanned(step) => {
                let delay = self.seat.cpu.charge(ctx.now(), self.source.cost());
                self.advance(ctx, pos, step, delay);
            }
            Resume::Go(step) => self.advance(ctx, pos, step, SimDuration::ZERO),
        }
        self.fill(ctx);
    }
}

/// The ops a client process runs.
pub(crate) enum Source {
    /// Raw coordination ops (Fig 7).
    Raw(RawOps),
    /// mdtest through DUFS.
    Dufs(Box<DufsOps>),
    /// mdtest straight at a native filesystem.
    Native(Script),
}

impl Source {
    /// Ops this source keeps in flight at once.
    fn depth(&self) -> usize {
        match self {
            Source::Raw(raw) => raw.depth,
            Source::Dufs(_) | Source::Native(_) => 1,
        }
    }

    /// Client CPU of one op in the current phase, µs.
    fn cost(&self) -> f64 {
        match self {
            Source::Raw(_) => costs::RAW_CLIENT_OP_US,
            Source::Dufs(d) => match d.script.phase {
                Phase::FileCreate | Phase::FileStat | Phase::FileRemove => {
                    costs::DUFS_META_OP_US + costs::DUFS_BACKEND_EXTRA_US
                }
                _ => costs::DUFS_META_OP_US,
            },
            Source::Native(_) => costs::NATIVE_CLIENT_OP_US,
        }
    }

    /// Start the unmeasured create of set-up root `i` (`None` past the
    /// last).
    fn root(&mut self, i: usize) -> Option<Req> {
        Some(match self {
            Source::Raw(raw) => {
                let (path, data) = match i {
                    0 => ("/bench".to_string(), Bytes::new()),
                    1 => (raw.base.clone(), Bytes::from_static(b"seed")),
                    _ => return None,
                };
                Req::Zk(0, ZkRequest::Create { path, data, mode: CreateMode::Persistent })
            }
            Source::Dufs(d) => {
                let path = d.script.root(i)?;
                d.root(path)
            }
            Source::Native(script) => Req::Native(NativeOp::Mkdir(script.root(i)?)),
        })
    }

    /// Begin phase `idx`; false if there is no such phase.
    fn start_phase(&mut self, idx: usize) -> bool {
        match self {
            Source::Raw(_) => idx == 0,
            Source::Dufs(d) => d.script.start_phase(idx),
            Source::Native(script) => script.start_phase(idx),
        }
    }

    /// The first step of the phase's next op and whether it counts as a
    /// measured op; `None` once the phase has none left.
    fn next_op(&mut self) -> Option<(Step, bool)> {
        match self {
            Source::Raw(raw) => raw.next_op(),
            Source::Dufs(d) => {
                let op = native_to_meta(d.script.ops.next()?);
                d.fid = matches!(op, MetaOp::Create { .. }).then(|| d.fids.next_fid());
                d.op = Some(op);
                Some((d.start(d.plan()), true))
            }
            Source::Native(script) => Some((Step::Send(Req::Native(script.ops.next()?)), true)),
        }
    }

    /// The reply to the request an op in flight awaited.
    fn reply(&mut self, msg: ClusterMsg) -> Step {
        match (self, msg) {
            (Source::Raw(_), ClusterMsg::ZkResp { resp, .. }) => {
                Step::Done { ok: !matches!(resp, ZkResponse::Error(_)) }
            }
            (Source::Dufs(d), msg) => d.reply(msg),
            (Source::Native(_), ClusterMsg::NativeResp { ok, .. }) => Step::Done { ok },
            (_, other) => unreachable!("reply of another kind of request: {other:?}"),
        }
    }

    /// The request an op in flight awaited timed out.
    fn timed_out(&mut self, counts: bool) -> Resume {
        match self {
            Source::Raw(raw) => {
                // Issue a replacement, so the session still performs
                // `items` measured ops.
                raw.issued -= usize::from(counts);
                Resume::Abandon
            }
            // Outage mode: throw the half-done plan away and replay the
            // whole op (same FID). Whatever the lost attempt already
            // applied surfaces as NodeExists/NoNode, which leaves the
            // namespace exactly as if it ran once; a 2PC it had prepared is
            // left to a later sweep.
            Source::Dufs(d) if d.retry => Resume::Replanned(d.start(d.plan())),
            Source::Dufs(d) => Resume::Go(d.lost()),
            Source::Native(_) => unreachable!("native filesystem calls have no timeout"),
        }
    }
}

/// Raw coordination ops (Fig 7): closed-loop at depth 1, or pipelined
/// with up to `depth` requests outstanding per session.
pub(crate) struct RawOps {
    op: RawOp,
    /// This process's znode, `/bench/c{id}`.
    base: String,
    items: usize,
    depth: usize,
    /// Counted ops *issued* so far. Issuance is bounded by this rather than
    /// by completions, so a pipelined session stops at exactly `items` ops.
    issued: usize,
    seq: usize,
    /// For Delete: whether the next write is the create half of the pair.
    create_half: bool,
}

impl RawOps {
    /// `items` measured `op`s by client `id`, up to `depth` outstanding.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub(crate) fn new(id: u64, op: RawOp, items: usize, depth: usize) -> Self {
        assert!(depth >= 1, "a session needs at least one outstanding slot");
        let base = format!("/bench/c{id}");
        RawOps { op, base, items, depth, issued: 0, seq: 0, create_half: true }
    }

    fn next_op(&mut self) -> Option<(Step, bool)> {
        if self.issued >= self.items {
            return None;
        }
        let create = |path, data| ZkRequest::Create { path, data, mode: CreateMode::Persistent };
        let node = format!("{}/n{}", self.base, self.seq);
        let (req, counts) = match self.op {
            RawOp::Create => {
                self.seq += 1;
                (create(node, Bytes::from_static(b"x")), true)
            }
            RawOp::Get => (ZkRequest::GetData { path: self.base.clone(), watch: false }, true),
            RawOp::Set => {
                let data = Bytes::from_static(b"payload-xxxxxxxx");
                (ZkRequest::SetData { path: self.base.clone(), data, version: None }, true)
            }
            RawOp::Delete if self.create_half => {
                self.create_half = false;
                (create(node, Bytes::new()), false)
            }
            RawOp::Delete => {
                self.create_half = true;
                self.seq += 1;
                (ZkRequest::Delete { path: node, version: None }, true)
            }
        };
        self.issued += usize::from(counts);
        Some((Step::Send(Req::Zk(0, req)), counts))
    }
}

/// One process's share of the mdtest phases.
pub(crate) struct Script {
    proc_idx: usize,
    spec: WorkloadSpec,
    /// The current phase and its ops still to start.
    phase: Phase,
    ops: std::vec::IntoIter<NativeOp>,
}

impl Script {
    /// The ops of process `proc_idx` under `spec`.
    pub(crate) fn new(proc_idx: usize, spec: WorkloadSpec) -> Self {
        Script { proc_idx, spec, phase: Phase::DirCreate, ops: Vec::new().into_iter() }
    }

    fn root(&self, i: usize) -> Option<String> {
        self.spec.setup_paths(self.proc_idx).into_iter().nth(i)
    }

    fn start_phase(&mut self, idx: usize) -> bool {
        let Some(&phase) = self.spec.phases.get(idx) else { return false };
        self.phase = phase;
        self.ops = self.spec.ops_for(self.proc_idx, phase).into_iter();
        true
    }
}

fn native_to_meta(op: NativeOp) -> MetaOp {
    match op {
        NativeOp::Mkdir(path) => MetaOp::Mkdir { path, mode: 0o755 },
        NativeOp::Rmdir(path) => MetaOp::Rmdir { path },
        NativeOp::Create(path) => MetaOp::Create { path, mode: 0o644 },
        NativeOp::Unlink(path) => MetaOp::Unlink { path },
        NativeOp::StatDir(path) | NativeOp::StatFile(path) => MetaOp::Stat { path },
    }
}

/// The one-slot mailbox between a DUFS op's future and its process: the
/// future parks its next request and returns `Pending`; the process sends
/// it, leaves the reply and polls again.
#[derive(Default)]
struct Mailbox {
    request: Cell<Option<Req>>,
    zk: Cell<Option<ZkResponse>>,
    be: Cell<Option<BackendResp>>,
}

/// A DUFS op's services: its process's mailbox, behind the router over a
/// sharded namespace (the ring every client computes from the shared
/// `ShardConfig`, and this client's txn ids).
#[derive(Clone, Default)]
struct SimIo {
    mail: Rc<Mailbox>,
    routing: Option<Rc<(HashRing, TxnIds)>>,
}

impl ShardIo for SimIo {
    async fn call(&mut self, shard: usize, req: ZkRequest) -> ZkResponse {
        self.mail.request.set(Some(Req::Zk(shard, req)));
        poll_fn(|_| self.mail.zk.take().map_or(Poll::Pending, Poll::Ready)).await
    }
}

impl PlanIo for SimIo {
    async fn coord(&mut self, req: ZkRequest) -> ZkResponse {
        match self.routing.clone() {
            None => self.call(0, req).await,
            Some(r) => route(req, &r.0, &r.1, self).await,
        }
    }

    async fn backend(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        self.mail.request.set(Some(Req::Be(backend, req)));
        poll_fn(|_| self.mail.be.take().map_or(Poll::Pending, Poll::Ready)).await
    }
}

/// A DUFS op (or set-up root create) as a future; its output says whether
/// it succeeded.
type OpFuture = Pin<Box<dyn Future<Output = bool>>>;

/// DUFS ops: each mdtest op runs as one future of the full DUFS op
/// planner, with timing for every hop. Over a sharded namespace each
/// coordination request of the plan runs through the live
/// `ShardedClient`'s router, [`route`], so both stacks send the same
/// requests.
pub(crate) struct DufsOps {
    script: Script,
    mapper: Md5Mapping,
    fids: FidGenerator,
    io: SimIo,
    /// Replan timed-out ops until they complete instead of failing them.
    retry: bool,
    /// The op in flight and the FID it creates.
    op: Option<MetaOp>,
    fid: Option<Fid>,
    /// The future of the op (or set-up root create) in flight, and whether
    /// the request it waits on went to a back-end mount.
    running: Option<OpFuture>,
    at_backend: bool,
}

impl DufsOps {
    /// The DUFS ops of `script` over `backends` mounts. FIDs are minted
    /// under `fid_client`; they are baked into znode data and pick the
    /// back-end server, so runs that must build identical namespaces across
    /// node layouts (shard-count sweeps) mint under a layout-independent
    /// id. `ring` routes a sharded namespace; its transaction ids hang off
    /// `fid_client` too, so a run is the same per seed.
    /// With `retry`, timed-out ops are replayed until they land
    /// (at-least-once submission; the namespace stays exactly-once because
    /// replayed creates hit `NodeExists` and replayed deletes `NoNode`) —
    /// whole-ensemble-outage runs need every op to land so the recovered
    /// namespace matches an uncrashed control run. Without it, a timed-out
    /// op fails, as the figures were calibrated with.
    pub(crate) fn new(
        script: Script,
        backends: usize,
        fid_client: u64,
        ring: Option<HashRing>,
        retry: bool,
    ) -> Self {
        let routing = ring.map(|ring| Rc::new((ring, TxnIds::new(fid_client))));
        DufsOps {
            script,
            mapper: Md5Mapping::new(backends),
            fids: FidGenerator::new(fid_client),
            io: SimIo { routing, ..SimIo::default() },
            retry,
            op: None,
            fid: None,
            running: None,
            at_backend: false,
        }
    }

    /// The op in flight from its first step, creating the FID its first
    /// plan minted, so a replan describes the identical file.
    fn plan(&self) -> OpFuture {
        let op = self.op.clone().expect("an op is in flight");
        let (fid, mapper, mut io) = (self.fid, self.mapper.clone(), self.io.clone());
        Box::pin(async move {
            plan::run(op, || fid.expect("minted for a create"), &mapper, &mut io).await.is_ok()
        })
    }

    /// Start the create of set-up root `path`, sent like any coordination
    /// request of a plan; its first request.
    fn root(&mut self, path: String) -> Req {
        let data = NodeMeta::dir(0o755).encode();
        let req = ZkRequest::Create { path, data, mode: CreateMode::Persistent };
        let mut io = self.io.clone();
        let step = self.start(Box::pin(async move { io.coord(req).await.err().is_none() }));
        let Step::Send(req) = step else { unreachable!("a create sends a request") };
        req
    }

    fn start(&mut self, fut: OpFuture) -> Step {
        self.running = Some(fut);
        self.poll()
    }

    /// Poll the future in flight once: the request it parked, or its end.
    fn poll(&mut self) -> Step {
        let fut = self.running.as_mut().expect("an op is in flight");
        if let Poll::Ready(ok) = poll_once(fut.as_mut()) {
            self.running = None;
            return Step::Done { ok };
        }
        let req = self.io.mail.request.take().expect("a pending op parks its next request");
        self.at_backend = matches!(req, Req::Be(..));
        Step::Send(req)
    }

    /// The reply to the request the future waits on.
    fn reply(&mut self, msg: ClusterMsg) -> Step {
        match msg {
            ClusterMsg::ZkResp { resp, .. } => self.io.mail.zk.set(Some(resp)),
            ClusterMsg::BeResp { resp, .. } => self.io.mail.be.set(Some(resp)),
            other => unreachable!("a DUFS op awaits no {other:?}"),
        }
        self.poll()
    }

    /// The request the future waits on timed out. A back-end request fails
    /// the op; a coordination request fails with connection loss and the
    /// op goes on (the live ZooKeeper client library does the same).
    fn lost(&mut self) -> Step {
        if self.at_backend {
            self.running = None;
            return Step::Done { ok: false };
        }
        self.io.mail.zk.set(Some(ZkResponse::Error(ZkError::ConnectionLoss)));
        self.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_coord::runtime::ClientEvent;
    use dufs_coord::shard::{ShardConfig, DEFAULT_VNODES};
    use dufs_coord::sharded::txn_decision_path;
    use dufs_coord::{
        ClientTransport, CoordServer, CoordService, ServerIn, ServerOut, ShardedClient, ZkClient,
        SHARD_CONFIG_PATH,
    };
    use dufs_core::services::LocalBackends;
    use dufs_core::Dufs;
    use dufs_simnet::{FixedLatency, Sim};
    use dufs_zab::{EnsembleConfig, PeerId};
    use std::time::Duration;

    /// Every request a shard session sent, with its shard and reply.
    type Log = Rc<RefCell<Vec<(usize, ZkRequest, ZkResponse)>>>;

    /// One live shard in process: a single-voter server that answers each
    /// request within `send`, logging it.
    struct InProc {
        shard: usize,
        server: CoordServer,
        clock_ns: u64,
        events: VecDeque<ClientEvent>,
        log: Log,
    }

    impl ClientTransport for InProc {
        fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError> {
            self.clock_ns += 1_000_000;
            let input = ServerIn::Client { client: 1, req_id, session, req: req.clone() };
            for out in self.server.handle(self.clock_ns, input) {
                if let ServerOut::Client { req_id, resp, .. } = out {
                    self.log.borrow_mut().push((self.shard, req.clone(), resp.clone()));
                    self.events.push_back(ClientEvent::Resp { req_id, resp });
                }
            }
            Ok(())
        }

        fn recv(&mut self, _timeout: Duration) -> Option<ClientEvent> {
            self.events.pop_front()
        }
    }

    /// `req` with its transaction id masked: each stack mints its own.
    fn unminted(req: ZkRequest) -> ZkRequest {
        let masked = |path: String| {
            if path.starts_with("/__txn/decided/") {
                txn_decision_path(0)
            } else {
                path
            }
        };
        match req {
            ZkRequest::TxnPrepare { ops, participants, .. } => {
                ZkRequest::TxnPrepare { txn_id: 0, ops, participants }
            }
            ZkRequest::TxnCommit { .. } => ZkRequest::TxnCommit { txn_id: 0 },
            ZkRequest::TxnAbort { .. } => ZkRequest::TxnAbort { txn_id: 0 },
            ZkRequest::CreatePath { path, data, mode } => {
                ZkRequest::CreatePath { path: masked(path), data, mode }
            }
            ZkRequest::Delete { path, version } => {
                ZkRequest::Delete { path: masked(path), version }
            }
            req => req,
        }
    }

    /// A cross-shard rename through the simulator's DUFS client sends what
    /// a live `Dufs` over a `ShardedClient` on the same ring sends, reply
    /// for reply, and its future is polled once per request plus once to
    /// start: linear in the requests, with nothing replayed.
    #[test]
    fn a_sharded_dufs_rename_sends_what_the_live_sharded_client_sends() {
        let log = Log::default();
        let config = ShardConfig { epoch: 1, shards: 2, vnodes: DEFAULT_VNODES };
        let sessions = (0..2)
            .map(|shard| {
                let (server, _) = CoordServer::new(PeerId(0), EnsembleConfig::of_size(1));
                let events = VecDeque::new();
                let t = InProc { shard, server, clock_ns: 0, events, log: log.clone() };
                let mut c = ZkClient::establish(t).unwrap();
                c.create(SHARD_CONFIG_PATH, Bytes::from(config.encode()), CreateMode::Persistent)
                    .unwrap();
                c
            })
            .collect();
        let live = ShardedClient::connect(sessions).unwrap();
        let ring = live.ring().clone();
        let from = "/src/f";
        let to = (0..).map(|i| format!("/dst{i}/f")).find(|p| live.route(p) != live.route(from));
        let to = to.unwrap();
        let mut fs = Dufs::new(1, live, LocalBackends::lustre(2));
        fs.mkdir("/src", 0o755).unwrap();
        fs.mkdir(&to[..to.len() - 2], 0o755).unwrap();
        fs.create(from, 0o644).unwrap();
        log.borrow_mut().clear();
        fs.rename(from, &to).unwrap();
        let live_log = log.take();

        let spec = WorkloadSpec::mdtest(1, 1);
        let mut d = DufsOps::new(Script::new(0, spec), 2, 1, Some(ring), false);
        d.op = Some(MetaOp::Rename { from: from.into(), to });
        let polls = Rc::new(Cell::new(0));
        let (p, mut fut) = (polls.clone(), d.plan());
        let mut step = d.start(Box::pin(poll_fn(move |cx| {
            p.set(p.get() + 1);
            fut.as_mut().poll(cx)
        })));
        let mut sent = Vec::new();
        while let Step::Send(req) = step {
            let Req::Zk(shard, req) = req else { panic!("a rename sends no back-end request") };
            let resp = live_log.get(sent.len()).map(|(.., resp)| resp.clone());
            sent.push((shard, unminted(req)));
            let resp = resp.expect("the live client sent as many requests");
            step = d.reply(ClusterMsg::ZkResp { req_id: 0, resp });
        }
        assert!(matches!(step, Step::Done { ok: true }));
        let live_sent: Vec<_> =
            live_log.into_iter().map(|(s, req, _)| (s, unminted(req))).collect();
        assert_eq!(sent, live_sent);
        assert!(sent.iter().any(|(_, r)| matches!(r, ZkRequest::TxnPrepare { .. })), "no 2PC");
        assert_eq!(polls.get(), sent.len() + 1);
    }

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
                ClusterMsg::ZkReq { req_id, req, .. } => {
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
                    ctx.send(from, ClusterMsg::ZkResp { req_id, resp });
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

    fn seat(id: u64, hub: NodeId) -> Seat {
        let cpu = NodeCpu::new(costs::NODE_CORES);
        Seat { id, controller: hub, cpu, servers: vec![hub], backends: vec![hub] }
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
        let raw = Source::Raw(RawOps::new(3, RawOp::Create, items, 1));
        let client = sim.add_node(ClientProc::new(seat(3, hub), raw));
        assert_eq!(client, NodeId(3));
        sim.run_until(SimTime::from_secs(60));
        let h = sim.node_ref::<Hub>(hub);
        assert!(h.dropped_bench_reply, "the fault was never injected");
        assert_eq!(h.measured_before_start, 0, "measured requests left before StartPhase");
        assert_eq!((h.measured, h.done), (items, Some((items as u64, 0))));
    }

    /// One link's latency in the tests below.
    const LINK: SimDuration = SimDuration::from_micros(50);

    /// A DUFS client's coordination server and controller in one: answers
    /// at once, except that it holds its reply to the first `/mdtest`
    /// create until just past the client's request timeout. Notes when the
    /// earliest reply to each setup create reaches the client.
    #[derive(Default)]
    struct SlowRootHub {
        held_root_reply: bool,
        answered: std::collections::BTreeMap<String, SimTime>,
        /// When the setup report arrived (it left one `LINK` earlier).
        setup_reported: Option<SimTime>,
        done: Option<(u64, u64)>,
    }

    impl Process<ClusterMsg> for SlowRootHub {
        fn on_message(&mut self, ctx: &mut Ctx<'_, ClusterMsg>, from: NodeId, msg: ClusterMsg) {
            match msg {
                ClusterMsg::ZkReq { req_id, req, .. } => {
                    let mut delay = SimDuration::ZERO;
                    let resp = match req {
                        ZkRequest::Connect => ZkResponse::Connected { session: 1 },
                        ZkRequest::GetData { .. } => ZkResponse::Data {
                            data: NodeMeta::dir(0o755).encode(),
                            stat: Default::default(),
                        },
                        ZkRequest::Create { path, .. } => {
                            if path == "/mdtest" && !self.held_root_reply {
                                self.held_root_reply = true;
                                delay = REQ_TIMEOUT + LINK;
                            }
                            if path == "/mdtest" || path == WorkloadSpec::proc_root(0) {
                                let at = ctx.now() + delay + LINK;
                                let first = self.answered.entry(path.clone()).or_insert(at);
                                *first = (*first).min(at);
                            }
                            ZkResponse::Created { path }
                        }
                        other => panic!("unexpected request {other:?}"),
                    };
                    ctx.send_after(from, ClusterMsg::ZkResp { req_id, resp }, delay);
                }
                ClusterMsg::PhaseDone { .. } if self.setup_reported.is_none() => {
                    self.setup_reported = Some(ctx.now());
                    ctx.send(from, ClusterMsg::StartPhase { idx: 0 });
                }
                ClusterMsg::PhaseDone { ops, errors, .. } => {
                    assert_eq!(self.done.replace((ops, errors)), None, "phase reported twice");
                    ctx.send(from, ClusterMsg::StartPhase { idx: 1 });
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
    }

    /// A late reply to a timed-out setup create is not the reply any setup
    /// stage awaits. It reaches the client (link FIFO) just ahead of the
    /// reply to the retry. Taken for the retry's reply, it would move setup
    /// on a stage early; taken for a failed connect, it would arm a connect
    /// retry that fires ~200 ms into the measured phase and hijacks the op
    /// in flight. Setup is reported only once both creates were answered,
    /// and the phase, long enough to span such a retry, finishes clean.
    #[test]
    fn a_late_setup_reply_neither_advances_setup_nor_fails_the_phase() {
        let items = 400;
        let spec =
            WorkloadSpec { phases: vec![Phase::DirCreate], ..WorkloadSpec::mdtest(1, items) };
        let mut sim: Sim<ClusterMsg> = Sim::new(1, FixedLatency(LINK));
        let hub = sim.add_node(SlowRootHub::default());
        let dufs = DufsOps::new(Script::new(0, spec), 1, 1, None, false);
        let client = sim.add_node(ClientProc::new(seat(1, hub), Source::Dufs(Box::new(dufs))));
        assert_eq!(client, NodeId(1));
        sim.run_until(SimTime::from_secs(60));
        let h = sim.node_ref::<SlowRootHub>(hub);
        assert!(h.held_root_reply, "the fault was never injected");
        let reported = h.setup_reported.expect("setup reported");
        assert_eq!(h.answered.len(), 2, "both setup creates reached the hub");
        for (path, &at) in &h.answered {
            assert!(at + LINK <= reported, "setup reported before {path} was answered ({at:?})");
        }
        assert_eq!(h.done, Some((items as u64, 0)));
    }
}
