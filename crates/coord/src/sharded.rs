//! The sharded namespace: N independent ensembles behind one client.
//!
//! This is the paper's thesis applied to the metadata service itself: where
//! a single ZAB ensemble serializes every mutation through one leader, a
//! [`ShardedCluster`] runs N ensembles side by side and a [`ShardedClient`]
//! routes each operation to the shard that owns it via the consistent-hash
//! ring in [`crate::shard`]. Single-path operations (the overwhelming
//! majority of a filesystem workload) touch exactly one shard and proceed
//! with zero cross-shard coordination — create throughput scales with the
//! shard count while each shard individually keeps ZooKeeper's ordering
//! guarantees.
//!
//! **What a shard owns.** Placement is by parent directory
//! ([`HashRing::route_path`]), so all children of a directory — and the
//! directory's child listing — live on one shard. Because a shard owns
//! `/a/b/c` without necessarily owning `/a` or `/a/b`, sharded creates use
//! the server-side `CreatePath` (`mkdir -p`) operation, which materializes
//! missing ancestors on the owning shard on demand.
//!
//! **Cross-shard atomicity.** Multi-ops whose paths land on different
//! shards run as a client-coordinated two-phase commit built on the
//! servers' prepared-transaction support: each participant shard durably
//! parks and fences its slice (`TxnPrepare`, carrying the full participant
//! list), then the coordinator durably records its verdict as a
//! **decision record** znode (`/__txn/decided/<id>`, on the
//! lowest-numbered participant) *before* issuing `TxnCommit` to anyone.
//! Prepared state and decision records live in each shard's replicated
//! tree, so they ride the WAL and survive `kill -9` of any member.
//!
//! A coordinator that dies mid-protocol leaves prepared slices parked and
//! fenced — participants never abort unilaterally (not even when the
//! coordinator's session closes), because a commit may already have
//! applied elsewhere. Instead, any session can run
//! [`ShardedClient::recover_txns`]: it finds orphaned prepares, reads the
//! decision record (writing an abort record first-writer-wins if none
//! exists — *presumed abort*), and drives that single verdict to every
//! participant. Writes that hit an orphaned fence (`TxnBusy`) trigger the
//! sweep automatically, and every cluster bootstrap runs one.
//!
//! **One router, two hosts.** All of this request logic is one `async fn`,
//! [`route`], written as straight-line code over a [`ShardIo`] that sends
//! one request to one shard: [`ShardedClient`] runs it over its per-shard
//! sessions, and the simulator's DUFS client runs the same future over
//! simulated links, so the simulated and the live stack run one protocol.
//!
//! ```
//! use bytes::Bytes;
//! use dufs_coord::cluster::ClusterBuilder;
//! use dufs_coord::{ClientOptions, CoordService, Watch};
//! use dufs_zkstore::CreateMode;
//!
//! let cluster = ClusterBuilder::new().voters(1).shards(2).sharded_tcp();
//! let mut client = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
//! client.create("/dir/a", Bytes::from_static(b"a"), CreateMode::Persistent).unwrap();
//! client.create("/dir/b", Bytes::from_static(b"b"), CreateMode::Persistent).unwrap();
//! // Siblings colocate: one shard owns both, and the listing.
//! assert_eq!(client.get_children("/dir", Watch::None).unwrap().0, vec!["a", "b"]);
//! cluster.shutdown();
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::future::Future;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_zkstore::{path as zkpath, CreateMode, MultiOp, ZkError};

use crate::api::{ClientOptions, LeaseGrant, ReadConsistency, Watch, ZkRequest, ZkResponse};
use crate::runtime::{ClientTransport, ServerStatus, ZkClient};
use crate::server::TXN_PREFIX;
use crate::session::{failure, ready, CoordService};
use crate::shard::{
    is_internal_path, logical_digest, HashRing, ShardConfig, DEFAULT_VNODES, SHARD_CONFIG_PATH,
};
use crate::tcp::{TcpCluster, TcpTransport};
use crate::txn::{Txn, TxnOp};
use crate::watch::{WatchKind, WatchNotification};

/// Path of the durable 2PC decision record for `txn_id`. It lives on the
/// transaction's *decision shard* — its lowest-numbered participant — and
/// holds a single verdict byte (`b'C'` commit, `b'A'` abort).
pub fn txn_decision_path(txn_id: u64) -> String {
    format!("{TXN_PREFIX}/decided/{txn_id:016x}")
}

/// N independent ensembles plus the replicated shard-layout config that
/// lets every client compute the same routing table.
pub struct ShardedCluster {
    shards: Vec<TcpCluster>,
    config: ShardConfig,
}

impl ShardedCluster {
    /// Wrap already-started ensembles as a sharded namespace: waits for a
    /// leader in each shard, then writes the [`ShardConfig`] znode at
    /// [`SHARD_CONFIG_PATH`] to **every** shard so any single shard can
    /// bootstrap a client's routing table.
    pub fn from_shards(shards: Vec<TcpCluster>) -> Result<Self, ZkError> {
        assert!(!shards.is_empty(), "a sharded cluster needs at least one shard");
        let config = ShardConfig { epoch: 1, shards: shards.len() as u32, vnodes: DEFAULT_VNODES };
        for shard in &shards {
            shard.await_leader(Duration::from_secs(30)).ok_or(ZkError::ConnectionLoss)?;
            let mut c = shard.client(ClientOptions::at(0).with_failover())?;
            let payload = Bytes::from(config.encode());
            match c.create(SHARD_CONFIG_PATH, payload.clone(), CreateMode::Persistent) {
                Ok(_) => {}
                // Restarted over a durable directory: refresh the config.
                Err(ZkError::NodeExists) => {
                    c.set_data(SHARD_CONFIG_PATH, payload, None)?;
                }
                Err(e) => return Err(e),
            }
            c.close()?;
        }
        let cluster = ShardedCluster { shards, config };
        // A durable restart may have recovered prepared-but-undecided
        // cross-shard transactions from the WAL (their coordinator is long
        // gone). Resolve them now so no fence outlives the bootstrap.
        let mut c = cluster.client(ClientOptions::at(0).with_failover())?;
        c.recover_txns()?;
        c.close()?;
        Ok(cluster)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The layout this cluster was bootstrapped with.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Direct access to one shard's ensemble (probes, crash injection).
    pub fn shard(&self, shard: usize) -> &TcpCluster {
        &self.shards[shard]
    }

    /// Mutable access to one shard's ensemble (e.g. [`TcpCluster::stop`]).
    pub fn shard_mut(&mut self, shard: usize) -> &mut TcpCluster {
        &mut self.shards[shard]
    }

    /// Probe member `server_idx` of `shard`.
    pub fn status(&self, shard: usize, server_idx: usize) -> ServerStatus {
        self.shards[shard].status(server_idx)
    }

    /// Block until every shard has an established leader.
    pub fn await_leaders(&self, timeout: Duration) -> bool {
        self.shards.iter().all(|s| s.await_leader(timeout).is_some())
    }

    /// Open a routed client session: one inner session per shard, each
    /// opened with `opts` (server index, failover, read consistency), plus
    /// the ring read back from the config znode. Takes [`ClientOptions`]
    /// like [`TcpCluster::client`]; the old zero-argument default was
    /// `ClientOptions::at(0).with_failover()`.
    pub fn client(&self, opts: ClientOptions) -> Result<ShardedClient<TcpTransport>, ZkError> {
        let clients = self.shards.iter().map(|s| s.client(opts)).collect::<Result<Vec<_>, _>>()?;
        ShardedClient::connect(clients)
    }

    /// Tear down every shard.
    pub fn shutdown(self) {
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// The requests a [`route`] sends: one call, to one shard's session, answered
/// with that session's reply. [`ShardedClient`] implements it over its
/// per-shard [`ZkClient`]s, the simulator's DUFS client over simulated
/// links.
pub trait ShardIo {
    /// Send `req` on the session to `shard`; its reply.
    fn call(&mut self, shard: usize, req: ZkRequest) -> impl Future<Output = ZkResponse>;
}

/// Route `req` over `ring` (see the module docs): single-path routing with
/// creates as `CreatePath`, listings with the owner-shard fallback, `Multi`
/// slicing, the two-copy directory delete with its ghost purge and the 2PC
/// coordinator, each 2PC running as the next id of `ids`. A write that hits
/// an orphaned fence (`TxnBusy`) runs a recovery sweep and is sent once
/// more. `Connect` and the `Txn*` 2PC steps address a shard rather than a
/// path and answer [`ZkError::InvalidPath`].
pub async fn route(
    req: ZkRequest,
    ring: &HashRing,
    ids: &TxnIds,
    io: &mut impl ShardIo,
) -> ZkResponse {
    Router { ring, ids, io }.request(req).await.unwrap_or_else(|(_, e)| ZkResponse::Error(e))
}

/// Resolve cross-shard transactions orphaned by dead coordinators (see
/// [`ShardedClient::recover_txns`]); the number fully resolved.
async fn recover(ring: &HashRing, ids: &TxnIds, io: &mut impl ShardIo) -> Result<usize, ZkError> {
    Router { ring, ids, io }.recover().await.map_err(|(_, e)| e)
}

/// Shard `.0` failed the op with `.1`.
type Fail = (usize, ZkError);

type Run<T> = Result<T, Fail>;

/// The failure `reply` (from `shard`) stands for: its own error, or
/// connection loss for a reply of the wrong kind.
fn fail(shard: usize, reply: &ZkResponse) -> Fail {
    (shard, reply.err().unwrap_or(ZkError::ConnectionLoss))
}

/// One routed op: the ring it routes by, the ids its 2PCs run as, and the
/// sessions it sends on.
struct Router<'a, I> {
    ring: &'a HashRing,
    ids: &'a TxnIds,
    io: &'a mut I,
}

impl<I: ShardIo> Router<'_, I> {
    /// `req`'s reply on `shard`, with an error reply failing the op.
    async fn ask(&mut self, shard: usize, req: ZkRequest) -> Run<ZkResponse> {
        let reply = self.io.call(shard, req).await;
        match reply.err() {
            Some(e) => Err((shard, e)),
            None => Ok(reply),
        }
    }

    /// The shard of a single-path operation on `path`.
    fn owner(&self, path: &str) -> usize {
        self.ring.route_path(path) as usize
    }

    /// The shard holding directory `path`'s children and listing.
    fn kids(&self, path: &str) -> usize {
        self.ring.route_children(path) as usize
    }

    /// `req`, routed; a write that hits a fence left by a prepared
    /// cross-shard transaction whose coordinator may be dead (`TxnBusy`;
    /// reads are not fenced) resolves outstanding transactions and reruns
    /// once. (Wound-wait: a sweep can abort a transaction whose coordinator
    /// is merely slow; that coordinator then observes the recorded abort
    /// and fails cleanly.)
    async fn request(&mut self, req: ZkRequest) -> Run<ZkResponse> {
        match self.route(req.clone()).await {
            Err((_, ZkError::TxnBusy)) => {
                self.recover().await?;
                self.route(req).await
            }
            r => r,
        }
    }

    async fn route(&mut self, req: ZkRequest) -> Run<ZkResponse> {
        match req {
            ZkRequest::Create { path, data, mode } | ZkRequest::CreatePath { path, data, mode } => {
                self.ask(self.owner(&path), ZkRequest::CreatePath { path, data, mode }).await
            }
            ZkRequest::Delete { path, version } => self.delete(&path, version).await,
            ZkRequest::SetData { ref path, .. }
            | ZkRequest::GetData { ref path, .. }
            | ZkRequest::Exists { ref path, .. } => {
                let s = self.owner(path);
                self.ask(s, req).await
            }
            ZkRequest::GetChildren { ref path, .. }
            | ZkRequest::GetChildrenData { ref path }
            | ZkRequest::WarmChildren { ref path } => {
                let path = path.clone();
                self.listing(path, req).await
            }
            ZkRequest::Multi { ops } => self.multi(ops).await,
            // Session-wide requests visit every shard — `Sync` is a strict
            // barrier on each of them whether or not it owes one (a caller
            // that only wants owed barriers asks `is_dirty` per connection),
            // and a failed `CloseSession` must not strand the later shards'
            // sessions. The first error answers for the whole session.
            ZkRequest::Sync | ZkRequest::Ping | ZkRequest::CloseSession => {
                let mut answer = None;
                for s in 0..self.ring.shard_count() as usize {
                    let reply = self.io.call(s, req.clone()).await;
                    if answer.as_ref().is_none_or(|a: &ZkResponse| a.err().is_none()) {
                        answer = Some(reply);
                    }
                }
                Ok(answer.expect("a ring has a shard"))
            }
            ZkRequest::Connect
            | ZkRequest::TxnPrepare { .. }
            | ZkRequest::TxnCommit { .. }
            | ZkRequest::TxnAbort { .. } => Err((0, ZkError::InvalidPath)),
        }
    }

    /// Delete `path` (optionally version-checked).
    ///
    /// A directory's node can exist in two places: the real node on its
    /// owner shard and a lazily-materialized copy on its children-owner
    /// shard (put there by `CreatePath` when children were created). Both
    /// copies must go or neither: the two legs run as one 2PC, so a
    /// version/emptiness failure on either shard rejects at prepare and
    /// leaves the other copy untouched, and the fences block a racing
    /// create from re-materializing children between the legs.
    async fn delete(&mut self, path: &str, version: Option<u32>) -> Run<ZkResponse> {
        let (owner, kids) = (self.owner(path), self.kids(path));
        let delete = |version| ZkRequest::Delete { path: path.into(), version };
        if kids == owner {
            return self.ask(owner, delete(version)).await;
        }
        // The children-owner leg goes first in the prepare order so a
        // still-populated directory fails `NotEmpty` before the owner copy
        // is even examined.
        let leg = |version| vec![MultiOp::Delete { path: path.into(), version }];
        let mut may_purge = true;
        loop {
            return match self.two_pc(&[(kids, leg(None)), (owner, leg(version))]).await {
                Ok(()) => Ok(ZkResponse::Deleted),
                // No ghost was ever materialized on the children-owner
                // shard; the node (if any) lives solely on its owner.
                Err((s, ZkError::NoNode)) if s == kids => self.ask(owner, delete(version)).await,
                // Directory that only ever existed as a materialized
                // ancestor.
                Err((s, ZkError::NoNode)) if s == owner => self.ask(kids, delete(None)).await,
                // The children-owner slice prepared, certifying the
                // directory logically empty — a `NotEmpty` owner copy holds
                // only ghost chains left by deeper `mkdir -p`
                // materialization. Purge them and retry once.
                Err((s, ZkError::NotEmpty)) if s == owner && may_purge => {
                    self.purge(owner, path).await?;
                    may_purge = false;
                    continue;
                }
                Err(f) => Err(f),
            };
        }
    }

    /// Remove everything under `dir` on `shard`, deepest first. Only
    /// called when the children-owner shard has certified the directory is
    /// logically empty, so the subtree is materialized-ghost residue.
    async fn purge(&mut self, shard: usize, dir: &str) -> Run<()> {
        for name in self.children(shard, dir).await? {
            let child = zkpath::join(dir, &name);
            Box::pin(self.purge(shard, &child)).await?;
            match self.io.call(shard, ZkRequest::Delete { path: child, version: None }).await {
                ZkResponse::Deleted | ZkResponse::Error(ZkError::NoNode) => {}
                r => return Err(fail(shard, &r)),
            }
        }
        Ok(())
    }

    /// The children of `dir` on `shard` (none if `dir` is not there).
    async fn children(&mut self, shard: usize, dir: &str) -> Run<Vec<String>> {
        match self.io.call(shard, ZkRequest::GetChildren { path: dir.into(), watch: false }).await {
            ZkResponse::Children { names, .. } => Ok(names),
            ZkResponse::Error(ZkError::NoNode) => Ok(Vec::new()),
            r => Err(fail(shard, &r)),
        }
    }

    /// Answer a `GetChildren` / `GetChildrenData` / `WarmChildren` request
    /// on `path` from the children-owner shard in one round trip. A
    /// directory never materialized there (nothing was ever created under
    /// it) lists as empty if it exists on its *own* owner shard, when that
    /// is another shard. That
    /// synthesized empty listing is assembled from two shards and no watch
    /// on either guards it (a create under the directory touches only the
    /// children-owner shard, a delete of the never-materialized directory
    /// only the owner), so it must not be cached: see
    /// [`CoordService::connection_of`].
    async fn listing(&mut self, path: String, req: ZkRequest) -> Run<ZkResponse> {
        let (owner, kids) = (self.owner(&path), self.kids(&path));
        let reply = self.io.call(kids, req.clone()).await;
        if reply.err() != Some(ZkError::NoNode) || owner == kids {
            return Ok(reply);
        }
        let stat = match self.io.call(owner, ZkRequest::Exists { path, watch: false }).await {
            ZkResponse::ExistsResult(Some(stat)) => stat,
            ZkResponse::ExistsResult(None) => return Err((owner, ZkError::NoNode)),
            r => return Err(fail(owner, &r)),
        };
        Ok(match req {
            ZkRequest::GetChildren { .. } => ZkResponse::Children { names: Vec::new(), stat },
            ZkRequest::GetChildrenData { .. } => ZkResponse::ChildrenData { entries: Vec::new() },
            _ => ZkResponse::WarmedChildren { entries: Vec::new(), stat },
        })
    }

    /// Atomic multi-op over any mix of shards. Every op routes like the
    /// single-path operation it embeds; ops that all land on one shard run
    /// as that shard's native multi, ops spanning shards as a 2PC (sliced
    /// in ascending shard order, op order kept within a shard), whose
    /// reply carries no per-op results.
    async fn multi(&mut self, ops: Vec<MultiOp>) -> Run<ZkResponse> {
        let mut by_shard: BTreeMap<usize, Vec<MultiOp>> = BTreeMap::new();
        for op in ops {
            by_shard.entry(self.owner(op.path())).or_default().push(op);
        }
        let mut slices: Vec<_> = by_shard.into_iter().collect();
        match slices.len() {
            0 => Ok(ZkResponse::MultiResults(Vec::new())),
            1 => {
                let (s, ops) = slices.pop().expect("one slice");
                self.ask(s, ZkRequest::Multi { ops }).await
            }
            _ => {
                self.two_pc(&slices).await?;
                Ok(ZkResponse::MultiResults(Vec::new()))
            }
        }
    }

    /// Run a two-phase commit over per-shard op slices, as a fresh
    /// transaction id.
    ///
    /// Phase one prepares each participant in slice order (callers hand
    /// the slices over in ascending shard order, which keeps concurrent
    /// coordinators from deadlocking on each other's fences); a prepare
    /// rejection aborts every already-prepared participant — safe and
    /// final, because no commit decision record can exist yet. Once all
    /// participants are prepared, the verdict is durably recorded on the
    /// decision shard *before* any participant commits, so a coordinator
    /// crash at any later point leaves enough state for a recovery sweep
    /// to finish the commit — never half of it. After every participant
    /// acknowledges, the record is deleted (forgotten).
    async fn two_pc(&mut self, slices: &[(usize, Vec<MultiOp>)]) -> Run<()> {
        let txn_id = self.ids.next_id();
        let mut participants: Vec<u32> = slices.iter().map(|&(s, _)| s as u32).collect();
        participants.sort_unstable();
        for (i, (s, ops)) in slices.iter().enumerate() {
            let participants = participants.clone();
            let prepare = ZkRequest::TxnPrepare { txn_id, ops: ops.clone(), participants };
            if let Err(f) = self.ask(*s, prepare).await {
                for (p, _) in &slices[..i] {
                    self.io.call(*p, ZkRequest::TxnAbort { txn_id }).await;
                }
                return Err(f);
            }
        }
        let dshard = participants[0] as usize;
        if self.decide(dshard, txn_id, b'C').await? != b'C' {
            // A recovery sweep presumed this coordinator dead and recorded
            // an abort first; honor it.
            for (s, _) in slices {
                self.io.call(*s, ZkRequest::TxnAbort { txn_id }).await;
            }
            return Err((dshard, ZkError::TxnBusy));
        }
        for (s, _) in slices {
            self.ask(*s, ZkRequest::TxnCommit { txn_id }).await?;
        }
        // Every participant applied; the record has served its purpose.
        // (If this delete is lost, recovery re-reads the verdict and the
        // commits no-op as `TxnUnknown` — stale records are garbage, not
        // hazards.)
        let path = txn_decision_path(txn_id);
        self.io.call(dshard, ZkRequest::Delete { path, version: None }).await;
        Ok(())
    }

    /// Durably record `verdict` for `txn_id` on its decision shard, or
    /// adopt the verdict already recorded by whoever won the race. The
    /// record znode is the transaction's single linearization point: the
    /// first writer decides, everyone else reads.
    async fn decide(&mut self, shard: usize, txn_id: u64, verdict: u8) -> Run<u8> {
        let path = txn_decision_path(txn_id);
        let data = Bytes::copy_from_slice(&[verdict]);
        let create =
            ZkRequest::CreatePath { path: path.clone(), data, mode: CreateMode::Persistent };
        match self.ask(shard, create).await {
            Err((_, ZkError::NodeExists)) => {}
            r => return r.map(|_| verdict),
        }
        // Barrier before reading back: the losing create proves the record
        // exists at the leader, but a follower read could still miss it.
        self.ask(shard, ZkRequest::Sync).await?;
        match self.ask(shard, ZkRequest::GetData { path, watch: false }).await? {
            ZkResponse::Data { data, .. } => Ok(*data.first().unwrap_or(&b'A')),
            r => Err(fail(shard, &r)),
        }
    }

    /// Resolve cross-shard transactions orphaned by dead coordinators:
    /// scan every shard for prepared markers, and for each one read the
    /// decision record on its decision shard — recording an abort
    /// first-writer-wins if none exists (*presumed abort*: a missing
    /// record proves no participant can have committed) — then drive that
    /// verdict to all participants and drop the record. Returns the number
    /// of transactions fully resolved.
    async fn recover(&mut self) -> Run<usize> {
        // Orphan candidates: txn id → participant shards, from the parked
        // markers themselves.
        let mut pending: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let shards = self.ring.shard_count() as usize;
        for s in 0..shards {
            for n in self.children(s, TXN_PREFIX).await? {
                let path = format!("{TXN_PREFIX}/{n}");
                let ZkResponse::Data { data, .. } =
                    self.io.call(s, ZkRequest::GetData { path, watch: false }).await
                else {
                    continue; // resolved (or decided) since the listing
                };
                let Ok(marker) = Txn::decode(&data) else {
                    continue; // not a marker (e.g. the `decided` directory)
                };
                if let TxnOp::Prepare2pc { txn_id, participants, .. } = marker.op {
                    pending.entry(txn_id).or_insert(participants);
                }
            }
        }
        let mut resolved = 0;
        for (txn_id, participants) in pending {
            // A shard outside this layout is left for a matching client.
            let Some(dshard) = participants.first().map(|&d| d as usize).filter(|&d| d < shards)
            else {
                continue;
            };
            let verdict = self.decide(dshard, txn_id, b'A').await?;
            let mut all_acked = true;
            for p in participants.iter().map(|&p| p as usize) {
                let req = if verdict == b'C' {
                    ZkRequest::TxnCommit { txn_id }
                } else {
                    ZkRequest::TxnAbort { txn_id }
                };
                all_acked &= p < shards && self.io.call(p, req).await.err().is_none();
            }
            // Forget the record only once every participant has resolved;
            // otherwise leave it for the next sweep.
            if all_acked {
                let path = txn_decision_path(txn_id);
                self.io.call(dshard, ZkRequest::Delete { path, version: None }).await;
                resolved += 1;
            }
        }
        Ok(resolved)
    }
}

/// Transaction ids for one coordinator: `nonce + k·φ` for its `k`-th 2PC,
/// φ = 2⁶⁴/golden ratio, `nonce` the first splitmix64 output of the seed.
/// A collision would let one transaction's decision apply another's parked
/// ops; one coordinator's ids repeat only after 2⁶⁴ transactions. Two
/// coordinators need distinct seeds; the mixing spreads even consecutive
/// seeds across the whole id space, so their ids meet with odds of about
/// n²/2⁶⁴ over n transactions each. The count lives in a [`Cell`], so the
/// ops of one coordinator can share its ids by reference while each runs.
#[derive(Debug, Clone)]
pub struct TxnIds {
    nonce: u64,
    seq: Cell<u64>,
}

impl TxnIds {
    /// Ids for the coordinator seeded `seed`.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TxnIds { nonce: z ^ (z >> 31), seq: Cell::new(0) }
    }

    /// The next transaction's id.
    pub fn next_id(&self) -> u64 {
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        self.nonce.wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A routed session over a sharded namespace: one [`ZkClient`] per shard,
/// a [`HashRing`] deciding which one each operation goes to, and a 2PC
/// coordinator for the (rare) operations that span shards — all of it
/// [`route`], run over the per-shard sessions.
pub struct ShardedClient<T: ClientTransport> {
    clients: Vec<ZkClient<T>>,
    ring: HashRing,
    txn_ids: TxnIds,
}

impl<T: ClientTransport> ShardedClient<T> {
    /// Assemble a routed session from one established inner session per
    /// shard. Reads the [`ShardConfig`] from shard 0, once — the session
    /// routes by that layout for its whole life — and checks it matches the
    /// number of sessions supplied.
    pub fn connect(mut clients: Vec<ZkClient<T>>) -> Result<Self, ZkError> {
        assert!(!clients.is_empty(), "a sharded client needs at least one shard session");
        let (raw, _) = clients[0].get_data(SHARD_CONFIG_PATH, Watch::None)?;
        let config = ShardConfig::decode(&raw)?;
        if config.shards as usize != clients.len() {
            return Err(ZkError::CorruptSnapshot);
        }
        // OS-seeded nonce (RandomState) mixed over the session ids: txn
        // ids must not collide across concurrent coordinators, and session
        // ids alone are only unique per shard ensemble.
        use std::hash::{BuildHasher, Hasher};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        for c in &clients {
            h.write_u64(c.session());
        }
        Ok(ShardedClient { ring: config.ring(), txn_ids: TxnIds::new(h.finish()), clients })
    }

    /// The routing table this session read at connect.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of shards this session is connected to.
    pub fn shard_count(&self) -> usize {
        self.clients.len()
    }

    /// The shard a single-path operation on `path` routes to.
    pub fn route(&self, path: &str) -> usize {
        self.ring.route_path(path) as usize
    }

    /// The shard that owns the child listing of directory `path`.
    pub fn route_children(&self, path: &str) -> usize {
        self.ring.route_children(path) as usize
    }

    /// Direct access to one shard's inner session (tests drive 2PC steps
    /// and per-shard timeouts through them).
    pub fn shard_client(&mut self, shard: usize) -> &mut ZkClient<T> {
        &mut self.clients[shard]
    }

    /// READDIRPLUS bulk warm, routed like [`CoordService::get_children`]:
    /// the children listing with each child's data and stat plus the
    /// parent's stat, leaving one-shot watches (child watch on the parent,
    /// data watch on every child) behind in a single round trip to the
    /// children-owner shard.
    pub fn warm_children(&mut self, path: &str) -> Result<crate::WarmedDir, ZkError> {
        match self.request(ZkRequest::WarmChildren { path: path.into() }) {
            ZkResponse::WarmedChildren { entries, stat } => Ok((entries, stat)),
            r => Err(failure(r)),
        }
    }

    /// Atomically move `src` to `dst` (both leaves): check-and-delete the
    /// source, create the destination with the source's data. Same-shard
    /// renames are one native multi; cross-shard renames are a 2PC.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), ZkError> {
        let (data, stat) = self.get_data(src, Watch::None)?;
        self.multi(vec![
            MultiOp::Check { path: src.into(), version: Some(stat.version) },
            MultiOp::Delete { path: src.into(), version: Some(stat.version) },
            MultiOp::Create { path: dst.into(), data, mode: CreateMode::Persistent },
        ])
        .map(drop)
    }

    /// Mint a transaction id unique across concurrent sharded sessions
    /// (see [`TxnIds`] and [`ShardedClient::connect`]).
    pub fn mint_txn_id(&mut self) -> u64 {
        self.txn_ids.next_id()
    }

    /// Resolve cross-shard transactions orphaned by dead coordinators (see
    /// the module docs): every prepared marker on any shard gets the verdict
    /// its decision record holds, or a recorded abort if none exists.
    /// Returns how many transactions were fully resolved.
    ///
    /// Any session may run this; writes that trip over an orphaned fence
    /// invoke it automatically, and [`ShardedCluster::from_shards`] runs
    /// one at bootstrap.
    pub fn recover_txns(&mut self) -> Result<usize, ZkError> {
        ready(recover(&self.ring, &self.txn_ids, &mut self.clients))
    }

    /// 2PC step: prepare `ops` as transaction `txn_id` on one shard, with
    /// the full participant list. Exposed so crash tests can stop between
    /// phases.
    pub fn txn_prepare_on(
        &mut self,
        shard: usize,
        txn_id: u64,
        ops: Vec<MultiOp>,
        participants: Vec<u32>,
    ) -> Result<(), ZkError> {
        match self.clients[shard].request(ZkRequest::TxnPrepare { txn_id, ops, participants }) {
            ZkResponse::Prepared => Ok(()),
            r => Err(failure(r)),
        }
    }

    /// 2PC step: deliver the commit decision for `txn_id` to one shard
    /// (succeeds whether the slice applies now or was already decided).
    pub fn txn_commit_on(&mut self, shard: usize, txn_id: u64) -> Result<(), ZkError> {
        match self.clients[shard].request(ZkRequest::TxnCommit { txn_id }) {
            ZkResponse::Committed | ZkResponse::TxnUnknown => Ok(()),
            r => Err(failure(r)),
        }
    }

    /// Content digest of the **logical** user namespace, independent of the
    /// shard count it is spread over (see [`logical_digest`]).
    pub fn user_digest(&mut self) -> Result<u64, ZkError> {
        // Recency, not read-your-writes: the digest must cover *other*
        // sessions' committed writes too, so every shard is barriered
        // whether or not this session owes it one.
        for c in &mut self.clients {
            c.sync()?;
        }
        // Every user path present on any shard (owner copies and ghosts).
        let mut candidates = Vec::new();
        for c in &mut self.clients {
            let mut dirs = vec!["/".to_string()];
            while let Some(dir) = dirs.pop() {
                let kids = match c.get_children(&dir, Watch::None) {
                    Ok((kids, _)) => kids,
                    Err(ZkError::NoNode) => Vec::new(),
                    Err(e) => return Err(e),
                };
                for child in kids.iter().map(|k| zkpath::join(&dir, k)) {
                    if !is_internal_path(&child) {
                        dirs.push(child.clone());
                        candidates.push(child);
                    }
                }
            }
        }
        logical_digest(&self.ring, candidates, |s, p| {
            match self.clients[s].get_data(p, Watch::None) {
                Ok((data, _)) => Ok(Some(data)),
                Err(ZkError::NoNode) => Ok(None),
                Err(e) => Err(e),
            }
        })
        .map(|(digest, _)| digest)
    }

    /// Leave a one-shot watch of `kind` on `path`, routed to the shard the
    /// corresponding read would hit.
    pub fn watch(&mut self, path: &str, kind: WatchKind) -> Result<(), ZkError> {
        match kind {
            WatchKind::Data => {
                let s = self.route(path);
                self.clients[s].get_data(path, Watch::Set).map(|_| ())
            }
            WatchKind::Exists => {
                let s = self.route(path);
                self.clients[s].exists(path, Watch::Set).map(|_| ())
            }
            WatchKind::Children => {
                let s = self.route_children(path);
                self.clients[s].get_children(path, Watch::Set).map(|_| ())
            }
        }
    }

    /// Drain one pending watch notification from any shard, if one is
    /// queued: each shard in turn, lowest index first.
    pub fn take_watch(&mut self) -> Option<WatchNotification> {
        self.clients.iter_mut().find_map(ZkClient::take_watch)
    }

    /// Set the read-recency level on every inner session.
    pub fn set_consistency(&mut self, consistency: ReadConsistency) {
        for c in &mut self.clients {
            c.set_consistency(consistency);
        }
    }

    /// Close every inner session, even if an earlier close failed; the
    /// first error is reported.
    pub fn close(mut self) -> Result<(), ZkError> {
        match ready(route(ZkRequest::CloseSession, &self.ring, &self.txn_ids, &mut self.clients)) {
            ZkResponse::Closed => Ok(()),
            r => Err(failure(r)),
        }
    }
}

/// The per-shard sessions answer each call at once, so [`route`] over them
/// never waits.
impl<T: ClientTransport> ShardIo for Vec<ZkClient<T>> {
    async fn call(&mut self, shard: usize, req: ZkRequest) -> ZkResponse {
        CoordService::request(&mut self[shard], req)
    }
}

/// A sharded session is a [`CoordService`] like any other: each request
/// runs through [`route`], and the freshness hooks index the per-shard
/// inner sessions.
impl<T: ClientTransport> CoordService for ShardedClient<T> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        ready(route(req, &self.ring, &self.txn_ids, &mut self.clients))
    }

    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        std::iter::from_fn(|| self.take_watch()).collect()
    }

    fn connections(&self) -> usize {
        self.clients.len()
    }

    fn connection_of(&self, req: &ZkRequest) -> usize {
        match req {
            ZkRequest::GetChildren { path, .. }
            | ZkRequest::GetChildrenData { path }
            | ZkRequest::WarmChildren { path } => self.route_children(path),
            ZkRequest::GetData { path, .. } | ZkRequest::Exists { path, .. } => self.route(path),
            _ => 0,
        }
    }

    fn reconnects(&self, conn: usize) -> u64 {
        self.clients[conn].reconnects()
    }

    fn is_dirty(&self, conn: usize) -> bool {
        self.clients[conn].is_dirty()
    }

    fn consistency(&self) -> ReadConsistency {
        self.clients[0].consistency()
    }

    fn set_consistency(&mut self, consistency: ReadConsistency) {
        ShardedClient::set_consistency(self, consistency);
    }

    fn ping_lease(&mut self, conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
        self.clients[conn].ping_lease().map(|(_, lease)| lease)
    }

    fn barrier(&mut self, conn: usize) -> Result<(), ZkError> {
        self.clients[conn].sync().map(drop)
    }

    fn now(&self) -> Instant {
        self.clients[0].now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    fn two_shards() -> ShardedCluster {
        ClusterBuilder::new().voters(1).shards(2).sharded_tcp()
    }

    /// Find sibling paths under `base` that land on different shards.
    fn cross_shard_pair(c: &ShardedClient<TcpTransport>) -> (String, String) {
        let a = "/xsrc/file".to_string();
        for i in 0..10_000 {
            let b = format!("/xdst{i}/file");
            if c.route(&b) != c.route(&a) {
                return (a, b);
            }
        }
        panic!("no cross-shard pair found");
    }

    #[test]
    fn txn_ids_of_256_seeds_are_pairwise_distinct() {
        // 256 coordinators seeded 0, 1, 2, … (the simulator seeds by client
        // id) over 256 transactions each: no two share an id.
        let mut taken = std::collections::HashSet::new();
        for seed in 0..256 {
            let ids = TxnIds::new(seed);
            for _ in 0..256 {
                let id = ids.next_id();
                assert!(taken.insert(id), "seed {seed}: id {id} taken");
            }
        }
    }

    #[test]
    fn single_path_ops_route_and_round_trip() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        // Fan a few directories out; each sibling set is one shard.
        for d in 0..8 {
            for f in 0..4 {
                let p = format!("/d{d}/f{f}");
                c.create(&p, Bytes::from(p.clone().into_bytes()), CreateMode::Persistent).unwrap();
            }
        }
        for d in 0..8 {
            let kids = c.get_children(&format!("/d{d}"), Watch::None).unwrap().0;
            assert_eq!(kids, vec!["f0", "f1", "f2", "f3"]);
        }
        let (data, stat) = c.get_data("/d3/f2", Watch::None).unwrap();
        assert_eq!(&data[..], b"/d3/f2");
        c.set_data("/d3/f2", Bytes::from_static(b"new"), Some(stat.version)).unwrap();
        assert_eq!(&c.get_data("/d3/f2", Watch::None).unwrap().0[..], b"new");
        c.delete("/d3/f2", None).unwrap();
        assert_eq!(c.exists("/d3/f2", Watch::None).unwrap(), None);
        assert_eq!(c.get_children("/d3", Watch::None).unwrap().0, vec!["f0", "f1", "f3"]);
        c.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn only_unsettled_writes_owe_their_shard_a_barrier() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let owed = |c: &ShardedClient<_>| -> Vec<bool> {
            (0..c.connections()).map(|s| c.is_dirty(s)).collect()
        };
        let settle = |c: &mut ShardedClient<_>| {
            let resp = CoordService::request(c, ZkRequest::Sync);
            assert!(matches!(resp, ZkResponse::Synced { .. }), "{resp:?}");
        };
        assert_eq!(owed(&c), [false, false], "clean session owes nothing");
        let (a, b) = cross_shard_pair(&c);
        c.create(&a, Bytes::new(), CreateMode::Persistent).unwrap();
        c.create(&b, Bytes::new(), CreateMode::Persistent).unwrap();
        assert_eq!(owed(&c), [false, false], "acked writes owe no barrier");

        // A write abandoned with its outcome unknown owes one, on its
        // shard only.
        cluster.shard(1).crash(0);
        c.shard_client(1).set_timeout(Duration::from_millis(50));
        let create = ZkRequest::Create {
            path: "/abandoned".into(),
            data: Bytes::new(),
            mode: CreateMode::Persistent,
        };
        let resp = c.shard_client(1).request(create);
        assert_eq!(resp.err(), Some(ZkError::ConnectionLoss));
        cluster.shard(1).restart(0);
        c.shard_client(1).set_timeout(Duration::from_secs(5));
        assert_eq!(owed(&c), [false, true], "the abandoned write owes its shard a barrier");
        settle(&mut c);
        assert_eq!(owed(&c), [false, false], "the session-level Sync settles what was owed");
        c.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_rename_moves_the_data() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (src, dst) = cross_shard_pair(&c);
        assert_ne!(c.route(&src), c.route(&dst), "pair must span shards");
        c.create(&src, Bytes::from_static(b"payload"), CreateMode::Persistent).unwrap();
        c.rename(&src, &dst).unwrap();
        assert_eq!(c.exists(&src, Watch::None).unwrap(), None);
        assert_eq!(&c.get_data(&dst, Watch::None).unwrap().0[..], b"payload");
        // Same-shard rename takes the native-multi path.
        c.rename(&dst, &format!("{dst}2")).unwrap();
        assert_eq!(c.exists(&dst, Watch::None).unwrap(), None);
        assert_eq!(&c.get_data(&format!("{dst}2"), Watch::None).unwrap().0[..], b"payload");
        c.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn failed_prepare_aborts_the_whole_txn() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (a, b) = cross_shard_pair(&c);
        c.create(&b, Bytes::new(), CreateMode::Persistent).unwrap(); // make the Create on b collide
        let err = c
            .multi(vec![
                MultiOp::Create {
                    path: a.clone(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
                MultiOp::Create {
                    path: b.clone(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            ])
            .unwrap_err();
        assert_eq!(err, ZkError::NodeExists);
        // The aborted slice left no trace: a's shard applied nothing and
        // nothing is fenced (a fresh create goes straight through).
        assert_eq!(c.exists(&a, Watch::None).unwrap(), None);
        c.create(&a, Bytes::new(), CreateMode::Persistent).unwrap();
        c.close().unwrap();
        cluster.shutdown();
    }

    /// Per-shard rename slices plus the sorted participant list — the raw
    /// ingredients tests use to drive 2PC one step at a time.
    fn rename_parts(
        c: &mut ShardedClient<TcpTransport>,
        src: &str,
        dst: &str,
    ) -> (Vec<(usize, Vec<MultiOp>)>, Vec<u32>) {
        let (data, stat) = c.get_data(src, Watch::None).unwrap();
        let slices = vec![
            (
                c.route(src),
                vec![
                    MultiOp::Check { path: src.into(), version: Some(stat.version) },
                    MultiOp::Delete { path: src.into(), version: Some(stat.version) },
                ],
            ),
            (
                c.route(dst),
                vec![MultiOp::Create { path: dst.into(), data, mode: CreateMode::Persistent }],
            ),
        ];
        let mut participants: Vec<u32> = slices.iter().map(|&(s, _)| s as u32).collect();
        participants.sort_unstable();
        (slices, participants)
    }

    #[test]
    fn watches_on_shard0_survive_refresh_polling() {
        let cluster = two_shards();
        let mut w = cluster.client(ClientOptions::at(0).with_failover()).unwrap(); // watcher
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap(); // mutator
                                                                                   // A path owned by shard 0, so its notification shares the session
                                                                                   // the internal config watch polls.
        let p = (0..10_000)
            .map(|i| format!("/w{i}/n"))
            .find(|p| w.route(p) == 0)
            .expect("no shard-0 path");
        c.create(&p, Bytes::new(), CreateMode::Persistent).unwrap();
        w.watch(&p, WatchKind::Data).unwrap();
        c.set_data(&p, Bytes::from_static(b"new"), None).unwrap();
        // Every operation polls shard 0's queue (the old code discarded
        // non-config notifications there); the watch must still surface.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let n = loop {
            w.exists(&p, Watch::None).unwrap();
            if let Some(n) = w.take_watch() {
                break n;
            }
            assert!(std::time::Instant::now() < deadline, "watch notification was swallowed");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(n.path, p);
        cluster.shutdown();
    }

    #[test]
    fn failed_cross_shard_delete_leaves_both_copies() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        // A directory whose node and child listing live on different shards.
        let d = (0..10_000)
            .map(|i| format!("/split{i}"))
            .find(|d| c.route(d) != c.route_children(d))
            .expect("no split directory");
        c.create(&d, Bytes::from_static(b"dir"), CreateMode::Persistent).unwrap();
        let child = format!("{d}/f");
        c.create(&child, Bytes::new(), CreateMode::Persistent).unwrap(); // materializes the ghost copy
        c.delete(&child, None).unwrap(); // ghost (now empty) stays behind
                                         // A version-mismatched delete must fail without touching either
                                         // copy — the old two-leg delete consumed the ghost before the
                                         // owner-side version check ran.
        assert_eq!(c.delete(&d, Some(99)).unwrap_err(), ZkError::BadVersion);
        let kids = c.route_children(&d);
        assert!(
            c.shard_client(kids).exists(&d, Watch::None).unwrap().is_some(),
            "failed delete consumed the children-owner copy"
        );
        assert_eq!(c.get_children(&d, Watch::None).unwrap().0, Vec::<String>::new());
        // The correct version still deletes both copies.
        let ver = c.get_data(&d, Watch::None).unwrap().1.version;
        c.delete(&d, Some(ver)).unwrap();
        assert_eq!(c.exists(&d, Watch::None).unwrap(), None);
        assert_eq!(
            c.shard_client(kids).exists(&d, Watch::None).unwrap(),
            None,
            "ghost copy survived the delete"
        );
        c.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn recovery_completes_a_half_committed_txn() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (src, dst) = cross_shard_pair(&c);
        c.create(&src, Bytes::from_static(b"payload"), CreateMode::Persistent).unwrap();
        let (slices, participants) = rename_parts(&mut c, &src, &dst);
        let txn_id = c.mint_txn_id();
        for (s, ops) in &slices {
            c.txn_prepare_on(*s, txn_id, ops.clone(), participants.clone()).unwrap();
        }
        // The coordinator recorded its commit verdict and reached only the
        // source shard before dying — the reviewer's divergence scenario.
        let dshard = participants[0] as usize;
        c.shard_client(dshard)
            .create_path(
                &txn_decision_path(txn_id),
                Bytes::from_static(b"C"),
                CreateMode::Persistent,
            )
            .unwrap();
        c.txn_commit_on(slices[0].0, txn_id).unwrap();
        drop(c);
        // A fresh session's sweep must FINISH the commit on the remaining
        // shard — an abort there would half-apply the rename.
        let mut c2 = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        assert_eq!(c2.recover_txns().unwrap(), 1);
        assert_eq!(c2.exists(&src, Watch::None).unwrap(), None, "committed leg reverted");
        assert_eq!(
            &c2.get_data(&dst, Watch::None).unwrap().0[..],
            b"payload",
            "recovery aborted a committed txn"
        );
        // Fences lifted and the decision record forgotten.
        c2.create(&src, Bytes::new(), CreateMode::Persistent).unwrap();
        let dp = txn_decision_path(txn_id);
        assert_eq!(c2.shard_client(dshard).exists(&dp, Watch::None).unwrap(), None);
        c2.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn recovery_presumes_abort_without_a_decision_record() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (src, dst) = cross_shard_pair(&c);
        c.create(&src, Bytes::from_static(b"payload"), CreateMode::Persistent).unwrap();
        let (slices, participants) = rename_parts(&mut c, &src, &dst);
        let txn_id = c.mint_txn_id();
        for (s, ops) in &slices {
            c.txn_prepare_on(*s, txn_id, ops.clone(), participants.clone()).unwrap();
        }
        drop(c); // coordinator dies before recording any decision
        let mut c2 = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        assert_eq!(c2.recover_txns().unwrap(), 1);
        // No record ⇒ nothing can have committed ⇒ abort everywhere.
        assert_eq!(&c2.get_data(&src, Watch::None).unwrap().0[..], b"payload");
        assert_eq!(c2.exists(&dst, Watch::None).unwrap(), None);
        c2.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn orphaned_fences_yield_to_new_writes() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (src, dst) = cross_shard_pair(&c);
        c.create(&src, Bytes::from_static(b"payload"), CreateMode::Persistent).unwrap();
        let (slices, participants) = rename_parts(&mut c, &src, &dst);
        let txn_id = c.mint_txn_id();
        for (s, ops) in &slices {
            c.txn_prepare_on(*s, txn_id, ops.clone(), participants.clone()).unwrap();
        }
        drop(c); // dead coordinator leaves both paths fenced
                 // A plain write into the fence must recover and succeed on its
                 // own — no explicit sweep, no waiting for session expiry.
        let mut c2 = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        c2.set_data(&src, Bytes::from_static(b"overwritten"), None).unwrap();
        c2.create(&dst, Bytes::new(), CreateMode::Persistent).unwrap();
        c2.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn digests_agree_across_shard_counts() {
        let spec: Vec<(String, Bytes)> = (0..6)
            .flat_map(|d| {
                (0..3).map(move |f| {
                    let p = format!("/tree{d}/n{f}");
                    (p.clone(), Bytes::from(p.into_bytes()))
                })
            })
            .collect();
        let mut digests = Vec::new();
        for shards in [1usize, 2, 3] {
            let cluster = ClusterBuilder::new().voters(1).shards(shards).sharded_tcp();
            let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
            for (p, d) in &spec {
                c.create(p, d.clone(), CreateMode::Persistent).unwrap();
            }
            digests.push(c.user_digest().unwrap());
            c.close().unwrap();
            cluster.shutdown();
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }
}
