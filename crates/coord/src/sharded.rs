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
//! ```
//! use bytes::Bytes;
//! use dufs_coord::cluster::ClusterBuilder;
//! use dufs_coord::ClientOptions;
//!
//! let cluster = ClusterBuilder::new().voters(1).shards(2).sharded_threads();
//! let mut client = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
//! client.create("/dir/a", Bytes::from_static(b"a")).unwrap();
//! client.create("/dir/b", Bytes::from_static(b"b")).unwrap();
//! // Siblings colocate: one shard owns both, and the listing.
//! assert_eq!(client.get_children("/dir").unwrap(), vec!["a", "b"]);
//! cluster.shutdown();
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_zkstore::{path as zkpath, CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::api::{ClientOptions, LeaseGrant, ReadConsistency, Watch, ZkRequest, ZkResponse};
use crate::runtime::{ClientTransport, ServerStatus, ThreadCluster, ZkClient};
use crate::server::TXN_PREFIX;
use crate::session::CoordService;
use crate::shard::{is_internal_path, HashRing, ShardConfig, DEFAULT_VNODES, SHARD_CONFIG_PATH};
use crate::tcp::TcpCluster;
use crate::txn::{Txn, TxnOp};
use crate::watch::{WatchKind, WatchNotification};

/// Path of the durable 2PC decision record for `txn_id`. It lives on the
/// transaction's *decision shard* — its lowest-numbered participant — and
/// holds a single verdict byte (`b'C'` commit, `b'A'` abort).
pub fn txn_decision_path(txn_id: u64) -> String {
    format!("{TXN_PREFIX}/decided/{txn_id:016x}")
}

/// The ensemble operations [`ShardedCluster`] needs from a runtime, so one
/// sharded implementation drives both the threaded and the TCP clusters.
pub trait ClusterHandle: Sized {
    /// The client transport this runtime hands out.
    type Transport: ClientTransport;

    /// Open a session against this ensemble.
    fn client(&self, opts: ClientOptions) -> Result<ZkClient<Self::Transport>, ZkError>;
    /// Block until the ensemble has an established leader.
    fn await_leader(&self, timeout: Duration) -> Option<usize>;
    /// Probe one member.
    fn status(&self, server_idx: usize) -> ServerStatus;
    /// Ensemble size.
    fn members(&self) -> usize;
    /// Tear the ensemble down.
    fn shutdown(self);

    /// Poll until every member reports one `digest` at one `last_applied`,
    /// and return that status; `None` if they still differ after `timeout`.
    fn converged(&self, timeout: Duration) -> Option<ServerStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let first = self.status(0);
            let same =
                |s: ServerStatus| s.digest == first.digest && s.last_applied == first.last_applied;
            if (1..self.members()).all(|i| same(self.status(i))) {
                return Some(first);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl ClusterHandle for ThreadCluster {
    type Transport = crate::runtime::ChannelTransport;

    fn client(&self, opts: ClientOptions) -> Result<ZkClient<Self::Transport>, ZkError> {
        ThreadCluster::client(self, opts)
    }
    fn await_leader(&self, timeout: Duration) -> Option<usize> {
        ThreadCluster::await_leader(self, timeout)
    }
    fn status(&self, server_idx: usize) -> ServerStatus {
        ThreadCluster::status(self, server_idx)
    }
    fn members(&self) -> usize {
        ThreadCluster::len(self)
    }
    fn shutdown(self) {
        ThreadCluster::shutdown(self);
    }
}

impl ClusterHandle for TcpCluster {
    type Transport = crate::tcp::TcpTransport;

    fn client(&self, opts: ClientOptions) -> Result<ZkClient<Self::Transport>, ZkError> {
        TcpCluster::client(self, opts)
    }
    fn await_leader(&self, timeout: Duration) -> Option<usize> {
        TcpCluster::await_leader(self, timeout)
    }
    fn status(&self, server_idx: usize) -> ServerStatus {
        TcpCluster::status(self, server_idx)
    }
    fn members(&self) -> usize {
        TcpCluster::len(self)
    }
    fn shutdown(self) {
        TcpCluster::shutdown(self);
    }
}

/// N independent ensembles plus the replicated shard-layout config that
/// lets every client compute the same routing table.
pub struct ShardedCluster<C: ClusterHandle> {
    shards: Vec<C>,
    config: ShardConfig,
}

impl<C: ClusterHandle> ShardedCluster<C> {
    /// Wrap already-started ensembles as a sharded namespace: waits for a
    /// leader in each shard, then writes the [`ShardConfig`] znode at
    /// [`SHARD_CONFIG_PATH`] to **every** shard so any single shard can
    /// bootstrap a client's routing table.
    pub fn from_shards(shards: Vec<C>) -> Result<Self, ZkError> {
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
    pub fn shard(&self, shard: usize) -> &C {
        &self.shards[shard]
    }

    /// Mutable access to one shard's ensemble (e.g. [`TcpCluster::stop`]).
    pub fn shard_mut(&mut self, shard: usize) -> &mut C {
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
    /// like every other cluster handle ([`ClusterHandle::client`],
    /// [`TcpCluster::client`], [`ThreadCluster::client`]); the old
    /// zero-argument default was `ClientOptions::at(0).with_failover()`.
    pub fn client(&self, opts: ClientOptions) -> Result<ShardedClient<C::Transport>, ZkError> {
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

/// A routed session over a sharded namespace: one [`ZkClient`] per shard,
/// a [`HashRing`] deciding which one each operation goes to, and a 2PC
/// coordinator for the (rare) operations that span shards.
pub struct ShardedClient<T: ClientTransport> {
    clients: Vec<ZkClient<T>>,
    ring: HashRing,
    epoch: u64,
    /// High-entropy per-session nonce folded into every minted txn id.
    txn_nonce: u64,
    txn_seq: u64,
    /// User watch notifications drained off shard 0 while polling for
    /// shard-config changes; surfaced by [`ShardedClient::take_watch`].
    pending_watches: VecDeque<WatchNotification>,
    /// The config watch on shard 0 has fired; re-read on the next op.
    config_dirty: bool,
}

impl<T: ClientTransport> ShardedClient<T> {
    /// Assemble a routed session from one established inner session per
    /// shard. Reads the [`ShardConfig`] from shard 0 (leaving a data watch
    /// so layout changes re-route this session) and checks it matches the
    /// number of sessions supplied.
    pub fn connect(mut clients: Vec<ZkClient<T>>) -> Result<Self, ZkError> {
        assert!(!clients.is_empty(), "a sharded client needs at least one shard session");
        let (raw, _) = clients[0].get_data(SHARD_CONFIG_PATH, Watch::Set)?;
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
        Ok(ShardedClient {
            ring: config.ring(),
            epoch: config.epoch,
            txn_nonce: h.finish(),
            txn_seq: 0,
            pending_watches: VecDeque::new(),
            config_dirty: false,
            clients,
        })
    }

    /// The routing table currently in force.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Layout epoch this session last adopted.
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Direct access to one shard's inner session (benchmarks pipeline on
    /// these; tests drive 2PC steps through them).
    pub fn shard_client(&mut self, shard: usize) -> &mut ZkClient<T> {
        &mut self.clients[shard]
    }

    /// Adopt any shard-layout change published since the last call: if the
    /// data watch this session left on [`SHARD_CONFIG_PATH`] has fired,
    /// re-read the config (re-arming the watch) and rebuild the ring if the
    /// epoch advanced. Layouts whose shard count differs from this
    /// session's connection count are ignored — re-routing to shards we
    /// hold no session for needs a reconnect, not a ring swap.
    pub fn maybe_refresh(&mut self) -> Result<(), ZkError> {
        self.poll_shard0();
        if !self.config_dirty {
            return Ok(());
        }
        let (raw, _) = self.clients[0].get_data(SHARD_CONFIG_PATH, Watch::Set)?;
        // Cleared only after the re-read succeeds, so a failed read leaves
        // the refresh pending for the next operation.
        self.config_dirty = false;
        let config = ShardConfig::decode(&raw)?;
        if config.epoch > self.epoch && config.shards as usize == self.clients.len() {
            self.ring = config.ring();
            self.epoch = config.epoch;
        }
        Ok(())
    }

    /// Drain shard 0's notification queue, which multiplexes the internal
    /// shard-config watch with the user's watches: config notes set the
    /// refresh flag, everything else is buffered for
    /// [`ShardedClient::take_watch`] — never discarded.
    fn poll_shard0(&mut self) {
        while let Some(n) = self.clients[0].take_watch() {
            if n.path == SHARD_CONFIG_PATH {
                self.config_dirty = true;
            } else {
                self.pending_watches.push_back(n);
            }
        }
    }

    /// Run `f`; on [`ZkError::TxnBusy`] — a fence left by a prepared
    /// cross-shard transaction whose coordinator may be dead — resolve
    /// outstanding transactions and retry once. (Wound-wait: a sweep can
    /// abort a transaction whose coordinator is merely slow; that
    /// coordinator then observes the recorded abort and fails cleanly.)
    fn retry_after_recovery<R>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<R, ZkError>,
    ) -> Result<R, ZkError> {
        match f(self) {
            Err(ZkError::TxnBusy) => {
                self.recover_txns()?;
                f(self)
            }
            r => r,
        }
    }

    /// Create a persistent znode, materializing missing ancestors on the
    /// owning shard (see the module docs for why sharded creates are
    /// `mkdir -p`). Returns the created path.
    pub fn create(&mut self, path: &str, data: Bytes) -> Result<String, ZkError> {
        self.create_mode(path, data, CreateMode::Persistent)
    }

    fn create_mode(
        &mut self,
        path: &str,
        data: Bytes,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        self.maybe_refresh()?;
        self.retry_after_recovery(|c| {
            let s = c.route(path);
            c.clients[s].create_path(path, data.clone(), mode)
        })
    }

    /// Delete a znode (optionally version-checked).
    ///
    /// A directory's node can exist in two places: the real node on its
    /// owner shard and a lazily-materialized copy on its children-owner
    /// shard (put there by `CreatePath` when children were created). Both
    /// copies must go or neither: the two legs run as one 2PC, so a
    /// version/emptiness failure on either shard rejects at prepare and
    /// leaves the other copy untouched, and the fences block a racing
    /// create from re-materializing children between the legs.
    pub fn delete(&mut self, path: &str, version: Option<u32>) -> Result<(), ZkError> {
        self.maybe_refresh()?;
        self.retry_after_recovery(|c| c.delete_inner(path, version, true))
    }

    fn delete_inner(
        &mut self,
        path: &str,
        version: Option<u32>,
        may_purge: bool,
    ) -> Result<(), ZkError> {
        let owner = self.route(path);
        let kids = self.route_children(path);
        if kids == owner {
            return self.clients[owner].delete(path, version);
        }
        // The children-owner leg goes first in the prepare order so a
        // still-populated directory fails `NotEmpty` before the owner copy
        // is even examined.
        let slices = vec![
            (kids, vec![MultiOp::Delete { path: path.into(), version: None }]),
            (owner, vec![MultiOp::Delete { path: path.into(), version }]),
        ];
        match self.txn_2pc_traced(slices) {
            Ok(_) => Ok(()),
            // No ghost was ever materialized on the children-owner shard;
            // the node (if any) lives solely on its owner.
            Err((s, ZkError::NoNode)) if s == kids => self.clients[owner].delete(path, version),
            // Directory that only ever existed as a materialized ancestor.
            Err((s, ZkError::NoNode)) if s == owner => self.clients[kids].delete(path, None),
            // The children-owner slice prepared, certifying the directory
            // logically empty — a `NotEmpty` owner copy holds only ghost
            // chains left by deeper `mkdir -p` materialization. Purge them
            // and retry once.
            Err((s, ZkError::NotEmpty)) if s == owner && may_purge => {
                Self::purge_local_subtree(&mut self.clients[owner], path)?;
                self.delete_inner(path, version, false)
            }
            Err((_, e)) => Err(e),
        }
    }

    /// Remove everything under `path` on one shard, deepest first. Only
    /// called when the children-owner shard has certified the directory is
    /// logically empty, so the subtree is materialized-ghost residue.
    fn purge_local_subtree(c: &mut ZkClient<T>, path: &str) -> Result<(), ZkError> {
        let kids = match c.get_children(path, Watch::None) {
            Ok((k, _)) => k,
            Err(ZkError::NoNode) => return Ok(()),
            Err(e) => return Err(e),
        };
        for k in kids {
            let child = zkpath::join(path, &k);
            Self::purge_local_subtree(c, &child)?;
            match c.delete(&child, None) {
                Ok(()) | Err(ZkError::NoNode) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Replace a znode's data (optionally version-checked).
    pub fn set_data(
        &mut self,
        path: &str,
        data: Bytes,
        version: Option<u32>,
    ) -> Result<Stat, ZkError> {
        self.maybe_refresh()?;
        self.retry_after_recovery(|c| {
            let s = c.route(path);
            c.clients[s].set_data(path, data.clone(), version)
        })
    }

    /// Read a znode's data and stat.
    pub fn get_data(&mut self, path: &str) -> Result<(Bytes, Stat), ZkError> {
        self.maybe_refresh()?;
        let s = self.route(path);
        self.clients[s].get_data(path, Watch::None)
    }

    /// Stat a znode, `None` if absent.
    pub fn exists(&mut self, path: &str) -> Result<Option<Stat>, ZkError> {
        self.maybe_refresh()?;
        let s = self.route(path);
        self.clients[s].exists(path, Watch::None)
    }

    /// List a directory's children (sorted). The listing is a single-shard
    /// read: placement by parent directory puts every child — and the
    /// listing itself — on [`ShardedClient::route_children`]`(path)`.
    pub fn get_children(&mut self, path: &str) -> Result<Vec<String>, ZkError> {
        self.maybe_refresh()?;
        match self.listing(ZkRequest::GetChildren { path: path.into(), watch: false }) {
            ZkResponse::Children { names, .. } => Ok(names),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// READDIRPLUS bulk warm, routed like [`ShardedClient::get_children`]:
    /// the children listing with each child's data and stat plus the
    /// parent's stat, leaving one-shot watches (child watch on the parent,
    /// data watch on every child) behind in a single round trip to the
    /// children-owner shard.
    pub fn warm_children(&mut self, path: &str) -> Result<crate::WarmedDir, ZkError> {
        self.maybe_refresh()?;
        match self.listing(ZkRequest::WarmChildren { path: path.into() }) {
            ZkResponse::WarmedChildren { entries, stat } => Ok((entries, stat)),
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
        }
    }

    /// Answer a `GetChildren` / `GetChildrenData` / `WarmChildren` request
    /// from the children-owner shard in one round trip. A directory never
    /// materialized there (nothing was ever created under it) lists as
    /// empty if it exists on its *own* owner shard. That synthesized empty
    /// listing is assembled from two shards and no watch on either guards
    /// it (a create under the directory touches only the children-owner
    /// shard, a delete of the never-materialized directory only the owner),
    /// so it must not be cached: see [`CoordService::connection_of`].
    fn listing(&mut self, req: ZkRequest) -> ZkResponse {
        let path = match &req {
            ZkRequest::GetChildren { path, .. }
            | ZkRequest::GetChildrenData { path }
            | ZkRequest::WarmChildren { path } => path.clone(),
            other => unreachable!("listing() is only called with listing requests: {other:?}"),
        };
        let s = self.route_children(&path);
        let resp = CoordService::request(&mut self.clients[s], req.clone());
        if resp.err() != Some(ZkError::NoNode) {
            return resp;
        }
        let owner = self.route(&path);
        match self.clients[owner].exists(&path, Watch::None) {
            Ok(Some(stat)) => match req {
                ZkRequest::GetChildren { .. } => ZkResponse::Children { names: Vec::new(), stat },
                ZkRequest::GetChildrenData { .. } => {
                    ZkResponse::ChildrenData { entries: Vec::new() }
                }
                _ => ZkResponse::WarmedChildren { entries: Vec::new(), stat },
            },
            Ok(None) => ZkResponse::Error(ZkError::NoNode),
            Err(e) => ZkResponse::Error(e),
        }
    }

    /// Atomic multi-op over any mix of shards. Ops that all land on one
    /// shard execute as that shard's native atomic multi; ops spanning
    /// shards run as a two-phase commit (see [`ShardedClient::txn_2pc`]),
    /// in which case partial per-op results are not reported.
    pub fn multi(&mut self, ops: Vec<MultiOp>) -> Result<(), ZkError> {
        self.multi_results(ops).map(|_| ())
    }

    /// [`ShardedClient::multi`] with the native per-op results when the ops
    /// land on one shard (empty for a cross-shard 2PC).
    fn multi_results(&mut self, ops: Vec<MultiOp>) -> Result<Vec<MultiResult>, ZkError> {
        self.maybe_refresh()?;
        let slices = self.slice_by_shard(ops);
        match slices.len() {
            0 => Ok(Vec::new()),
            1 => {
                let (s, ops) = slices.into_iter().next().expect("one slice");
                self.retry_after_recovery(|c| c.clients[s].multi(ops.clone()))
            }
            _ => self.retry_after_recovery(|c| c.txn_2pc(slices.clone()).map(|_| Vec::new())),
        }
    }

    /// Atomically move `src` to `dst` (both leaves): check-and-delete the
    /// source, create the destination with the source's data. Same-shard
    /// renames are one native multi; cross-shard renames are a 2PC.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), ZkError> {
        self.maybe_refresh()?;
        let (data, stat) = self.get_data(src)?;
        let ops = vec![
            MultiOp::Check { path: src.into(), version: Some(stat.version) },
            MultiOp::Delete { path: src.into(), version: Some(stat.version) },
            MultiOp::Create { path: dst.into(), data, mode: CreateMode::Persistent },
        ];
        self.multi(ops)
    }

    /// Group ops into per-shard slices (ascending shard id, op order
    /// preserved within a shard). Every op routes like the single-path
    /// operation it embeds: by the parent directory of its path.
    fn slice_by_shard(&self, ops: Vec<MultiOp>) -> Vec<(usize, Vec<MultiOp>)> {
        let mut slices: Vec<(usize, Vec<MultiOp>)> = Vec::new();
        for op in ops {
            let s = self.route(op.path());
            match slices.iter_mut().find(|(k, _)| *k == s) {
                Some((_, v)) => v.push(op),
                None => slices.push((s, vec![op])),
            }
        }
        slices.sort_by_key(|&(s, _)| s);
        slices
    }

    /// Mint a transaction id unique across concurrent sharded sessions: an
    /// OS-seeded per-session nonce (see [`ShardedClient::connect`]) mixed
    /// with a per-session counter. Collisions would let one transaction's
    /// decision apply another's parked ops, so session ids alone (unique
    /// only per shard ensemble) are not enough.
    pub fn mint_txn_id(&mut self) -> u64 {
        self.txn_seq += 1;
        self.txn_nonce.wrapping_add(self.txn_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Run a two-phase commit over per-shard op slices.
    ///
    /// Phase one prepares each participant (`slice_by_shard` hands the
    /// slices over in ascending shard order, which keeps concurrent
    /// coordinators from deadlocking on each other's fences); a prepare
    /// rejection
    /// aborts every already-prepared participant — safe and final, because
    /// no commit decision record can exist yet. Once all participants are
    /// prepared, the verdict is durably recorded on the decision shard
    /// *before* any participant commits, so a coordinator crash at any
    /// later point leaves enough state for [`ShardedClient::recover_txns`]
    /// to finish the commit — never half of it. After every participant
    /// acknowledges, the record is deleted (forgotten).
    pub fn txn_2pc(&mut self, slices: Vec<(usize, Vec<MultiOp>)>) -> Result<u64, ZkError> {
        self.txn_2pc_traced(slices).map_err(|(_, e)| e)
    }

    /// [`ShardedClient::txn_2pc`] with the failing shard attached to the
    /// error, so callers splitting one logical op across shards (delete's
    /// two legs) can attribute a rejection to the copy that raised it.
    fn txn_2pc_traced(
        &mut self,
        slices: Vec<(usize, Vec<MultiOp>)>,
    ) -> Result<u64, (usize, ZkError)> {
        let txn_id = self.mint_txn_id();
        let mut participants: Vec<u32> = slices.iter().map(|&(s, _)| s as u32).collect();
        participants.sort_unstable();
        let mut prepared: Vec<usize> = Vec::new();
        for (s, ops) in &slices {
            match self.clients[*s].txn_prepare(txn_id, ops.clone(), participants.clone()) {
                Ok(()) => prepared.push(*s),
                Err(e) => {
                    for p in prepared {
                        let _ = self.clients[p].txn_abort(txn_id);
                    }
                    return Err((*s, e));
                }
            }
        }
        let dshard = participants[0] as usize;
        match self.record_decision(dshard, txn_id, b'C') {
            Ok(b'C') => {}
            Ok(_) => {
                // A recovery sweep presumed this coordinator dead and
                // recorded an abort first; honor it.
                for (s, _) in &slices {
                    let _ = self.clients[*s].txn_abort(txn_id);
                }
                return Err((dshard, ZkError::TxnBusy));
            }
            Err(e) => return Err((dshard, e)),
        }
        for (s, _) in &slices {
            self.clients[*s].txn_commit(txn_id).map_err(|e| (*s, e))?;
        }
        // Every participant applied; the record has served its purpose.
        // (If this delete is lost, recovery re-reads the verdict and the
        // commits no-op as `TxnUnknown` — stale records are garbage, not
        // hazards.)
        let _ = self.clients[dshard].delete(&txn_decision_path(txn_id), None);
        Ok(txn_id)
    }

    /// Durably record `verdict` for `txn_id` on its decision shard, or
    /// adopt the verdict already recorded by whoever won the race. The
    /// record znode is the transaction's single linearization point: the
    /// first writer decides, everyone else reads.
    fn record_decision(&mut self, shard: usize, txn_id: u64, verdict: u8) -> Result<u8, ZkError> {
        let path = txn_decision_path(txn_id);
        let payload = Bytes::copy_from_slice(&[verdict]);
        match self.clients[shard].create_path(&path, payload, CreateMode::Persistent) {
            Ok(_) => Ok(verdict),
            Err(ZkError::NodeExists) => {
                // Barrier before reading back: the losing create proves the
                // record exists at the leader, but a follower read could
                // still miss it.
                self.clients[shard].sync()?;
                let (data, _) = self.clients[shard].get_data(&path, Watch::None)?;
                Ok(*data.first().unwrap_or(&b'A'))
            }
            Err(e) => Err(e),
        }
    }

    /// Resolve cross-shard transactions orphaned by dead coordinators:
    /// scan every shard for prepared markers, and for each one read the
    /// decision record on its decision shard — recording an abort
    /// first-writer-wins if none exists (*presumed abort*: a missing
    /// record proves no participant can have committed) — then drive that
    /// verdict to all participants and drop the record. Returns how many
    /// transactions were fully resolved.
    ///
    /// Any session may run this; writes that trip over an orphaned fence
    /// invoke it automatically (see `retry_after_recovery`), and
    /// [`ShardedCluster::from_shards`] runs one at bootstrap.
    pub fn recover_txns(&mut self) -> Result<usize, ZkError> {
        // Orphan candidates: txn id → participant shards, from the parked
        // markers themselves.
        let mut pending: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for s in 0..self.clients.len() {
            let names = match self.clients[s].get_children(TXN_PREFIX, Watch::None) {
                Ok((k, _)) => k,
                Err(ZkError::NoNode) => continue,
                Err(e) => return Err(e),
            };
            for n in names {
                let Ok((data, _)) =
                    self.clients[s].get_data(&format!("{TXN_PREFIX}/{n}"), Watch::None)
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
            let Some(&first) = participants.first() else { continue };
            let dshard = first as usize;
            if dshard >= self.clients.len() {
                continue; // foreign layout; leave it for a matching client
            }
            let verdict = self.record_decision(dshard, txn_id, b'A')?;
            let mut all_acked = true;
            for &p in &participants {
                let p = p as usize;
                if p >= self.clients.len() {
                    all_acked = false;
                    continue;
                }
                let r = if verdict == b'C' {
                    self.clients[p].txn_commit(txn_id)
                } else {
                    self.clients[p].txn_abort(txn_id)
                };
                if r.is_err() {
                    all_acked = false;
                }
            }
            // Forget the record only once every participant has resolved;
            // otherwise leave it for the next sweep.
            if all_acked {
                let _ = self.clients[dshard].delete(&txn_decision_path(txn_id), None);
                resolved += 1;
            }
        }
        Ok(resolved)
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
        self.clients[shard].txn_prepare(txn_id, ops, participants)
    }

    /// 2PC step: deliver the commit decision for `txn_id` to one shard
    /// (succeeds whether the slice applies now or was already decided).
    pub fn txn_commit_on(&mut self, shard: usize, txn_id: u64) -> Result<(), ZkError> {
        self.clients[shard].txn_commit(txn_id).map(|_| ())
    }

    /// 2PC step: deliver the abort decision for `txn_id` to one shard
    /// (succeeds whether a slice was discarded now or none was parked).
    pub fn txn_abort_on(&mut self, shard: usize, txn_id: u64) -> Result<(), ZkError> {
        self.clients[shard].txn_abort(txn_id).map(|_| ())
    }

    /// Content digest of the **logical** user namespace, independent of the
    /// shard count it is spread over. A path logically exists if its node
    /// is present on its owner shard, or if it is an ancestor of one that
    /// is (ancestors may exist only as lazily-materialized copies). Each
    /// logical node contributes `fnv(path, owner-shard data)` — empty data
    /// when only materialized copies exist, which is exactly what a
    /// single-shard `CreatePath` ancestor holds too. Coordination internals
    /// (`/__shards`, `/__txn/...`) are excluded. Equal digests across
    /// different shard counts certify the namespaces match.
    pub fn user_digest(&mut self) -> Result<u64, ZkError> {
        // Recency, not read-your-writes: the digest must cover *other*
        // sessions' committed writes too, so every shard is barriered
        // whether or not this session owes it one.
        for c in &mut self.clients {
            c.sync()?;
        }
        // Every path present on any shard (owner copies and ghosts alike).
        let mut candidates: BTreeSet<String> = BTreeSet::new();
        for s in 0..self.clients.len() {
            let mut stack = vec!["/".to_string()];
            while let Some(p) = stack.pop() {
                let kids = match self.clients[s].get_children(&p, Watch::None) {
                    Ok((k, _)) => k,
                    Err(ZkError::NoNode) => continue,
                    Err(e) => return Err(e),
                };
                for k in kids {
                    let child = zkpath::join(&p, &k);
                    if is_internal_path(&child) {
                        continue;
                    }
                    stack.push(child.clone());
                    candidates.insert(child);
                }
            }
        }
        // Owner-verified live set, then close over ancestors: a directory
        // with a live descendant exists even if only ghost-materialized.
        let mut live: BTreeSet<String> = BTreeSet::new();
        for p in &candidates {
            let s = self.route(p);
            if self.clients[s].exists(p, Watch::None)?.is_some() {
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
                cur = zkpath::parent(cur).unwrap_or("/");
            }
        }
        let mut digest = 0u64;
        for p in &logical {
            let s = self.route(p);
            let data = match self.clients[s].get_data(p, Watch::None) {
                Ok((d, _)) => d,
                Err(ZkError::NoNode) => Bytes::new(),
                Err(e) => return Err(e),
            };
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in p.as_bytes().iter().chain([0u8].iter()).chain(data.iter()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            digest = digest.wrapping_add(h);
        }
        Ok(digest)
    }

    /// Leave a one-shot watch of `kind` on `path`, routed to the shard the
    /// corresponding read would hit.
    pub fn watch(&mut self, path: &str, kind: WatchKind) -> Result<(), ZkError> {
        self.maybe_refresh()?;
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
    /// queued ([`SHARD_CONFIG_PATH`] notifications are consumed internally
    /// by [`ShardedClient::maybe_refresh`] and never surface here). Shard
    /// 0 notifications that were drained while polling for config changes
    /// are buffered, not lost — they surface here first.
    pub fn take_watch(&mut self) -> Option<WatchNotification> {
        self.poll_shard0();
        if let Some(n) = self.pending_watches.pop_front() {
            return Some(n);
        }
        for c in &mut self.clients[1..] {
            while let Some(n) = c.take_watch() {
                if n.path != SHARD_CONFIG_PATH {
                    return Some(n);
                }
            }
        }
        None
    }

    /// Set the read-recency level on every inner session.
    pub fn set_consistency(&mut self, consistency: ReadConsistency) {
        for c in &mut self.clients {
            c.set_consistency(consistency);
        }
    }

    /// Close every inner session.
    pub fn close(self) -> Result<(), ZkError> {
        // Every session is closed even if an earlier close failed; the
        // first error is reported.
        self.clients.into_iter().map(ZkClient::close).fold(Ok(()), Result::and)
    }
}

/// A sharded session is a [`CoordService`] like any other: each request is
/// routed through the same `route` / `route_children` / `multi` / 2PC paths
/// as the typed methods, and the freshness hooks index the per-shard inner
/// sessions. Requests that address a *shard* rather than a path (`Connect`,
/// the `Txn*` 2PC steps — use [`ShardedClient::txn_prepare_on`] and
/// friends) answer [`ZkError::InvalidPath`].
impl<T: ClientTransport> CoordService for ShardedClient<T> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        let err = ZkResponse::Error;
        match req {
            ZkRequest::Create { path, data, mode } | ZkRequest::CreatePath { path, data, mode } => {
                self.create_mode(&path, data, mode)
                    .map_or_else(err, |path| ZkResponse::Created { path })
            }
            ZkRequest::Delete { path, version } => {
                self.delete(&path, version).map_or_else(err, |()| ZkResponse::Deleted)
            }
            ZkRequest::SetData { path, data, version } => {
                self.set_data(&path, data, version).map_or_else(err, ZkResponse::Stat)
            }
            ZkRequest::Multi { ops } => {
                self.multi_results(ops).map_or_else(err, ZkResponse::MultiResults)
            }
            ZkRequest::GetData { .. }
            | ZkRequest::Exists { .. }
            | ZkRequest::GetChildren { .. }
            | ZkRequest::GetChildrenData { .. }
            | ZkRequest::WarmChildren { .. } => match self.maybe_refresh() {
                Err(e) => err(e),
                Ok(()) if matches!(req, ZkRequest::GetData { .. } | ZkRequest::Exists { .. }) => {
                    let s = self.connection_of(&req);
                    CoordService::request(&mut self.clients[s], req)
                }
                Ok(()) => self.listing(req),
            },
            // Session-wide requests visit every shard — `Sync` is a strict
            // barrier on each of them whether or not it owes one (a caller
            // that only wants owed barriers asks `is_dirty` per connection),
            // and a failed `CloseSession` must not strand the later shards'
            // sessions. The first error answers for the whole session.
            ZkRequest::Sync { .. } | ZkRequest::Ping | ZkRequest::CloseSession => {
                let mut failed = None;
                let mut last = ZkResponse::Error(ZkError::ConnectionLoss);
                for c in &mut self.clients {
                    last = CoordService::request(c, req.clone());
                    if last.err().is_some() && failed.is_none() {
                        failed = Some(last.clone());
                    }
                }
                failed.unwrap_or(last)
            }
            ZkRequest::Connect
            | ZkRequest::TxnPrepare { .. }
            | ZkRequest::TxnCommit { .. }
            | ZkRequest::TxnAbort { .. } => err(ZkError::InvalidPath),
        }
    }

    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        // Re-arms the shard-config watch and adopts layout changes; a failed
        // re-read stays pending for the next operation.
        let _ = self.maybe_refresh();
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

    fn pushed_lease(&mut self, conn: usize) -> Option<LeaseGrant> {
        self.clients[conn].pushed_lease()
    }

    fn ping_lease(&mut self, conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
        self.clients[conn].ping_lease().map(|(_, lease)| lease)
    }

    fn sync_coalesced(&mut self, conn: usize) -> Result<bool, ZkError> {
        self.clients[conn].sync_coalesced().map(|(_, coalesced)| coalesced)
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    fn two_shards() -> ShardedCluster<ThreadCluster> {
        ClusterBuilder::new().voters(1).shards(2).sharded_threads()
    }

    /// Find sibling paths under `base` that land on different shards.
    fn cross_shard_pair(c: &ShardedClient<crate::runtime::ChannelTransport>) -> (String, String) {
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
    fn single_path_ops_route_and_round_trip() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        // Fan a few directories out; each sibling set is one shard.
        for d in 0..8 {
            for f in 0..4 {
                let p = format!("/d{d}/f{f}");
                c.create(&p, Bytes::from(p.clone().into_bytes())).unwrap();
            }
        }
        for d in 0..8 {
            let kids = c.get_children(&format!("/d{d}")).unwrap();
            assert_eq!(kids, vec!["f0", "f1", "f2", "f3"]);
        }
        let (data, stat) = c.get_data("/d3/f2").unwrap();
        assert_eq!(&data[..], b"/d3/f2");
        c.set_data("/d3/f2", Bytes::from_static(b"new"), Some(stat.version)).unwrap();
        assert_eq!(&c.get_data("/d3/f2").unwrap().0[..], b"new");
        c.delete("/d3/f2", None).unwrap();
        assert_eq!(c.exists("/d3/f2").unwrap(), None);
        assert_eq!(c.get_children("/d3").unwrap(), vec!["f0", "f1", "f3"]);
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
            let resp = CoordService::request(c, ZkRequest::Sync { coalesce: false });
            assert!(matches!(resp, ZkResponse::Synced { .. }), "{resp:?}");
        };
        assert_eq!(owed(&c), [false, false], "clean session owes nothing");
        let (a, b) = cross_shard_pair(&c);
        c.create(&a, Bytes::new()).unwrap();
        c.create(&b, Bytes::new()).unwrap();
        assert_eq!(owed(&c), [false, false], "acked writes owe no barrier");

        let create = |path: &str| ZkRequest::Create {
            path: path.into(),
            data: Bytes::new(),
            mode: CreateMode::Persistent,
        };
        // A pipelined write still in flight owes one, on its shard only.
        c.shard_client(0).submit(create("/in-flight"));
        assert_eq!(owed(&c), [true, false], "an outstanding write owes its shard a barrier");
        settle(&mut c);
        assert_eq!(owed(&c), [false, false], "the barrier is ordered after the write it was for");

        // So does a write abandoned with its outcome unknown.
        cluster.shard(1).crash(0);
        c.shard_client(1).set_timeout(Duration::from_millis(50));
        let resp = c.shard_client(1).request(create("/abandoned"));
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
        c.create(&src, Bytes::from_static(b"payload")).unwrap();
        c.rename(&src, &dst).unwrap();
        assert_eq!(c.exists(&src).unwrap(), None);
        assert_eq!(&c.get_data(&dst).unwrap().0[..], b"payload");
        // Same-shard rename takes the native-multi path.
        c.rename(&dst, &format!("{dst}2")).unwrap();
        assert_eq!(c.exists(&dst).unwrap(), None);
        assert_eq!(&c.get_data(&format!("{dst}2")).unwrap().0[..], b"payload");
        c.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn failed_prepare_aborts_the_whole_txn() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (a, b) = cross_shard_pair(&c);
        c.create(&b, Bytes::new()).unwrap(); // make the Create on b collide
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
        assert_eq!(c.exists(&a).unwrap(), None);
        c.create(&a, Bytes::new()).unwrap();
        c.close().unwrap();
        cluster.shutdown();
    }

    /// Per-shard rename slices plus the sorted participant list — the raw
    /// ingredients tests use to drive 2PC one step at a time.
    fn rename_parts(
        c: &mut ShardedClient<crate::runtime::ChannelTransport>,
        src: &str,
        dst: &str,
    ) -> (Vec<(usize, Vec<MultiOp>)>, Vec<u32>) {
        let (data, stat) = c.get_data(src).unwrap();
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
        c.create(&p, Bytes::new()).unwrap();
        w.watch(&p, WatchKind::Data).unwrap();
        c.set_data(&p, Bytes::from_static(b"new"), None).unwrap();
        // Every operation polls shard 0's queue (the old code discarded
        // non-config notifications there); the watch must still surface.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let n = loop {
            w.exists(&p).unwrap();
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
        c.create(&d, Bytes::from_static(b"dir")).unwrap();
        let child = format!("{d}/f");
        c.create(&child, Bytes::new()).unwrap(); // materializes the ghost copy
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
        assert_eq!(c.get_children(&d).unwrap(), Vec::<String>::new());
        // The correct version still deletes both copies.
        let ver = c.get_data(&d).unwrap().1.version;
        c.delete(&d, Some(ver)).unwrap();
        assert_eq!(c.exists(&d).unwrap(), None);
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
        c.create(&src, Bytes::from_static(b"payload")).unwrap();
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
        assert_eq!(c2.exists(&src).unwrap(), None, "committed leg reverted");
        assert_eq!(
            &c2.get_data(&dst).unwrap().0[..],
            b"payload",
            "recovery aborted a committed txn"
        );
        // Fences lifted and the decision record forgotten.
        c2.create(&src, Bytes::new()).unwrap();
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
        c.create(&src, Bytes::from_static(b"payload")).unwrap();
        let (slices, participants) = rename_parts(&mut c, &src, &dst);
        let txn_id = c.mint_txn_id();
        for (s, ops) in &slices {
            c.txn_prepare_on(*s, txn_id, ops.clone(), participants.clone()).unwrap();
        }
        drop(c); // coordinator dies before recording any decision
        let mut c2 = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        assert_eq!(c2.recover_txns().unwrap(), 1);
        // No record ⇒ nothing can have committed ⇒ abort everywhere.
        assert_eq!(&c2.get_data(&src).unwrap().0[..], b"payload");
        assert_eq!(c2.exists(&dst).unwrap(), None);
        c2.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn orphaned_fences_yield_to_new_writes() {
        let cluster = two_shards();
        let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
        let (src, dst) = cross_shard_pair(&c);
        c.create(&src, Bytes::from_static(b"payload")).unwrap();
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
        c2.create(&dst, Bytes::new()).unwrap();
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
            let cluster = ClusterBuilder::new().voters(1).shards(shards).sharded_threads();
            let mut c = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
            for (p, d) in &spec {
                c.create(p, d.clone()).unwrap();
            }
            digests.push(c.user_digest().unwrap());
            c.close().unwrap();
            cluster.shutdown();
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }
}
