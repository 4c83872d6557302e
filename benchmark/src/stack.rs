//! The system under test, assembled from the crates' public API only:
//! `Dufs` → (`CachingCoord`) → [`Session`] → dufs-net loopback → a
//! 3-voter durable `TcpCluster`, with `LocalBackends` mounts and, for
//! data, `StoreClient::tcp` → two `StoreServer`s over `FileEngine`.
//!
//! The newtypes here are the only places the harness touches the layers:
//! they adapt a trait, count calls and cut spans — nothing else.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dufs_coord::cluster::ClusterBuilder;
use dufs_coord::runtime::ServerStatus;
use dufs_coord::tcp::TcpCluster;
use dufs_coord::watch::WatchNotification;
use dufs_coord::{ClientOptions, ReadConsistency, TcpZkClient, Watch, ZkRequest, ZkResponse};
use dufs_core::plan::{BackendReq, BackendResp};
use dufs_core::{BackendSet, CachingCoord, CoordService, LocalBackends};
use dufs_net::NetStatsSnapshot;
use dufs_store::{FileEngine, FsyncPolicy, StoreClient, StoreServer};

use crate::trace;

pub const VOTERS: usize = 3;
pub const BACKENDS: usize = 2;
pub const STORE_TARGETS: usize = 2;
pub const STRIPE: usize = 64 << 10;

/// How a session request was served, as far as the client can tell.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ReqClass {
    /// A read answered by the connected replica.
    Read,
    /// A read the session had to precede with a `sync` barrier (it had
    /// written since its last barrier: `SyncThenLocal`).
    BarrierRead,
    /// A write: one ZAB proposal.
    Write,
}

/// Per-session request counts (always on) and, in a traced run, round-trip
/// samples plus a few captured requests for the probes to replay.
#[derive(Default)]
pub struct SessionStats {
    pub reads: u64,
    pub barrier_reads: u64,
    pub writes: u64,
    pub traced: bool,
    pub rtt_ns: Vec<(ReqClass, u64)>,
    pub captured: Vec<(ZkRequest, ZkResponse)>,
}

const CAPTURE_MAX: usize = 64;

/// `impl CoordService` for a TCP session (the library's impl only covers
/// the channel transport). Reads go through the typed `ZkClient` methods,
/// which apply the session's `ReadConsistency`; `ZkClient::request` would
/// bypass it.
pub struct Session {
    zk: TcpZkClient,
    pub stats: SessionStats,
}

impl Session {
    pub fn new(zk: TcpZkClient) -> Self {
        Session { zk, stats: SessionStats::default() }
    }

    pub fn zk(&mut self) -> &mut TcpZkClient {
        &mut self.zk
    }

    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.zk.transport().stats()
    }

    /// Start (or stop) collecting round-trip samples and request captures;
    /// `room` more samples are reserved now, outside any timed region.
    pub fn set_traced(&mut self, on: bool, room: usize) {
        self.stats.traced = on;
        if on {
            self.stats.rtt_ns.reserve(room);
        }
    }

    fn dispatch(&mut self, req: ZkRequest) -> ZkResponse {
        let err = ZkResponse::Error;
        match req {
            ZkRequest::GetData { path, watch } => self
                .zk
                .get_data(&path, Watch::from(watch))
                .map_or_else(err, |(data, stat)| ZkResponse::Data { data, stat }),
            ZkRequest::Exists { path, watch } => {
                self.zk.exists(&path, Watch::from(watch)).map_or_else(err, ZkResponse::ExistsResult)
            }
            ZkRequest::GetChildren { path, watch } => self
                .zk
                .get_children(&path, Watch::from(watch))
                .map_or_else(err, |(names, stat)| ZkResponse::Children { names, stat }),
            ZkRequest::GetChildrenData { path } => self
                .zk
                .get_children_data(&path)
                .map_or_else(err, |entries| ZkResponse::ChildrenData { entries }),
            ZkRequest::WarmChildren { path } => self
                .zk
                .warm_children(&path)
                .map_or_else(err, |(entries, stat)| ZkResponse::WarmedChildren { entries, stat }),
            other => self.zk.request(other),
        }
    }
}

impl CoordService for Session {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        let class = if !req.is_read() {
            self.stats.writes += 1;
            ReqClass::Write
        } else if self.zk.is_dirty() {
            self.stats.barrier_reads += 1;
            ReqClass::BarrierRead
        } else {
            self.stats.reads += 1;
            ReqClass::Read
        };
        if !self.stats.traced {
            return self.dispatch(req);
        }
        let capture = (self.stats.captured.len() < CAPTURE_MAX).then(|| req.clone());
        let t0 = Instant::now();
        let resp = trace::span(trace::COORD_REQUEST, || self.dispatch(req));
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.rtt_ns.push((class, ns));
        if let Some(req) = capture {
            self.stats.captured.push((req, resp.clone()));
        }
        resp
    }

    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        std::iter::from_fn(|| self.zk.take_watch()).collect()
    }
}

/// What a `Dufs` coordination handle must expose to the harness, whether
/// or not a cache sits in front of the session.
pub trait Coord: CoordService + Send + Sized {
    /// Put a fresh session behind this kind of handle.
    fn wrap(session: Session) -> Self;
    fn session(&mut self) -> &mut Session;
    fn cache_stats(&self) -> Option<dufs_core::CacheStats>;
}

impl Coord for Session {
    fn wrap(session: Session) -> Self {
        session
    }
    fn session(&mut self) -> &mut Session {
        self
    }
    fn cache_stats(&self) -> Option<dufs_core::CacheStats> {
        None
    }
}

/// `CachingCoord<Session>` with a span around each request, so the cache's
/// own time is the outer span minus the session span inside it.
pub struct Cached(pub CachingCoord<Session>);

impl CoordService for Cached {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        trace::span(trace::CACHE_REQUEST, || self.0.request(req))
    }
}

impl Coord for Cached {
    fn wrap(session: Session) -> Self {
        Cached(CachingCoord::new(session))
    }
    fn session(&mut self) -> &mut Session {
        self.0.inner_mut()
    }
    fn cache_stats(&self) -> Option<dufs_core::CacheStats> {
        Some(self.0.stats())
    }
}

/// Pass-through `BackendSet` around `LocalBackends`: counts and spans.
pub struct Backends {
    inner: LocalBackends,
    pub calls: u64,
}

impl Backends {
    pub fn new(inner: LocalBackends) -> Self {
        Backends { inner, calls: 0 }
    }
}

impl BackendSet for Backends {
    fn n_backends(&self) -> usize {
        self.inner.n_backends()
    }

    fn call(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        self.calls += 1;
        trace::span(trace::BACKEND_CALL, || self.inner.call(backend, req))
    }
}

/// One coordination ensemble on loopback TCP.
pub struct Ensemble {
    pub cluster: TcpCluster,
    voters: usize,
}

impl Ensemble {
    /// Start `voters` members (durable under `wal_dir` when given) and wait
    /// for a leader.
    pub fn start(voters: usize, wal_dir: Option<&Path>) -> Result<Ensemble, String> {
        let mut b = ClusterBuilder::new().voters(voters);
        if let Some(dir) = wal_dir {
            b = b.durable(dir);
        }
        let cluster = b.tcp();
        cluster.await_leader(Duration::from_secs(30)).ok_or("no leader elected within 30 s")?;
        Ok(Ensemble { cluster, voters })
    }

    /// Session for load client `c`, pinned relative to the current leader
    /// (member `(leader + 1 + c) % voters`: followers, in a 3-voter
    /// ensemble) so election luck does not decide who pays the forward hop.
    pub fn session(&self, c: usize) -> Result<Session, String> {
        let leader = self
            .cluster
            .await_leader(Duration::from_secs(30))
            .ok_or("no leader within 30 s of opening a session")?;
        let opts = ClientOptions::at((leader + 1 + c) % self.voters)
            .with_failover()
            .with_consistency(ReadConsistency::SyncThenLocal);
        self.cluster.client(opts).map(Session::new).map_err(|e| format!("open session: {e:?}"))
    }

    /// Every member's status once they all report the same applied state
    /// (followers apply a commit slightly after the leader acks it).
    pub fn converged(&self) -> Result<Vec<ServerStatus>, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let all: Vec<ServerStatus> = (0..self.voters).map(|i| self.cluster.status(i)).collect();
            let same = all.iter().all(|s| {
                s.digest == all[0].digest
                    && s.node_count == all[0].node_count
                    && s.last_applied == all[0].last_applied
            });
            if same {
                return Ok(all);
            }
            if Instant::now() >= deadline {
                return Err(format!("replicas did not converge: {all:?}"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Transport counters summed over all members.
    pub fn net_stats(&self) -> NetStatsSnapshot {
        let mut sum = NetStatsSnapshot::default();
        for i in 0..self.voters {
            sum.absorb(&self.cluster.net_stats(i));
        }
        sum
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// The durable data path: one `StoreServer` over a `FileEngine` per target.
pub struct DataPath {
    servers: Vec<StoreServer>,
    pub dirs: Vec<PathBuf>,
}

impl DataPath {
    pub fn start(dir: &Path) -> Result<DataPath, String> {
        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        for t in 0..STORE_TARGETS {
            let d = dir.join(format!("store-{t}"));
            let engine = FileEngine::open(&d, FsyncPolicy::Group)
                .map_err(|e| format!("open store target {t}: {e}"))?;
            let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
            servers.push(
                StoreServer::spawn(any, engine, FsyncPolicy::Group, t as u64)
                    .map_err(|e| format!("spawn store server {t}: {e}"))?,
            );
            dirs.push(d);
        }
        Ok(DataPath { servers, dirs })
    }

    pub fn client(&self) -> Result<StoreClient, String> {
        let addrs: Vec<SocketAddr> = self.servers.iter().map(|s| s.addr()).collect();
        StoreClient::tcp(&addrs, STRIPE, 1).map_err(|e| format!("dial store servers: {e}"))
    }

    pub fn disk_bytes(&self) -> u64 {
        self.dirs.iter().map(|d| crate::util::dir_bytes(d)).sum()
    }

    pub fn stop(self) {
        for s in self.servers {
            s.stop();
        }
    }
}
