//! [`Cached<S>`] — any [`CoordService`] session behind the metadata cache
//! and the staleness-lease protocol. One wrapper for every session shape:
//! a `ZkClient` on either transport, a `ShardedClient`, an in-process
//! server, or a test double that only implements `request`.
//!
//! ## One connection, or N of them
//!
//! All freshness state — the adopted lease, the reconnect count at the last
//! barrier, the reconnect count the cache last trusted — is kept **per
//! server connection** ([`CoordService::connections`]), and every read is
//! licensed against the one connection that serves it
//! ([`CoordService::connection_of`]). A lease speaks only for the replica
//! that granted it, so this is the only sound granularity; an unsharded
//! session is simply the one-connection case, and the sharded argument is
//! the unsharded one applied to each shard's connection independently. The
//! cache *store* is one map keyed by path whatever the connection count:
//! routing decides which connection validates an entry, not where it lives.
//!
//! ## Who owns the barrier
//!
//! The inner session is forced to [`ReadConsistency::Local`] so it never
//! inserts `sync` barriers of its own; this wrapper re-implements the
//! `SyncThenLocal` trigger (barrier owed — see
//! [`CoordService::is_dirty`] — or replica switch since the last barrier)
//! *around* the cache, with two upgrades:
//!
//! * **Lease skip** — while a [`LeaseGrant`] from the serving replica is
//!   unexpired *and* the connection has not changed since it was adopted,
//!   the barrier is skipped entirely: the grant bounds how far the replica
//!   can lag behind anything committed cluster-wide, and this session's own
//!   acked writes are already applied at the replica that acked them
//!   (responses fire in `apply`), so read-your-writes holds without a
//!   barrier on an unchanged connection. The bare session relies on that
//!   same invariant, so an acked write owes no barrier with or without a
//!   lease; what the lease still spares is the barrier owed for a write
//!   whose ack has not been collected ([`CacheStats::barriers_skipped`]).
//! * **Coalescing** — when a barrier *is* needed it is issued with
//!   [`CoordService::sync_coalesced`], riding any no-op proposal already in
//!   flight at the replica.
//!
//! With leases on, cache **hits** are licensed too: a hit costs no round
//! trip, so without licensing a silently-dead replica (whose watches
//! stopped flowing) would be served from cache forever. Requiring a live
//! grant makes the lease ping double as a liveness probe — a dead replica
//! fails the renewal, the retry fails over, and the reconnect flushes the
//! cache. Staleness of *every* `SyncThenLocal` read is thereby bounded by
//! the grant ttl. With leases off the wrapper keeps the bare session's
//! trigger (barrier when one is owed or on a replica switch, trust watches
//! otherwise), which preserves read-your-writes but does not bound how
//! stale a foreign write may appear.
//!
//! Correctness never depends on clocks beyond the lease bound: with leases
//! disabled (or none grantable — elections, partitioned replica, a session
//! with the default hooks) every path degrades to the plain barrier
//! protocol, and a `Local` session (the hooks' default) is never barriered,
//! pinged or leased at all.
//!
//! ## Invalidation
//!
//! Before every cached read the wrapper drains the session's pending watch
//! notifications into evictions, and compares every connection's reconnect
//! counter (and the routing epoch) against what the cache last trusted: any
//! movement flushes the whole cache and drops that connection's lease,
//! because watches armed on the lost session may have fired unseen — and
//! entries are cheap, while reasoning about which paths routed through the
//! lost connection is not. This session's own mutations evict exactly the
//! paths they touch. [`ReadConsistency::Linearizable`] sessions bypass the
//! cache entirely.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::server::LEASE_MS;
use dufs_coord::{CoordService, LeaseGrant, ReadConsistency, ZkRequest, ZkResponse};
use dufs_zkstore::path::{self as zkpath, parent};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::shared::{CacheRef, Lookup, SharedCache, DEFAULT_SHARED_MAX_AGE};
use crate::CacheStats;

/// Cache construction knobs — one shape for private and shared caches.
/// Prefer building through [`CacheBuilder`], which also mints the shared
/// handle; the struct stays public (and `..Default::default()`-friendly)
/// for call sites that configure a field or two inline.
#[derive(Debug, Clone, Copy)]
pub struct CacheOptions {
    /// Maximum cached entries before a full flush (store-wide for a
    /// private cache; spread across lock shards for a shared one).
    pub capacity: usize,
    /// Adopt staleness leases to skip `SyncThenLocal` barriers. Off, the
    /// wrapper still caches but barriers exactly like the bare session.
    pub lease: bool,
    /// How long a cached absence (`exists == None`, `NoNode` on
    /// `get_data`) may be served. `NoNode` installs no watch, so negative
    /// entries are time-bounded for every reader and evicted early by any
    /// observed mutation on the path or under its parent.
    pub negative_ttl: Duration,
    /// How long a shared-cache entry installed by *another* session may be
    /// served (the installing session's watches do not arrive on this
    /// session's transport). Irrelevant for a private cache.
    pub shared_max_age: Duration,
}

impl CacheOptions {
    /// Default capacity (total entries across all kinds).
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Default negative-entry TTL: the lease quantum. An unexpired lease
    /// already licenses reads up to this staleness, so a cached absence no
    /// older than it adds no new staleness class.
    pub const DEFAULT_NEGATIVE_TTL: Duration = Duration::from_millis(LEASE_MS);
}

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions {
            capacity: Self::DEFAULT_CAPACITY,
            lease: true,
            negative_ttl: Self::DEFAULT_NEGATIVE_TTL,
            shared_max_age: DEFAULT_SHARED_MAX_AGE,
        }
    }
}

/// The one construction path for cached sessions — private or shared, over
/// any [`CoordService`]:
///
/// ```ignore
/// // One process-wide cache, many sessions:
/// let shared = CacheBuilder::new().capacity(32_768).shared();
/// let mut a = shared.session(cluster.client(opts)?);
/// let mut b = shared.session(sharded_cluster.client(opts)?);
///
/// // A private per-session cache:
/// let mut c = CacheBuilder::new().lease(false).session(cluster.client(opts)?);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheBuilder {
    opts: CacheOptions,
}

impl CacheBuilder {
    /// Builder with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum cached entries before a full flush.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.opts.capacity = capacity;
        self
    }

    /// Enable or disable staleness-lease licensing.
    pub fn lease(mut self, lease: bool) -> Self {
        self.opts.lease = lease;
        self
    }

    /// TTL for cached absences.
    pub fn negative_ttl(mut self, ttl: Duration) -> Self {
        self.opts.negative_ttl = ttl;
        self
    }

    /// Trust window for entries installed by other sessions of a shared
    /// cache.
    pub fn shared_max_age(mut self, age: Duration) -> Self {
        self.opts.shared_max_age = age;
        self
    }

    /// The assembled options (for call sites that still take
    /// [`CacheOptions`] directly).
    pub fn options(self) -> CacheOptions {
        self.opts
    }

    /// Mint a process-wide shared cache; attach sessions to it with
    /// [`SharedCache::session`].
    pub fn shared(self) -> SharedCache {
        SharedCache::from_options(self.opts)
    }

    /// A cached session over a private cache.
    pub fn session<S: CoordService>(self, inner: S) -> Cached<S> {
        Cached::with_options(inner, self.opts)
    }
}

impl SharedCache {
    /// Attach a session to this shared cache. The session licenses its own
    /// hits (lease or barrier, per the builder's options), so the staleness
    /// bound holds per reader even though the store is shared.
    pub fn session<S: CoordService>(&self, inner: S) -> Cached<S> {
        Cached::attached(inner, CacheRef::attach(self), self.opts)
    }
}

/// An adopted lease: valid while unexpired *and* the connection has not
/// reconnected since the grant was received — a grant from the previous
/// connection says nothing about the replica now serving us.
#[derive(Debug, Clone, Copy)]
struct LeaseState {
    granted: Instant,
    ttl: Duration,
    reconnects: u64,
}

impl LeaseState {
    fn valid(&self, reconnects: u64) -> bool {
        self.reconnects == reconnects && self.granted.elapsed() < self.ttl
    }
}

/// Freshness bookkeeping for one server connection.
#[derive(Debug, Clone, Copy)]
struct ConnFresh {
    lease: Option<LeaseState>,
    /// The connection's reconnect count at the last barrier through it.
    barrier_rc: u64,
    /// The connection's reconnect count when the cache last trusted it.
    cache_rc: u64,
}

/// The three cached read kinds plus the two listing reads that are always
/// served by the session (but still licensed, and — for the warm —
/// installed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    Data,
    Exists,
    Children,
    ChildrenData,
    Warm,
}

/// A session with the client-side metadata cache and lease protocol in
/// front of it. It is a [`CoordService`] itself (so `Dufs` runs over it
/// unchanged); the typed `get_data` / `create` / … helpers are thin
/// wrappers over [`CoordService::request`].
pub struct Cached<S> {
    inner: S,
    cache: CacheRef,
    desired: ReadConsistency,
    use_lease: bool,
    conns: Vec<ConnFresh>,
    /// `inner.epoch()` when the cache was last known coherent.
    epoch: u64,
}

impl<S: CoordService> Cached<S> {
    /// Wrap `inner` with a private cache and the default options.
    pub fn new(inner: S) -> Self {
        Self::with_options(inner, CacheOptions::default())
    }

    /// Wrap `inner` with a private cache of at most `capacity` entries.
    pub fn with_capacity(inner: S, capacity: usize) -> Self {
        Self::with_options(inner, CacheOptions { capacity, ..CacheOptions::default() })
    }

    /// Wrap `inner` with a private cache. The session's configured
    /// [`ReadConsistency`] becomes the level this wrapper *provides*; the
    /// inner session is downgraded to `Local` so the wrapper owns barriers
    /// (unless `Linearizable`, which bypasses the cache and keeps the
    /// inner session's sync-every-read behaviour).
    pub fn with_options(inner: S, opts: CacheOptions) -> Self {
        let cache = CacheRef::private(&opts);
        Self::attached(inner, cache, opts)
    }

    /// Wrap a session around an already-built cache view (private or a
    /// [`SharedCache`] attachment — see [`SharedCache::session`]).
    pub(crate) fn attached(mut inner: S, cache: CacheRef, opts: CacheOptions) -> Self {
        let desired = inner.consistency();
        if desired != ReadConsistency::Linearizable {
            inner.set_consistency(ReadConsistency::Local);
        }
        let conns = (0..inner.connections())
            .map(|c| {
                let rc = inner.reconnects(c);
                ConnFresh { lease: None, barrier_rc: rc, cache_rc: rc }
            })
            .collect();
        let epoch = inner.epoch();
        Cached { inner, cache, desired, use_lease: opts.lease, conns, epoch }
    }

    /// Counters (cache + lease + barrier, summed over connections).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Entries in the store behind this session (the whole store when it is
    /// shared; negatives included).
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wrapped session (read-only — transport stats, session state).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped session. Mutating the namespace through it bypasses
    /// local invalidation (watches still protect other sessions' caches,
    /// and this cache too — one notification late).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Whether every connection holds a lease that currently licenses
    /// barrier-free reads.
    pub fn lease_valid(&self) -> bool {
        self.conns
            .iter()
            .enumerate()
            .all(|(c, f)| f.lease.is_some_and(|l| l.valid(self.inner.reconnects(c))))
    }

    // -------------------------------------------------------- typed helpers

    /// Cached `zoo_get`.
    pub fn get_data(&mut self, path: &str) -> Result<(Bytes, Stat), ZkError> {
        match self.request(ZkRequest::GetData { path: path.into(), watch: false }) {
            ZkResponse::Data { data, stat } => Ok((data, stat)),
            r => Err(failure(r)),
        }
    }

    /// Cached `zoo_exists` (absence is cached too — the existence watch
    /// fires on creation).
    pub fn exists(&mut self, path: &str) -> Result<Option<Stat>, ZkError> {
        match self.request(ZkRequest::Exists { path: path.into(), watch: false }) {
            ZkResponse::ExistsResult(stat) => Ok(stat),
            r => Err(failure(r)),
        }
    }

    /// Cached `zoo_get_children`.
    pub fn get_children(&mut self, path: &str) -> Result<(Vec<String>, Stat), ZkError> {
        match self.request(ZkRequest::GetChildren { path: path.into(), watch: false }) {
            ZkResponse::Children { names, stat } => Ok((names, stat)),
            r => Err(failure(r)),
        }
    }

    /// READDIRPLUS bulk warm: one round trip returns the listing with
    /// every child's data and stat and leaves one-shot watches behind
    /// (child watch on the parent, data watch on each child) — then the
    /// whole result is installed into the cache, so subsequent
    /// `get_children`/`get_data`/`exists` calls on the directory and its
    /// children are hits. (A `Linearizable` session bypasses the cache,
    /// installs nothing and arms no watches.)
    pub fn warm_children(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        // Nothing is installed on a `Linearizable` session, so ask for the
        // same listing without the watches nobody would consume.
        let req = match self.desired {
            ReadConsistency::Linearizable => ZkRequest::GetChildrenData { path: path.into() },
            _ => ZkRequest::WarmChildren { path: path.into() },
        };
        match self.request(req) {
            ZkResponse::WarmedChildren { entries, .. } | ZkResponse::ChildrenData { entries } => {
                Ok(entries)
            }
            r => Err(failure(r)),
        }
    }

    /// `zoo_create`; evicts the path and its parent's listing.
    pub fn create(&mut self, path: &str, data: Bytes, mode: CreateMode) -> Result<String, ZkError> {
        match self.request(ZkRequest::Create { path: path.into(), data, mode }) {
            ZkResponse::Created { path } => Ok(path),
            r => Err(failure(r)),
        }
    }

    /// `zoo_delete`.
    pub fn delete(&mut self, path: &str, version: Option<u32>) -> Result<(), ZkError> {
        match self.request(ZkRequest::Delete { path: path.into(), version }) {
            ZkResponse::Deleted => Ok(()),
            r => Err(failure(r)),
        }
    }

    /// `zoo_set`.
    pub fn set_data(
        &mut self,
        path: &str,
        data: Bytes,
        version: Option<u32>,
    ) -> Result<Stat, ZkError> {
        match self.request(ZkRequest::SetData { path: path.into(), data, version }) {
            ZkResponse::Stat(stat) => Ok(stat),
            r => Err(failure(r)),
        }
    }

    /// Atomic multi-op; evicts every touched path.
    pub fn multi(&mut self, ops: Vec<MultiOp>) -> Result<Vec<MultiResult>, ZkError> {
        match self.request(ZkRequest::Multi { ops }) {
            ZkResponse::MultiResults(r) => Ok(r),
            r => Err(failure(r)),
        }
    }

    /// Explicit strict barrier on every connection (flushes nothing; just
    /// recency).
    pub fn sync(&mut self) -> Result<u64, ZkError> {
        match self.request(ZkRequest::Sync { coalesce: false }) {
            ZkResponse::Synced { zxid, .. } => Ok(zxid),
            r => Err(failure(r)),
        }
    }

    // ------------------------------------------------------------ internals

    /// One read, at request level: license, look up, or fetch-and-install.
    fn read(&mut self, mut req: ZkRequest) -> ZkResponse {
        // Apply any invalidations that arrived since the last call, before
        // consulting the cache.
        self.maintain();
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.request(req);
        }
        // Whatever reaches the session goes with a watch, so a mutation
        // anywhere invalidates the entry it installs.
        if let ZkRequest::GetData { watch, .. }
        | ZkRequest::Exists { watch, .. }
        | ZkRequest::GetChildren { watch, .. } = &mut req
        {
            *watch = true;
        }
        let (kind, path) = match &req {
            ZkRequest::GetData { path, .. } => (Read::Data, path.as_str()),
            ZkRequest::Exists { path, .. } => (Read::Exists, path.as_str()),
            ZkRequest::GetChildren { path, .. } => (Read::Children, path.as_str()),
            ZkRequest::GetChildrenData { path } => (Read::ChildrenData, path.as_str()),
            ZkRequest::WarmChildren { path } => (Read::Warm, path.as_str()),
            other => unreachable!("read() is only called with read requests: {other:?}"),
        };
        let conn = self.inner.connection_of(&req);
        let sync_then_local = self.desired == ReadConsistency::SyncThenLocal;
        if sync_then_local && self.peek(kind, path) {
            // Licensing may talk to the server; anything it learns (fired
            // watches, a reconnect) must land before the entry is served.
            if let Err(e) = self.license_hit(conn) {
                return ZkResponse::Error(e);
            }
            self.maintain();
        }
        if let Some(hit) = self.lookup(kind, path) {
            return hit;
        }
        // A listing is served by the connection holding the directory's
        // children; the directory node itself may sit behind another one,
        // which then vouches for an empty listing (see `connection_of`).
        let node_conn = match kind {
            Read::Data | Read::Exists => conn,
            _ if self.conns.len() == 1 => conn,
            _ => self.inner.connection_of(&ZkRequest::Exists { path: path.into(), watch: false }),
        };
        if sync_then_local {
            let mut fresh = self.ensure_fresh(conn);
            if fresh.is_ok() && node_conn != conn {
                fresh = self.ensure_fresh(node_conn);
            }
            if let Err(e) = fresh {
                return ZkResponse::Error(e);
            }
        }
        let path = path.to_owned();
        let rc = self.inner.reconnects(conn);
        let resp = self.inner.request(req);
        // An empty listing of a directory split over two connections may
        // rest on both and is guarded by the watches of neither; anything
        // else that is installed was answered by `conn` alone.
        let unguarded = node_conn != conn
            && match &resp {
                ZkResponse::Children { names, .. } => names.is_empty(),
                ZkResponse::WarmedChildren { entries, .. } => entries.is_empty(),
                _ => false,
            };
        // A reply that crossed a reconnect may come from a replica the
        // freshness decision above never covered: serve it, cache nothing.
        if !unguarded && self.inner.reconnects(conn) == rc {
            self.install(kind, &path, &resp);
        }
        resp
    }

    /// Whether an entry that could answer the read is present. Counts
    /// nothing — the peek before deciding whether a hit needs licensing.
    fn peek(&self, kind: Read, path: &str) -> bool {
        match kind {
            Read::Data => self.cache.has_data(path),
            Read::Exists => self.cache.has_exists(path),
            Read::Children => self.cache.has_children(path),
            Read::ChildrenData | Read::Warm => false,
        }
    }

    /// The counting lookup.
    fn lookup(&mut self, kind: Read, path: &str) -> Option<ZkResponse> {
        match kind {
            Read::Data => match self.cache.lookup_data(path) {
                Lookup::Hit((data, stat)) => Some(ZkResponse::Data { data, stat }),
                Lookup::Negative => Some(ZkResponse::Error(ZkError::NoNode)),
                Lookup::Miss => None,
            },
            Read::Exists => match self.cache.lookup_exists(path) {
                Lookup::Hit(stat) => Some(ZkResponse::ExistsResult(Some(stat))),
                Lookup::Negative => Some(ZkResponse::ExistsResult(None)),
                Lookup::Miss => None,
            },
            Read::Children => self
                .cache
                .get_children(path)
                .map(|(names, stat)| ZkResponse::Children { names, stat }),
            Read::ChildrenData | Read::Warm => None,
        }
    }

    /// Install what a watched read returned.
    fn install(&mut self, kind: Read, path: &str, resp: &ZkResponse) {
        match (kind, resp) {
            (Read::Data, ZkResponse::Data { data, stat }) => {
                self.cache.put_data(path, data.clone(), *stat)
            }
            // NoNode leaves no watch behind on a get, so the absence is
            // cached as a TTL-bounded negative entry.
            (Read::Data, ZkResponse::Error(ZkError::NoNode)) => self.cache.put_negative(path),
            // Absence lands in the negative store: still evicted by the
            // existence watch the read left behind, but TTL-bounded like
            // every negative so shared readers age it out too.
            (Read::Exists, ZkResponse::ExistsResult(stat)) => self.cache.put_exists(path, *stat),
            (Read::Children, ZkResponse::Children { names, stat }) => {
                self.cache.put_children(path, names.clone(), *stat)
            }
            (Read::Warm, ZkResponse::WarmedChildren { entries, stat }) => {
                let names = entries.iter().map(|(n, _, _)| n.clone()).collect();
                self.cache.put_children(path, names, *stat);
                for (name, data, cstat) in entries {
                    let child = zkpath::join(path, name);
                    self.cache.put_data(&child, data.clone(), *cstat);
                }
                self.cache.stats_mut().bulk_warms += 1;
            }
            _ => {}
        }
    }

    /// Drain watch notifications into evictions and detect reconnects and
    /// routing changes. MUST run before every cache lookup: a hit served
    /// without it could predate a fired watch or a lost session.
    fn maintain(&mut self) {
        for note in self.inner.drain_watches() {
            self.cache.invalidate_watch(&note);
        }
        // Routing moved: entries may now be validated by watches on the
        // wrong connection.
        let epoch = self.inner.epoch();
        let mut moved = std::mem::replace(&mut self.epoch, epoch) != epoch;
        for (c, f) in self.conns.iter_mut().enumerate() {
            let rc = self.inner.reconnects(c);
            if rc != f.cache_rc {
                // Watches may have fired while we were disconnected; the
                // server does not replay them. Nothing cached can be
                // trusted, and a lease from the old connection says nothing
                // about the new one.
                f.cache_rc = rc;
                f.lease = None;
                moved = true;
            }
        }
        if moved {
            self.cache.invalidate_reconnect();
        }
    }

    /// Try to license local serving with a staleness lease on an unchanged
    /// connection: adopt any pushed grant, fall back to the held one, renew
    /// synchronously by ping as a last resort. `true` means a live grant
    /// now covers this read. A ping that times out drives the transport's
    /// normal retry/failover, so a silently-dead replica surfaces here as a
    /// reconnect (and the caller's next `maintain` flushes the cache) —
    /// this is what bounds hit staleness when no traffic would otherwise
    /// flow.
    fn lease_license(&mut self, conn: usize) -> bool {
        if !self.use_lease {
            return false;
        }
        let rc = self.inner.reconnects(conn);
        if rc != self.conns[conn].barrier_rc {
            // A grant only speaks for the replica it came from.
            return false;
        }
        if let Some(g) = self.inner.pushed_lease(conn) {
            self.adopt(conn, g);
        }
        if self.conns[conn].lease.is_some_and(|l| l.valid(rc)) {
            return true;
        }
        // Renew synchronously: one RTT, same cost as the barrier it
        // replaces, but the grant then covers reads for a whole ttl.
        if let Ok(Some(g)) = self.inner.ping_lease(conn) {
            if self.inner.reconnects(conn) == rc {
                self.adopt(conn, g);
                return true;
            }
        }
        false
    }

    /// Issue the real barrier (coalesced when possible) and remember the
    /// connection it certified.
    fn barrier(&mut self, conn: usize) -> Result<(), ZkError> {
        if self.inner.sync_coalesced(conn)? {
            self.cache.stats_mut().barriers_coalesced += 1;
        }
        self.conns[conn].barrier_rc = self.inner.reconnects(conn);
        Ok(())
    }

    /// Freshness decision for a `SyncThenLocal` read about to be served
    /// **from the cache**. A hit costs no server round trip, so nothing
    /// would ever notice a dead replica whose watches stopped flowing — the
    /// entry would be served stale forever. With leases on, a hit therefore
    /// requires a live grant (ping-renewed at most once per ttl; the ping
    /// doubles as the liveness probe) or, failing that, a real barrier.
    /// With leases off, watch freshness is trusted on an unchanged
    /// connection, where foreign staleness is unbounded anyway. The dirty
    /// flag is irrelevant here: this session's own mutations already
    /// evicted exactly the paths they touched, so a surviving entry cannot
    /// hide one of our writes.
    fn license_hit(&mut self, conn: usize) -> Result<(), ZkError> {
        if self.use_lease {
            if self.lease_license(conn) {
                return Ok(());
            }
        } else if self.inner.reconnects(conn) == self.conns[conn].barrier_rc {
            return Ok(());
        }
        self.barrier(conn)
    }

    /// The `SyncThenLocal` freshness decision for a read that is about to
    /// go to the server (misses only — hits go through `license_hit`).
    fn ensure_fresh(&mut self, conn: usize) -> Result<(), ZkError> {
        if self.use_lease {
            // Every cached read is lease-or-barrier licensed — even a
            // clean-session miss, whose local read at a lagging replica
            // would otherwise be arbitrarily stale. On an unchanged
            // connection our own acked writes are already applied at the
            // serving replica, and a live lease bounds everyone else's —
            // so a valid lease substitutes for the barrier.
            if self.lease_license(conn) {
                if self.inner.is_dirty(conn) {
                    // Only count skips where the lease-off protocol would
                    // actually have barriered (a moved connection never
                    // gets here: it is not lease-licensed).
                    self.cache.stats_mut().barriers_skipped += 1;
                }
                return Ok(());
            }
        } else if !self.inner.is_dirty(conn)
            && self.inner.reconnects(conn) == self.conns[conn].barrier_rc
        {
            return Ok(());
        }
        self.barrier(conn)
    }

    fn adopt(&mut self, conn: usize, g: LeaseGrant) {
        self.conns[conn].lease = Some(LeaseState {
            granted: Instant::now(),
            ttl: Duration::from_millis(u64::from(g.ttl_ms)),
            reconnects: self.inner.reconnects(conn),
        });
        self.cache.stats_mut().lease_renewals += 1;
    }
}

/// The error a non-matching response stands for.
fn failure(resp: ZkResponse) -> ZkError {
    resp.err().unwrap_or(ZkError::ConnectionLoss)
}

impl<S: CoordService> CoordService for Cached<S> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        match req {
            ZkRequest::GetData { .. }
            | ZkRequest::Exists { .. }
            | ZkRequest::GetChildren { .. }
            | ZkRequest::GetChildrenData { .. }
            | ZkRequest::WarmChildren { .. } => self.read(req),
            // Mutations evict our own view of exactly the paths they touch,
            // after the session has answered (an eviction *before* the
            // write would let another session of a shared store re-install
            // the old value in between).
            ZkRequest::Create { ref path, .. }
            | ZkRequest::Delete { ref path, .. }
            | ZkRequest::SetData { ref path, .. } => {
                let path = path.clone();
                let resp = self.inner.request(req);
                self.cache.invalidate_local(&path);
                resp
            }
            ZkRequest::CreatePath { ref path, .. } => {
                let path = path.clone();
                let resp = self.inner.request(req);
                // Ancestors may have been minted: evict the whole chain.
                let mut p = Some(path.as_str());
                while let Some(cur) = p.filter(|cur| *cur != "/") {
                    self.cache.invalidate_local(cur);
                    p = parent(cur);
                }
                resp
            }
            ZkRequest::Multi { ref ops } => {
                let paths: Vec<String> = ops
                    .iter()
                    .filter(|op| !matches!(op, MultiOp::Check { .. }))
                    .map(|op| op.path().to_string())
                    .collect();
                let resp = self.inner.request(req);
                for path in &paths {
                    self.cache.invalidate_local(path);
                }
                resp
            }
            ZkRequest::Sync { .. } => {
                let resp = self.inner.request(req);
                if resp.err().is_none() {
                    // A session-level barrier certifies every connection.
                    for (c, f) in self.conns.iter_mut().enumerate() {
                        f.barrier_rc = self.inner.reconnects(c);
                    }
                }
                resp
            }
            other => self.inner.request(other),
        }
    }

    // `drain_watches` keeps its default: watches are consumed internally
    // for invalidation. The other hooks keep theirs too — this wrapper owns
    // freshness, so a second wrapper around it would have nothing to do.

    fn consistency(&self) -> ReadConsistency {
        self.desired
    }
}
