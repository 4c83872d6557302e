//! [`Cached<S>`] — any [`CoordService`] session behind the metadata cache
//! and the staleness-lease protocol. One wrapper for every session shape:
//! a `ZkClient`, a `ShardedClient`, an in-process
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
//! *around* the cache, with one upgrade, the **lease skip**: while a
//! [`LeaseGrant`] from the serving replica is unexpired *and* the
//! connection has not changed since it was adopted, the barrier is skipped
//! entirely: the grant bounds how far the replica can lag behind anything
//! committed cluster-wide, and this session's own acked writes are already
//! applied at the replica that acked them (responses fire in `apply`), so
//! read-your-writes holds without a barrier on an unchanged connection. The bare session relies on that same
//! invariant, so an acked write owes no barrier with or without a lease;
//! what the lease still spares is the barrier owed for a write whose
//! outcome is unknown ([`CacheStats::barriers_skipped`]). When a barrier
//! *is* needed it is the strict one, [`CoordService::barrier`]: a no-op of
//! its own on the read's connection.
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
//! Every stamp — an entry's install, a foreign entry's age, a negative
//! entry's TTL, a lease's ask and expiry — reads the inner session's clock
//! ([`CoordService::now`]), once per cache call.
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
//! counter against what the cache last trusted: any movement flushes the
//! whole cache and drops that connection's lease, because watches armed on
//! the lost session may have fired unseen — and entries are cheap, while
//! reasoning about which paths routed through the lost connection is not.
//! This session's own mutations evict exactly the paths they touch.
//! [`ReadConsistency::Linearizable`] sessions bypass the cache entirely.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::{CoordService, LeaseGrant, ReadConsistency, ZkRequest, ZkResponse};
use dufs_zkstore::path::parent;
use dufs_zkstore::{MultiOp, Stat, ZkError};

use crate::shared::{CacheRef, Read, SharedCache, CAPACITY, DEFAULT_SHARED_MAX_AGE};
use crate::CacheStats;

/// Cache construction knobs — one shape for private and shared caches,
/// set through [`CacheBuilder`]. The store's size is [`CAPACITY`] and a
/// cached absence lives for the lease quantum; neither is a knob.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheOptions {
    /// Adopt staleness leases to skip `SyncThenLocal` barriers. Off, the
    /// wrapper still caches but barriers exactly like the bare session.
    pub lease: bool,
    /// How long a shared-cache entry installed by *another* session may be
    /// served (the installing session's watches do not arrive on this
    /// session's transport). Irrelevant for a private cache.
    pub shared_max_age: Duration,
}

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions { lease: true, shared_max_age: DEFAULT_SHARED_MAX_AGE }
    }
}

/// The one construction path for cached sessions — private or shared, over
/// any [`CoordService`]:
///
/// ```no_run
/// use dufs_cache::CacheBuilder;
/// use dufs_coord::{ClientOptions, ClusterBuilder};
///
/// # fn main() -> Result<(), dufs_zkstore::ZkError> {
/// let cluster = ClusterBuilder::new().voters(3).tcp();
/// let sharded_cluster = ClusterBuilder::new().voters(1).shards(2).sharded_tcp();
///
/// // One process-wide cache, many sessions:
/// let shared = CacheBuilder::new().shared();
/// let mut a = shared.session(cluster.client(ClientOptions::at(0))?);
/// let mut b = shared.session(sharded_cluster.client(ClientOptions::at(0))?);
///
/// // A private per-session cache:
/// let mut c = CacheBuilder::new().lease(false).session(cluster.client(ClientOptions::at(1))?);
/// # Ok(())
/// # }
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

    /// Enable or disable staleness-lease licensing.
    pub fn lease(mut self, lease: bool) -> Self {
        self.opts.lease = lease;
        self
    }

    /// Trust window for entries installed by other sessions of a shared
    /// cache.
    pub fn shared_max_age(mut self, age: Duration) -> Self {
        self.opts.shared_max_age = age;
        self
    }

    /// Mint a process-wide shared cache; attach sessions to it with
    /// [`SharedCache::session`].
    pub fn shared(self) -> SharedCache {
        SharedCache::new(CAPACITY, self.opts)
    }

    /// A cached session over a private cache.
    pub fn session<S: CoordService>(self, inner: S) -> Cached<S> {
        Cached::attached(inner, CacheRef::private(CAPACITY), self.opts)
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

/// An adopted lease: valid while unexpired, counted from the ping that
/// asked for it, *and* while the connection has not reconnected since — a
/// grant from the previous connection says nothing about the replica now
/// serving us.
#[derive(Debug, Clone, Copy)]
struct LeaseState {
    expires: Instant,
    reconnects: u64,
}

impl LeaseState {
    fn valid(&self, reconnects: u64, now: Instant) -> bool {
        self.reconnects == reconnects && now < self.expires
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

/// A session with the client-side metadata cache and lease protocol in
/// front of it. It is a [`CoordService`] itself (so `Dufs` runs over it
/// unchanged, and the trait's typed `get_data` / `create` / … calls reach
/// the cache through [`CoordService::request`]).
pub struct Cached<S> {
    inner: S,
    cache: CacheRef,
    desired: ReadConsistency,
    use_lease: bool,
    conns: Vec<ConnFresh>,
}

impl<S: CoordService> Cached<S> {
    /// Wrap `inner` with a private cache and the default options
    /// (`CacheBuilder::new().session(inner)`).
    pub fn new(inner: S) -> Self {
        CacheBuilder::new().session(inner)
    }

    /// Wrap a session around an already-built cache view (private or a
    /// [`SharedCache`] attachment — see [`SharedCache::session`]). The
    /// session's configured [`ReadConsistency`] becomes the level this
    /// wrapper *provides*; the inner session is downgraded to `Local` so
    /// the wrapper owns barriers (unless `Linearizable`, which bypasses the
    /// cache and keeps the inner session's sync-every-read behaviour).
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
        Cached { inner, cache, desired, use_lease: opts.lease, conns }
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

    /// Whether every connection holds a lease that currently licenses
    /// barrier-free reads.
    pub fn lease_valid(&self) -> bool {
        let now = self.inner.now();
        self.conns
            .iter()
            .enumerate()
            .all(|(c, f)| f.lease.is_some_and(|l| l.valid(self.inner.reconnects(c), now)))
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
            r => Err(r.err().unwrap_or(ZkError::ConnectionLoss)),
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
        // The two listing reads are always served by the session (but
        // still licensed, and — for the warm — installed).
        let (kind, path) = match &req {
            ZkRequest::GetData { path, .. } => (Some(Read::Data), path.as_str()),
            ZkRequest::Exists { path, .. } => (Some(Read::Exists), path.as_str()),
            ZkRequest::GetChildren { path, .. } => (Some(Read::Children), path.as_str()),
            ZkRequest::GetChildrenData { path } | ZkRequest::WarmChildren { path } => {
                (None, path.as_str())
            }
            other => unreachable!("read() is only called with read requests: {other:?}"),
        };
        let now = self.inner.now();
        let conn = self.inner.connection_of(&req);
        let sync_then_local = self.desired == ReadConsistency::SyncThenLocal;
        if let Some(kind) = kind {
            if sync_then_local && self.cache.has(kind, path, now) {
                // Licensing may talk to the server; anything it learns
                // (fired watches, a reconnect) must land before the entry
                // is served.
                if let Err(e) = self.license_hit(conn, now) {
                    return ZkResponse::Error(e);
                }
                self.maintain();
            }
            if let Some(hit) = self.cache.lookup(kind, path, now) {
                return hit;
            }
        }
        // A listing is served by the connection holding the directory's
        // children; the directory node itself may sit behind another one,
        // which then vouches for an empty listing (see `connection_of`).
        let node_conn = match kind {
            Some(Read::Data | Read::Exists) => conn,
            _ if self.conns.len() == 1 => conn,
            _ => self.inner.connection_of(&ZkRequest::Exists { path: path.into(), watch: false }),
        };
        if sync_then_local {
            let mut fresh = self.ensure_fresh(conn, now);
            if fresh.is_ok() && node_conn != conn {
                fresh = self.ensure_fresh(node_conn, now);
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
        // What is installed is stamped with the instant before the ask, so
        // it ages from no later than the state it shows.
        if !unguarded && self.inner.reconnects(conn) == rc {
            match (kind, &resp) {
                (Some(kind), _) => self.cache.put(kind, &path, &resp, now),
                (None, ZkResponse::WarmedChildren { entries, stat }) => {
                    self.cache.put_warm(&path, entries, *stat, now)
                }
                _ => {}
            }
        }
        resp
    }

    /// Drain watch notifications into evictions and detect reconnects.
    /// MUST run before every cache lookup: a hit served without it could
    /// predate a fired watch or a lost session.
    fn maintain(&mut self) {
        for note in self.inner.drain_watches() {
            self.cache.invalidate_watch(&note);
        }
        let mut moved = false;
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
    /// connection: the held grant if it is still live, else a synchronous
    /// renewal by ping. `true` means a live grant now covers this read. A
    /// ping that times out drives the transport's normal retry/failover,
    /// so a silently-dead replica surfaces here as a reconnect (and the
    /// caller's next `maintain` flushes the cache) — this is what bounds
    /// hit staleness when no traffic would otherwise flow.
    fn lease_license(&mut self, conn: usize, now: Instant) -> bool {
        if !self.use_lease {
            return false;
        }
        let rc = self.inner.reconnects(conn);
        if rc != self.conns[conn].barrier_rc {
            // A grant only speaks for the replica it came from.
            return false;
        }
        if self.conns[conn].lease.is_some_and(|l| l.valid(rc, now)) {
            return true;
        }
        // Renew synchronously: one RTT, same cost as the barrier it
        // replaces, but the grant then covers reads for a whole ttl. The
        // server measured the ttl from some instant after this ask, so the
        // grant is stamped with the ask (`now`, read before it): transit
        // and any stall before adoption come off the client's window, never
        // onto it.
        if let Ok(Some(g)) = self.inner.ping_lease(conn) {
            if self.inner.reconnects(conn) == rc {
                self.adopt(conn, g, now);
                return true;
            }
        }
        false
    }

    /// Issue the real barrier and remember the connection it certified.
    fn barrier(&mut self, conn: usize) -> Result<(), ZkError> {
        self.inner.barrier(conn)?;
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
    fn license_hit(&mut self, conn: usize, now: Instant) -> Result<(), ZkError> {
        if self.use_lease {
            if self.lease_license(conn, now) {
                return Ok(());
            }
        } else if self.inner.reconnects(conn) == self.conns[conn].barrier_rc {
            return Ok(());
        }
        self.barrier(conn)
    }

    /// The `SyncThenLocal` freshness decision for a read that is about to
    /// go to the server (misses only — hits go through `license_hit`).
    fn ensure_fresh(&mut self, conn: usize, now: Instant) -> Result<(), ZkError> {
        if self.use_lease {
            // Every cached read is lease-or-barrier licensed — even a
            // clean-session miss, whose local read at a lagging replica
            // would otherwise be arbitrarily stale. On an unchanged
            // connection our own acked writes are already applied at the
            // serving replica, and a live lease bounds everyone else's —
            // so a valid lease substitutes for the barrier.
            if self.lease_license(conn, now) {
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

    /// Hold `g`, which the server granted no earlier than `asked`.
    fn adopt(&mut self, conn: usize, g: LeaseGrant, asked: Instant) {
        self.conns[conn].lease = Some(LeaseState {
            expires: asked + Duration::from_millis(u64::from(g.ttl_ms)),
            reconnects: self.inner.reconnects(conn),
        });
        self.cache.stats_mut().lease_renewals += 1;
    }
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
            ZkRequest::Sync => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_coord::Watch;

    /// A `SyncThenLocal` session on a manual clock (`start + elapsed`)
    /// whose ping takes 80 ms of it to come back with a 100 ms grant; it
    /// counts pings and barriers, and owes a barrier (`is_dirty`) for good
    /// when `dirty`.
    struct SlowGrant {
        start: Instant,
        elapsed: Duration,
        pings: u32,
        barriers: u32,
        dirty: bool,
    }

    impl Default for SlowGrant {
        fn default() -> Self {
            SlowGrant {
                start: Instant::now(),
                elapsed: Duration::ZERO,
                pings: 0,
                barriers: 0,
                dirty: false,
            }
        }
    }

    impl CoordService for SlowGrant {
        fn request(&mut self, req: ZkRequest) -> ZkResponse {
            match req {
                ZkRequest::GetData { .. } => {
                    ZkResponse::Data { data: Bytes::from_static(b"d"), stat: Stat::default() }
                }
                other => panic!("unexpected request {other:?}"),
            }
        }

        fn consistency(&self) -> ReadConsistency {
            ReadConsistency::SyncThenLocal
        }

        fn ping_lease(&mut self, _conn: usize) -> Result<Option<LeaseGrant>, ZkError> {
            self.pings += 1;
            self.elapsed += Duration::from_millis(80);
            Ok(Some(LeaseGrant { ttl_ms: 100, epoch: 1 }))
        }

        fn is_dirty(&self, _conn: usize) -> bool {
            self.dirty
        }

        fn barrier(&mut self, _conn: usize) -> Result<(), ZkError> {
            self.barriers += 1;
            Ok(())
        }

        fn now(&self) -> Instant {
            self.start + self.elapsed
        }
    }

    #[test]
    fn a_pinged_lease_counts_from_the_ask() {
        let mut c = Cached::new(SlowGrant::default());
        // A miss, licensed by one ping, then a hit under the same grant.
        c.get_data("/a", Watch::None).unwrap();
        c.get_data("/a", Watch::None).unwrap();
        assert_eq!((c.inner().pings, c.inner().barriers), (1, 0), "two reads within the ttl");
        // The grant's 100 ms ran from the ask, 80 ms before the first read
        // returned: 40 ms after it, the lease is spent.
        c.inner_mut().elapsed += Duration::from_millis(40);
        assert!(!c.lease_valid(), "a grant outlived its ttl counted from the ask");
        c.get_data("/a", Watch::None).unwrap();
        assert_eq!((c.inner().pings, c.inner().barriers), (2, 0), "one renewal after expiry");
        assert_eq!(c.stats().hits, 2);
    }

    /// A grant of 100 ms asked at `t` licenses reads up to `t + 100 ms − 1 ns`
    /// and none at `t + 100 ms`.
    #[test]
    fn a_lease_expires_exactly_a_ttl_after_the_ask() {
        let mut c = Cached::new(SlowGrant::default());
        c.get_data("/a", Watch::None).unwrap();
        let ttl = Duration::from_millis(100);
        c.inner_mut().elapsed = ttl - Duration::from_nanos(1);
        assert!(c.lease_valid(), "a grant lapsed before its ttl");
        c.inner_mut().elapsed = ttl;
        assert!(!c.lease_valid(), "a grant outlived its ttl");
    }

    /// A miss on a connection that owes a barrier: with leases on it rides
    /// the held grant instead, and counts the barrier it skipped; with
    /// leases off it pays exactly one barrier.
    #[test]
    fn an_owed_barrier_rides_a_held_lease() {
        let owing = || SlowGrant { dirty: true, ..SlowGrant::default() };
        let mut c = Cached::new(owing());
        for (i, path) in ["/a", "/b", "/c"].into_iter().enumerate() {
            c.get_data(path, Watch::None).unwrap();
            assert_eq!(c.inner().barriers, 0, "miss {i} barriered under a lease");
            assert_eq!(c.stats().barriers_skipped, i as u64 + 1);
        }
        let mut c = CacheBuilder::new().lease(false).session(owing());
        for (i, path) in ["/a", "/b", "/c"].into_iter().enumerate() {
            c.get_data(path, Watch::None).unwrap();
            assert_eq!(c.inner().barriers, i as u32 + 1, "one barrier per miss");
        }
        assert_eq!((c.inner().pings, c.stats().barriers_skipped), (0, 0));
    }
}
