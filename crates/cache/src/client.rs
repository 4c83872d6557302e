//! [`CachedClient`] — a live [`ZkClient`] session wrapped with the
//! [`MetaCache`] and the staleness-lease protocol.
//!
//! ## Who owns the barrier
//!
//! The inner client is forced to [`ReadConsistency::Local`] so its
//! `read_request` never inserts `sync` barriers of its own; this wrapper
//! re-implements the `SyncThenLocal` trigger (barrier owed — see
//! [`ZkClient::is_dirty`] — or replica switch since the last barrier)
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
//!   [`ZkClient::sync_coalesced`], riding any no-op proposal already in
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
//! otherwise), which preserves read-your-writes but — like PR 5 — does not
//! bound how stale a foreign write may appear.
//!
//! Correctness never depends on clocks beyond the lease bound: with leases
//! disabled (or none grantable — elections, partitioned replica) every
//! path degrades to the plain barrier protocol.
//!
//! ## Invalidation
//!
//! Before every cached read the wrapper drains the session's pending watch
//! notifications into evictions, and compares the transport's reconnect
//! counter against the cache's epoch: any movement flushes the whole cache
//! and drops the lease, because watches armed on the lost session may have
//! fired unseen. [`ReadConsistency::Linearizable`] sessions bypass the
//! cache entirely.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::runtime::{ClientTransport, ZkClient};
use dufs_coord::sharded::ShardedClient;
use dufs_coord::{LeaseGrant, ReadConsistency, Watch};
use dufs_zkstore::{CreateMode, MultiOp, MultiResult, Stat, ZkError};

use crate::meta::Lookup;
use crate::shared::{CacheRef, SharedCache, DEFAULT_SHARED_MAX_AGE};
use crate::{CacheStats, CachedShardedClient, MetaCache};

/// Cache construction knobs — one shape for private and shared caches.
/// Prefer building through [`CacheBuilder`], which also mints the shared
/// handle; the struct stays public (and `..Default::default()`-friendly)
/// for call sites that configure a field or two inline.
#[derive(Debug, Clone, Copy)]
pub struct CacheOptions {
    /// Maximum cached entries before a full flush (spread across lock
    /// shards for a shared cache).
    pub capacity: usize,
    /// Adopt staleness leases to skip `SyncThenLocal` barriers. Off, the
    /// wrapper still caches but barriers exactly like PR 5's client.
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

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions {
            capacity: MetaCache::DEFAULT_CAPACITY,
            lease: true,
            negative_ttl: MetaCache::DEFAULT_NEGATIVE_TTL,
            shared_max_age: DEFAULT_SHARED_MAX_AGE,
        }
    }
}

/// The one construction path for cached sessions — private or shared,
/// plain or sharded:
///
/// ```ignore
/// // One process-wide cache, many sessions:
/// let shared = CacheBuilder::new().capacity(32_768).shared();
/// let mut a = shared.session(cluster.client(opts)?);
/// let mut b = shared.session(cluster.client(opts)?);
///
/// // A private per-session cache (PR 8 shape):
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
    /// [`SharedCache::session`] / [`SharedCache::session_sharded`].
    pub fn shared(self) -> SharedCache {
        SharedCache::from_options(self.opts)
    }

    /// A cached session over a private cache.
    pub fn session<T: ClientTransport>(self, inner: ZkClient<T>) -> CachedClient<T> {
        CachedClient::new(inner, self.opts)
    }

    /// A cached sharded session over a private cache.
    pub fn session_sharded<T: ClientTransport>(
        self,
        inner: ShardedClient<T>,
    ) -> CachedShardedClient<T> {
        CachedShardedClient::new(inner, self.opts)
    }
}

impl SharedCache {
    /// Attach a live session to this shared cache. The session licenses
    /// its own hits (lease or barrier, per the builder's options), so the
    /// staleness bound holds per reader even though the store is shared.
    pub fn session<T: ClientTransport>(&self, inner: ZkClient<T>) -> CachedClient<T> {
        CachedClient::attached(inner, CacheRef::attach(self), self.opts)
    }

    /// Attach a live sharded session to this shared cache.
    pub fn session_sharded<T: ClientTransport>(
        &self,
        inner: ShardedClient<T>,
    ) -> CachedShardedClient<T> {
        CachedShardedClient::attached(inner, CacheRef::attach(self), self.opts)
    }
}

/// An adopted lease: valid while unexpired *and* the transport has not
/// reconnected since the grant was received — a grant from the previous
/// connection says nothing about the replica now serving us.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeaseState {
    granted: Instant,
    ttl: Duration,
    /// Leader epoch the grant named (diagnostics; safety rides on the ttl).
    pub epoch: u32,
    reconnects: u64,
}

impl LeaseState {
    pub(crate) fn adopt(g: LeaseGrant, reconnects: u64) -> Self {
        LeaseState {
            granted: Instant::now(),
            ttl: Duration::from_millis(u64::from(g.ttl_ms)),
            epoch: g.epoch,
            reconnects,
        }
    }

    pub(crate) fn valid(&self, reconnects: u64) -> bool {
        self.reconnects == reconnects && self.granted.elapsed() < self.ttl
    }
}

/// A [`ZkClient`] with the client-side metadata cache and lease protocol
/// in front of it. Construct with [`CachedClient::new`]; read/write
/// methods mirror the inner client's.
pub struct CachedClient<T: ClientTransport> {
    inner: ZkClient<T>,
    cache: CacheRef,
    desired: ReadConsistency,
    use_lease: bool,
    lease: Option<LeaseState>,
    /// `inner.reconnects()` when the cache was last known coherent.
    cache_rc: u64,
    /// `inner.reconnects()` at the last barrier this wrapper issued.
    barrier_rc: u64,
}

impl<T: ClientTransport> CachedClient<T> {
    /// Wrap an established session. The session's configured
    /// [`ReadConsistency`] becomes the level this wrapper *provides*; the
    /// inner client is downgraded to `Local` so the wrapper owns barriers
    /// (unless `Linearizable`, which bypasses the cache and keeps the
    /// inner client's sync-every-read behaviour).
    pub fn new(inner: ZkClient<T>, opts: CacheOptions) -> Self {
        let cache = CacheRef::private(&opts);
        Self::attached(inner, cache, opts)
    }

    /// Wrap a session around an already-built cache view (private or a
    /// [`SharedCache`] attachment — see [`SharedCache::session`]).
    pub(crate) fn attached(mut inner: ZkClient<T>, cache: CacheRef, opts: CacheOptions) -> Self {
        let desired = inner.consistency();
        if desired != ReadConsistency::Linearizable {
            inner.set_consistency(ReadConsistency::Local);
        }
        let rc = inner.reconnects();
        CachedClient {
            inner,
            cache,
            desired,
            use_lease: opts.lease,
            lease: None,
            cache_rc: rc,
            barrier_rc: rc,
        }
    }

    /// Counters (cache + lease + barrier).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The consistency level this wrapper provides.
    pub fn consistency(&self) -> ReadConsistency {
        self.desired
    }

    /// Session id.
    pub fn session(&self) -> u64 {
        self.inner.session()
    }

    /// The wrapped client (read-only — transport stats, session state).
    pub fn inner(&self) -> &ZkClient<T> {
        &self.inner
    }

    /// The wrapped client. Mutating the namespace through it bypasses
    /// local invalidation (watches still protect other sessions' caches,
    /// and this cache too — one notification late).
    pub fn inner_mut(&mut self) -> &mut ZkClient<T> {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> ZkClient<T> {
        self.inner
    }

    /// Whether a lease currently licenses barrier-free reads.
    pub fn lease_valid(&self) -> bool {
        let rc = self.inner.reconnects();
        self.lease.as_ref().is_some_and(|l| l.valid(rc))
    }

    /// Leader epoch named by the currently-held lease (diagnostics).
    pub fn lease_epoch(&self) -> Option<u32> {
        self.lease.as_ref().map(|l| l.epoch)
    }

    // ---------------------------------------------------------------- reads

    /// Cached `zoo_get`.
    pub fn get_data(&mut self, path: &str) -> Result<(Bytes, Stat), ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.get_data(path, Watch::None);
        }
        self.maintain();
        if self.cache.has_data(path) {
            // Licensing may talk to the server; anything it learns (fired
            // watches, a reconnect) must land before the entry is served.
            self.license_hit()?;
            self.maintain();
        }
        match self.cache.lookup_data(path) {
            Lookup::Hit(hit) => return Ok(hit),
            Lookup::Negative => return Err(ZkError::NoNode),
            Lookup::Miss => {}
        }
        self.ensure_fresh()?;
        let rc = self.inner.reconnects();
        match self.inner.get_data(path, Watch::Set) {
            Ok((data, stat)) => {
                if self.inner.reconnects() == rc {
                    self.cache.put_data(path, data.clone(), stat);
                }
                Ok((data, stat))
            }
            // NoNode leaves no watch behind on a get, so the absence is
            // cached as a TTL-bounded negative entry.
            Err(ZkError::NoNode) => {
                if self.inner.reconnects() == rc {
                    self.cache.put_negative(path);
                }
                Err(ZkError::NoNode)
            }
            Err(e) => Err(e),
        }
    }

    /// Cached `zoo_exists` (absence is cached too — the existence watch
    /// fires on creation).
    pub fn exists(&mut self, path: &str) -> Result<Option<Stat>, ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.exists(path, Watch::None);
        }
        self.maintain();
        if self.cache.has_exists(path) {
            self.license_hit()?;
            self.maintain();
        }
        match self.cache.lookup_exists(path) {
            Lookup::Hit(stat) => return Ok(Some(stat)),
            Lookup::Negative => return Ok(None),
            Lookup::Miss => {}
        }
        self.ensure_fresh()?;
        let rc = self.inner.reconnects();
        let stat = self.inner.exists(path, Watch::Set)?;
        if self.inner.reconnects() == rc {
            // Absence lands in the negative store: still evicted by the
            // existence watch the read left behind, but TTL-bounded like
            // every negative so shared readers age it out too.
            self.cache.put_exists(path, stat);
        }
        Ok(stat)
    }

    /// Cached `zoo_get_children`.
    pub fn get_children(&mut self, path: &str) -> Result<(Vec<String>, Stat), ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.get_children(path, Watch::None);
        }
        self.maintain();
        if self.cache.has_children(path) {
            self.license_hit()?;
            self.maintain();
        }
        if let Some(hit) = self.cache.get_children(path) {
            return Ok(hit);
        }
        self.ensure_fresh()?;
        let rc = self.inner.reconnects();
        let (names, stat) = self.inner.get_children(path, Watch::Set)?;
        if self.inner.reconnects() == rc {
            self.cache.put_children(path, names.clone(), stat);
        }
        Ok((names, stat))
    }

    /// Uncached batched listing (children + data in one round trip) at this
    /// wrapper's consistency level.
    pub fn get_children_data(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        if self.desired != ReadConsistency::Linearizable {
            self.maintain();
            self.ensure_fresh()?;
        }
        self.inner.get_children_data(path)
    }

    /// READDIRPLUS bulk warm: one round trip returns the listing with
    /// every child's data and stat and leaves one-shot watches behind
    /// (child watch on the parent, data watch on each child) — then the
    /// whole result is installed into the cache, so subsequent
    /// `get_children`/`get_data`/`exists` calls on the directory and its
    /// children are hits. Replaces the N+1 list-then-get warm loop.
    pub fn warm_children(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            // Linearizable sessions bypass the cache; serve the listing
            // without installing anything.
            return self.inner.get_children_data(path);
        }
        self.maintain();
        self.ensure_fresh()?;
        let rc = self.inner.reconnects();
        let (entries, stat) = self.inner.warm_children(path)?;
        if self.inner.reconnects() == rc {
            let names: Vec<String> = entries.iter().map(|(n, _, _)| n.clone()).collect();
            self.cache.put_children(path, names, stat);
            for (name, data, cstat) in &entries {
                let child = if path == "/" { format!("/{name}") } else { format!("{path}/{name}") };
                self.cache.put_data(&child, data.clone(), *cstat);
            }
            self.cache.stats_mut().bulk_warms += 1;
        }
        Ok(entries)
    }

    // ------------------------------------------------------------ mutations

    /// `zoo_create`; evicts the path and its parent's listing.
    pub fn create(&mut self, path: &str, data: Bytes, mode: CreateMode) -> Result<String, ZkError> {
        let r = self.inner.create(path, data, mode);
        self.cache.invalidate_local(path);
        r
    }

    /// Create with missing-ancestor materialization.
    pub fn create_path(
        &mut self,
        path: &str,
        data: Bytes,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        let r = self.inner.create_path(path, data, mode);
        // Ancestors may have been minted: evict the whole chain.
        let mut p = path.to_string();
        loop {
            self.cache.invalidate_local(&p);
            match p.rfind('/') {
                Some(0) | None => break,
                Some(i) => p.truncate(i),
            }
        }
        r
    }

    /// `zoo_delete`.
    pub fn delete(&mut self, path: &str, version: Option<u32>) -> Result<(), ZkError> {
        let r = self.inner.delete(path, version);
        self.cache.invalidate_local(path);
        r
    }

    /// `zoo_set`.
    pub fn set_data(
        &mut self,
        path: &str,
        data: Bytes,
        version: Option<u32>,
    ) -> Result<Stat, ZkError> {
        let r = self.inner.set_data(path, data, version);
        self.cache.invalidate_local(path);
        r
    }

    /// Atomic multi-op; evicts every touched path.
    pub fn multi(&mut self, ops: Vec<MultiOp>) -> Result<Vec<MultiResult>, ZkError> {
        for op in &ops {
            match op {
                MultiOp::Create { path, .. }
                | MultiOp::Delete { path, .. }
                | MultiOp::SetData { path, .. } => self.cache.invalidate_local(path),
                MultiOp::Check { .. } => {}
            }
        }
        self.inner.multi(ops)
    }

    /// Explicit strict barrier (flushes nothing; just recency).
    pub fn sync(&mut self) -> Result<u64, ZkError> {
        let z = self.inner.sync()?;
        self.barrier_rc = self.inner.reconnects();
        Ok(z)
    }

    // ------------------------------------------------------------ internals

    /// Drain watch notifications into evictions and detect reconnects.
    /// MUST run before every cache lookup: a hit served without it could
    /// predate a fired watch or a lost session.
    fn maintain(&mut self) {
        while let Some(note) = self.inner.take_watch() {
            self.cache.invalidate_watch(&note);
        }
        let rc = self.inner.reconnects();
        if rc != self.cache_rc {
            // Watches may have fired while we were disconnected; the server
            // does not replay them. Nothing cached can be trusted, and a
            // lease from the old connection says nothing about the new one.
            self.cache.invalidate_reconnect();
            self.lease = None;
            self.cache_rc = rc;
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
    fn lease_license(&mut self) -> bool {
        if !self.use_lease {
            return false;
        }
        let rc = self.inner.reconnects();
        if rc != self.barrier_rc {
            // A grant only speaks for the replica it came from.
            return false;
        }
        if let Some(g) = self.inner.pushed_lease() {
            self.adopt(g);
        }
        if self.lease.as_ref().is_some_and(|l| l.valid(rc)) {
            return true;
        }
        // Renew synchronously: one RTT, same cost as the barrier it
        // replaces, but the grant then covers reads for a whole ttl.
        if let Ok((_, Some(g))) = self.inner.ping_lease() {
            if self.inner.reconnects() == rc {
                self.adopt(g);
                return true;
            }
        }
        false
    }

    /// Issue the real barrier (coalesced when possible) and remember the
    /// connection it certified.
    fn barrier(&mut self) -> Result<(), ZkError> {
        let (_, coalesced) = self.inner.sync_coalesced()?;
        if coalesced {
            self.cache.stats_mut().barriers_coalesced += 1;
        }
        self.barrier_rc = self.inner.reconnects();
        Ok(())
    }

    /// Freshness decision for a read about to be served **from the cache**.
    /// A hit costs no server round trip, so nothing would ever notice a
    /// dead replica whose watches stopped flowing — the entry would be
    /// served stale forever. With leases on, a hit therefore requires a
    /// live grant (ping-renewed at most once per ttl; the ping doubles as
    /// the liveness probe) or, failing that, a real barrier. With leases
    /// off, watch freshness is trusted on an unchanged connection — PR 5
    /// semantics, where foreign staleness is unbounded anyway. The dirty
    /// flag is irrelevant here: this session's own mutations already
    /// evicted exactly the paths they touched, so a surviving entry cannot
    /// hide one of our writes.
    fn license_hit(&mut self) -> Result<(), ZkError> {
        if self.desired != ReadConsistency::SyncThenLocal {
            return Ok(()); // Local trusts watches; Linearizable never gets here
        }
        if self.use_lease {
            if self.lease_license() {
                return Ok(());
            }
        } else if self.inner.reconnects() == self.barrier_rc {
            return Ok(());
        }
        self.barrier()
    }

    /// The `SyncThenLocal` freshness decision for a read that is about to
    /// go to the server (misses only — hits go through `license_hit`).
    fn ensure_fresh(&mut self) -> Result<(), ZkError> {
        if self.desired != ReadConsistency::SyncThenLocal {
            return Ok(()); // Local never barriers; Linearizable never gets here
        }
        if self.use_lease {
            // Every cached read is lease-or-barrier licensed — even a
            // clean-session miss, whose local read at a lagging replica
            // would otherwise be arbitrarily stale. On an unchanged
            // connection our own acked writes are already applied at the
            // serving replica, and a live lease bounds everyone else's —
            // so a valid lease substitutes for the barrier.
            if self.lease_license() {
                if self.inner.is_dirty() {
                    // Only count skips where the lease-off protocol would
                    // actually have barriered (a moved connection never
                    // gets here: it is not lease-licensed).
                    self.cache.stats_mut().barriers_skipped += 1;
                }
                return Ok(());
            }
        } else if !self.inner.is_dirty() && self.inner.reconnects() == self.barrier_rc {
            return Ok(());
        }
        self.barrier()
    }

    fn adopt(&mut self, g: LeaseGrant) {
        self.lease = Some(LeaseState::adopt(g, self.inner.reconnects()));
        self.cache.stats_mut().lease_renewals += 1;
    }
}
