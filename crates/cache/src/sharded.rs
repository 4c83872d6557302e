//! [`CachedShardedClient`] — the cache and lease protocol over a
//! [`ShardedClient`] (PR 6's namespace sharding). One cache store spans
//! all shards (entries are keyed by path; routing decides which shard
//! validates them), while leases and barrier state are **per shard** — a
//! lease speaks only for the replica that granted it.
//!
//! Invalidation follows the unsharded wrapper
//! ([`crate::CachedClient`]) with two sharding-specific rules:
//!
//! * a reconnect on *any* shard session flushes the whole cache (entries
//!   are cheap; reasoning about which paths routed through the lost
//!   session is not), detected per read against the serving shard and
//!   lazily for the others;
//! * a shard-layout change (ring epoch bump) also flushes everything —
//!   entries cached under the old routing may now be validated by watches
//!   on the wrong shard.

use std::collections::HashMap;

use bytes::Bytes;

use dufs_coord::runtime::ClientTransport;
use dufs_coord::sharded::ShardedClient;
use dufs_coord::{ReadConsistency, Watch};
use dufs_zkstore::{MultiOp, Stat, ZkError};

use crate::client::{CacheOptions, LeaseState};
use crate::meta::Lookup;
use crate::shared::CacheRef;
use crate::CacheStats;

/// Per-shard lease/barrier bookkeeping.
#[derive(Debug, Default, Clone, Copy)]
struct ShardFresh {
    lease: Option<LeaseState>,
    /// Shard transport reconnects at the last barrier through this shard.
    barrier_rc: u64,
    /// Shard transport reconnects when the cache last trusted this shard.
    cache_rc: u64,
}

/// A [`ShardedClient`] with the client-side metadata cache in front of it.
pub struct CachedShardedClient<T: ClientTransport> {
    inner: ShardedClient<T>,
    cache: CacheRef,
    desired: ReadConsistency,
    use_lease: bool,
    shards: HashMap<usize, ShardFresh>,
    ring_epoch: u64,
}

impl<T: ClientTransport> CachedShardedClient<T> {
    /// Wrap a connected sharded session; see [`crate::CachedClient::new`]
    /// for the consistency-ownership contract.
    pub fn new(inner: ShardedClient<T>, opts: CacheOptions) -> Self {
        let cache = CacheRef::private(&opts);
        Self::attached(inner, cache, opts)
    }

    /// Wrap a sharded session around an already-built cache view (see
    /// [`crate::SharedCache::session_sharded`]).
    pub(crate) fn attached(
        mut inner: ShardedClient<T>,
        cache: CacheRef,
        opts: CacheOptions,
    ) -> Self {
        let desired = inner.shard_client(0).consistency();
        if desired != ReadConsistency::Linearizable {
            inner.set_consistency(ReadConsistency::Local);
        }
        let mut shards = HashMap::new();
        for s in 0..inner.shard_count() {
            let rc = inner.shard_client(s).reconnects();
            shards.insert(s, ShardFresh { lease: None, barrier_rc: rc, cache_rc: rc });
        }
        let ring_epoch = inner.epoch();
        CachedShardedClient { inner, cache, desired, use_lease: opts.lease, shards, ring_epoch }
    }

    /// Counters (cache + lease + barrier, summed over shards).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The wrapped sharded client (read-only — transport stats).
    pub fn inner(&self) -> &ShardedClient<T> {
        &self.inner
    }

    /// The wrapped sharded client (uncached escape hatch — digests, 2PC).
    pub fn inner_mut(&mut self) -> &mut ShardedClient<T> {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> ShardedClient<T> {
        self.inner
    }

    /// Content digest of the logical user namespace (uncached; barriers
    /// every shard itself).
    pub fn user_digest(&mut self) -> Result<u64, ZkError> {
        self.inner.user_digest()
    }

    // ---------------------------------------------------------------- reads

    /// Cached sharded `get_data`.
    pub fn get_data(&mut self, path: &str) -> Result<(Bytes, Stat), ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.get_data(path);
        }
        self.maintain();
        let s = self.inner.route(path);
        self.check_shard(s);
        if self.cache.has_data(path) {
            // Licensing may probe the shard; fold anything it learned in
            // before serving (see the unsharded wrapper for the rationale).
            self.license_hit(s)?;
            self.maintain();
            self.check_shard(s);
        }
        match self.cache.lookup_data(path) {
            Lookup::Hit(hit) => return Ok(hit),
            Lookup::Negative => return Err(ZkError::NoNode),
            Lookup::Miss => {}
        }
        self.ensure_fresh(s)?;
        let rc = self.inner.shard_client(s).reconnects();
        match self.inner.shard_client(s).get_data(path, Watch::Set) {
            Ok((data, stat)) => {
                if self.inner.shard_client(s).reconnects() == rc {
                    self.cache.put_data(path, data.clone(), stat);
                }
                Ok((data, stat))
            }
            Err(ZkError::NoNode) => {
                if self.inner.shard_client(s).reconnects() == rc {
                    self.cache.put_negative(path);
                }
                Err(ZkError::NoNode)
            }
            Err(e) => Err(e),
        }
    }

    /// Cached sharded `exists`.
    pub fn exists(&mut self, path: &str) -> Result<Option<Stat>, ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.exists(path);
        }
        self.maintain();
        let s = self.inner.route(path);
        self.check_shard(s);
        if self.cache.has_exists(path) {
            self.license_hit(s)?;
            self.maintain();
            self.check_shard(s);
        }
        match self.cache.lookup_exists(path) {
            Lookup::Hit(stat) => return Ok(Some(stat)),
            Lookup::Negative => return Ok(None),
            Lookup::Miss => {}
        }
        self.ensure_fresh(s)?;
        let rc = self.inner.shard_client(s).reconnects();
        let stat = self.inner.shard_client(s).exists(path, Watch::Set)?;
        if self.inner.shard_client(s).reconnects() == rc {
            self.cache.put_exists(path, stat);
        }
        Ok(stat)
    }

    /// Cached sharded `get_children` (with the unmaterialized-directory
    /// fallback of [`ShardedClient::get_children`]; the fallback result is
    /// served uncached — no watch guards it on the children-owner shard).
    pub fn get_children(&mut self, path: &str) -> Result<Vec<String>, ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            return self.inner.get_children(path);
        }
        self.maintain();
        let s = self.inner.route_children(path);
        self.check_shard(s);
        if self.cache.has_children(path) {
            self.license_hit(s)?;
            self.maintain();
            self.check_shard(s);
        }
        if let Some((names, _)) = self.cache.get_children(path) {
            return Ok(names);
        }
        self.ensure_fresh(s)?;
        let rc = self.inner.shard_client(s).reconnects();
        match self.inner.shard_client(s).get_children(path, Watch::Set) {
            Ok((names, stat)) => {
                if self.inner.shard_client(s).reconnects() == rc {
                    self.cache.put_children(path, names.clone(), stat);
                }
                Ok(names)
            }
            Err(ZkError::NoNode) => {
                // Never materialized on its children-owner shard: empty if
                // the node itself exists on its owner shard.
                if self.exists(path)?.is_some() {
                    Ok(Vec::new())
                } else {
                    Err(ZkError::NoNode)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// READDIRPLUS-style bulk warm through the children-owner shard: one
    /// round trip returns names + data + stats and installs one-shot
    /// watches server-side; everything is installed into the cache (see
    /// [`crate::CachedClient::warm_children`]).
    pub fn warm_children(&mut self, path: &str) -> Result<Vec<(String, Bytes, Stat)>, ZkError> {
        if self.desired == ReadConsistency::Linearizable {
            let names = self.inner.get_children(path)?;
            let mut out = Vec::with_capacity(names.len());
            for n in names {
                let child = if path == "/" { format!("/{n}") } else { format!("{path}/{n}") };
                if let Ok((d, s)) = self.inner.get_data(&child) {
                    out.push((n, d, s));
                }
            }
            return Ok(out);
        }
        self.maintain();
        let s = self.inner.route_children(path);
        self.check_shard(s);
        self.ensure_fresh(s)?;
        let rc = self.inner.shard_client(s).reconnects();
        let (entries, stat) = self.inner.warm_children(path)?;
        if self.inner.shard_client(s).reconnects() == rc {
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

    /// Sharded create (`mkdir -p` ancestors on the owning shard).
    pub fn create(&mut self, path: &str, data: Bytes) -> Result<String, ZkError> {
        let r = self.inner.create(path, data);
        // Ancestors may have been minted along the way.
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

    /// Sharded delete (may run as a 2PC across owner/children shards).
    pub fn delete(&mut self, path: &str, version: Option<u32>) -> Result<(), ZkError> {
        let r = self.inner.delete(path, version);
        self.cache.invalidate_local(path);
        r
    }

    /// Sharded `set_data`.
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

    /// Sharded multi (single-shard native, cross-shard 2PC).
    pub fn multi(&mut self, ops: Vec<MultiOp>) -> Result<(), ZkError> {
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

    /// Atomic rename.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), ZkError> {
        let r = self.inner.rename(src, dst);
        self.cache.invalidate_local(src);
        self.cache.invalidate_local(dst);
        r
    }

    /// Barrier the shards that owe one (strict); returns how many were
    /// barriered.
    pub fn sync(&mut self) -> Result<usize, ZkError> {
        let n = self.inner.sync()?;
        for s in 0..self.inner.shard_count() {
            let rc = self.inner.shard_client(s).reconnects();
            self.shards.entry(s).or_default().barrier_rc = rc;
        }
        Ok(n)
    }

    // ------------------------------------------------------------ internals

    fn maintain(&mut self) {
        // Re-arms the shard-config watch and adopts layout changes.
        let _ = self.inner.maybe_refresh();
        while let Some(note) = self.inner.take_watch() {
            self.cache.invalidate_watch(&note);
        }
        let epoch = self.inner.epoch();
        if epoch != self.ring_epoch {
            // Routing moved: entries may now be validated by watches on the
            // wrong shard. Start over.
            self.cache.invalidate_reconnect();
            for f in self.shards.values_mut() {
                f.lease = None;
            }
            self.ring_epoch = epoch;
        }
    }

    /// Reconnect detection for the shard about to serve a read.
    fn check_shard(&mut self, s: usize) {
        let rc = self.inner.shard_client(s).reconnects();
        let f = self.shards.entry(s).or_default();
        if rc != f.cache_rc {
            f.cache_rc = rc;
            f.lease = None;
            self.cache.invalidate_reconnect();
        }
    }

    /// Per-shard lease licensing; mirrors [`crate::CachedClient`]'s
    /// `lease_license` (the renewal ping doubles as the liveness probe for
    /// this shard's replica).
    fn lease_license(&mut self, s: usize) -> bool {
        if !self.use_lease {
            return false;
        }
        let rc = self.inner.shard_client(s).reconnects();
        let f = *self.shards.entry(s).or_default();
        if rc != f.barrier_rc {
            return false;
        }
        if let Some(g) = self.inner.shard_client(s).pushed_lease() {
            self.adopt(s, g, rc);
        }
        if self.shards.get(&s).and_then(|f| f.lease).is_some_and(|l| l.valid(rc)) {
            return true;
        }
        if let Ok((_, Some(g))) = self.inner.shard_client(s).ping_lease() {
            if self.inner.shard_client(s).reconnects() == rc {
                self.adopt(s, g, rc);
                return true;
            }
        }
        false
    }

    /// Real barrier through shard `s` (coalesced when possible).
    fn barrier(&mut self, s: usize) -> Result<(), ZkError> {
        let (_, coalesced) = self.inner.shard_client(s).sync_coalesced()?;
        if coalesced {
            self.cache.stats_mut().barriers_coalesced += 1;
        }
        let rc = self.inner.shard_client(s).reconnects();
        self.shards.entry(s).or_default().barrier_rc = rc;
        Ok(())
    }

    /// Hit licensing against the serving shard; mirrors
    /// [`crate::CachedClient`]'s `license_hit` (a hit costs no round trip,
    /// so a silently-dead shard replica must be probed before its entries
    /// are served).
    fn license_hit(&mut self, s: usize) -> Result<(), ZkError> {
        if self.desired != ReadConsistency::SyncThenLocal {
            return Ok(());
        }
        if self.use_lease {
            if self.lease_license(s) {
                return Ok(());
            }
        } else {
            let rc = self.inner.shard_client(s).reconnects();
            if rc == self.shards.entry(s).or_default().barrier_rc {
                return Ok(());
            }
        }
        self.barrier(s)
    }

    /// Per-shard `SyncThenLocal` freshness decision for misses; mirrors
    /// [`crate::CachedClient`]'s `ensure_fresh`.
    fn ensure_fresh(&mut self, s: usize) -> Result<(), ZkError> {
        if self.desired != ReadConsistency::SyncThenLocal {
            return Ok(());
        }
        if self.use_lease {
            if self.lease_license(s) {
                if self.inner.shard_client(s).is_dirty() {
                    self.cache.stats_mut().barriers_skipped += 1;
                }
                return Ok(());
            }
        } else {
            let rc = self.inner.shard_client(s).reconnects();
            let f = *self.shards.entry(s).or_default();
            if !self.inner.shard_client(s).is_dirty() && rc == f.barrier_rc {
                return Ok(());
            }
        }
        self.barrier(s)
    }

    fn adopt(&mut self, s: usize, g: dufs_coord::LeaseGrant, rc: u64) {
        self.shards.entry(s).or_default().lease = Some(LeaseState::adopt(g, rc));
        self.cache.stats_mut().lease_renewals += 1;
    }
}
