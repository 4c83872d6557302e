//! [`SharedCache`] — one metadata cache per client *process*, shared by
//! every session attached to it.
//!
//! This module is the **one cache store** of the crate. With a private
//! store per session, an N-session client process fetches every hot path N
//! times and keeps N copies; a [`SharedMetaCache`] is a process-wide
//! resource instead: internally sharded locks (paths hash to one of a fixed
//! set of mutex-guarded shards, so concurrent sessions rarely contend),
//! bounded per shard, handed around as a cheaply-cloneable [`SharedCache`]
//! handle. A *private* cache is the same store built with a single lock
//! shard and a single owner: its capacity bound is then store-wide (one
//! full flush before an insert would pass [`CAPACITY`] entries) and
//! lookups skip the shard hash.
//!
//! The store reads no clock. Every call that stamps or ages an entry takes
//! `now` from the session that makes it, so a test drives the store on a
//! clock of its own.
//!
//! ## Why sharing is sound — the ownership tag
//!
//! A private cache entry is protected by the server-side one-shot watch the
//! installing session left behind: the watch notification arrives on *that
//! session's* transport, and the session drains it before every lookup. A
//! foreign session attached to the same store never sees those
//! notifications — so a foreign entry cannot be trusted indefinitely.
//! Every entry therefore carries the attach id of the session that
//! installed it plus its install time (on that session's clock,
//! [`dufs_coord::CoordService::now`]), and a lookup applies two rules:
//!
//! * **own entry** — trusted as long as it sits in the cache (the watch
//!   protocol makes it exactly as fresh as a private cache's entry);
//! * **foreign entry** — trusted only while younger than the configured
//!   `shared_max_age` (default: the lease quantum plus its margin, i.e.
//!   [`LEASE_MS`]` + `[`LEASE_MARGIN_MS`]). The installing session's watch
//!   *usually* evicts a stale entry much sooner (any session's `maintain`
//!   drains into the shared store, evicting for all attached sessions);
//!   the age bound covers the installing session going idle and never
//!   draining again. Combined with per-session lease licensing — each
//!   reader still licenses its own hits — every `SyncThenLocal` read stays
//!   inside the same staleness bound the private cache proved.
//!
//! Any attached session's transport reconnect flushes the *entire* shared
//! store (watches for every session's entries may have fired unseen — the
//! conservative rule the private cache already applied to itself).
//!
//! ## Negative entries
//!
//! Cached absences (`exists == None`, `NoNode` on `get_data`) live in a
//! separate negative store. A `NoNode` reply installs no watch, so negative
//! entries are TTL-bounded for *every* reader — owner included — and are
//! additionally evicted the moment any mutation is observed on the path or
//! directly under its parent (a create-heavy workload's children-changed
//! watches clear stale absences long before the TTL does).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use dufs_coord::server::{LEASE_MARGIN_MS, LEASE_MS};
use dufs_coord::{WatchNotification, ZkResponse};
use dufs_zkstore::path::{self as zkpath, parent};
use dufs_zkstore::{Stat, ZkError};

use crate::cached::CacheOptions;
use crate::CacheStats;

/// Lock shards in the store. Paths hash to a shard; sessions touching
/// different shards never contend.
const LOCK_SHARDS: usize = 16;

/// Entries the store holds before it flushes (store-wide for a private
/// cache; spread across lock shards for a shared one). An 8 000-file hot
/// set (two entries per file) fits whole.
pub const CAPACITY: usize = 16_384;

/// How long a cached absence may be served: the lease quantum. An
/// unexpired lease already licenses reads up to this staleness, so a
/// cached absence no older than it adds no new staleness class.
const NEGATIVE_TTL: Duration = Duration::from_millis(LEASE_MS);

/// Default trust window for entries installed by *another* session: the
/// lease quantum plus its grant margin. A reader licensed by an unexpired
/// lease already accepts this much staleness, so a foreign entry no older
/// than it introduces no new staleness class.
pub const DEFAULT_SHARED_MAX_AGE: Duration = Duration::from_millis(LEASE_MS + LEASE_MARGIN_MS);

/// The cached read kinds; each has its own map in a lock shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    Data,
    Exists,
    Children,
}

impl Read {
    /// The reply that says the node is absent — cached as a negative entry
    /// — or `None` for a kind whose absence is an error nobody caches.
    fn absence(self) -> Option<ZkResponse> {
        match self {
            Read::Data => Some(ZkResponse::Error(ZkError::NoNode)),
            Read::Exists => Some(ZkResponse::ExistsResult(None)),
            Read::Children => None,
        }
    }
}

/// A cached reply tagged with who installed it and when.
#[derive(Debug)]
struct Entry {
    v: ZkResponse,
    owner: u64,
    installed: Instant,
}

/// What the store holds for a read (the per-session [`CacheRef`] counts
/// it against its own stats).
#[derive(Debug)]
pub(crate) enum Lookup {
    /// A cached positive reply.
    Hit(ZkResponse),
    /// A valid cached absence: answer it with no round trip.
    Negative,
    /// A cached absence past its TTL, now dropped: go to the service.
    Expired,
    /// Nothing cached: go to the service.
    Miss,
}

#[derive(Debug, Default)]
struct Shard {
    /// Positive replies, one map per [`Read`] kind.
    pos: [HashMap<String, Entry>; 3],
    /// Cached absences and when they were installed.
    neg: HashMap<String, Instant>,
}

impl Shard {
    fn len(&self) -> usize {
        self.pos.iter().map(HashMap::len).sum::<usize>() + self.neg.len()
    }

    fn clear(&mut self) -> bool {
        let any = self.len() > 0;
        self.pos.iter_mut().for_each(HashMap::clear);
        self.neg.clear();
        any
    }
}

/// The store: sharded locks, owner-tagged entries, bounded per shard.
/// Use through [`SharedCache`] (many sessions, 16 lock shards) or a
/// private `CacheRef` (one session, one shard).
///
/// **Invalidation rules** (the server's one-shot watches make them sound —
/// every entry is installed together with a watch, and any mutation of the
/// node fires that watch before a subsequent read could re-cache stale
/// state):
///
/// * a watch event or own mutation on `p` evicts all entry kinds for `p`
///   *and* the `children` entry of `p`'s parent (creates and deletes
///   change the parent's listing; data changes don't, but telling them
///   apart buys too little to special-case), plus every cached absence
///   directly under `p`;
/// * a transport reconnect evicts **everything** — watches armed on the
///   lost session may have fired while disconnected, and the server does
///   not replay them;
/// * an insert that would take a lock shard past its slice of the capacity
///   flushes that shard first (correct — only cached reads are dropped —
///   and adequate for metadata working sets).
#[derive(Debug)]
pub struct SharedMetaCache {
    shards: Vec<Mutex<Shard>>,
    /// Entries per lock shard before that shard is flushed wholesale.
    shard_capacity: usize,
    shared_max_age: Duration,
    next_attach: AtomicU64,
}

impl SharedMetaCache {
    fn new(capacity: usize, lock_shards: usize, shared_max_age: Duration) -> Self {
        SharedMetaCache {
            shards: (0..lock_shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(lock_shards),
            shared_max_age,
            next_attach: AtomicU64::new(1),
        }
    }

    fn shard(&self, path: &str) -> &Mutex<Shard> {
        if let [only] = &self.shards[..] {
            return only;
        }
        let mut h = DefaultHasher::new();
        path.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Whether `me` may trust a positive entry at `now`.
    fn fresh(&self, e: &Entry, me: u64, now: Instant) -> bool {
        e.owner == me || now.saturating_duration_since(e.installed) < self.shared_max_age
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn flush(&self) -> bool {
        let mut any = false;
        for s in &self.shards {
            any |= s.lock().clear();
        }
        any
    }

    /// What the store holds for a `kind` read of `path` at `now`. A stale
    /// foreign entry or a lapsed absence is dropped on the way.
    fn lookup(&self, kind: Read, path: &str, me: u64, now: Instant) -> Lookup {
        let mut s = self.shard(path).lock();
        let map = &mut s.pos[kind as usize];
        match map.get(path) {
            Some(e) if self.fresh(e, me, now) => return Lookup::Hit(e.v.clone()),
            Some(_) => {
                map.remove(path);
            }
            None => {}
        }
        if kind.absence().is_none() {
            return Lookup::Miss;
        }
        match s.neg.get(path) {
            Some(&at) if now.saturating_duration_since(at) < NEGATIVE_TTL => Lookup::Negative,
            Some(_) => {
                s.neg.remove(path);
                Lookup::Expired
            }
            None => Lookup::Miss,
        }
    }

    /// Whether a `kind` read of `path` would be answered at `now`, without
    /// dropping anything.
    fn has(&self, kind: Read, path: &str, me: u64, now: Instant) -> bool {
        let s = self.shard(path).lock();
        s.pos[kind as usize].get(path).is_some_and(|e| self.fresh(e, me, now))
            || kind.absence().is_some()
                && s.neg
                    .get(path)
                    .is_some_and(|&at| now.saturating_duration_since(at) < NEGATIVE_TTL)
    }

    /// Install what a watched `kind` read of `path` returned, stamped
    /// `now`: a positive reply (a data reply answers `Exists` too), or an
    /// absence as a negative entry. Any other reply installs nothing.
    fn put(&self, kind: Read, path: &str, resp: &ZkResponse, me: u64, now: Instant) {
        let absent = kind.absence().as_ref() == Some(resp);
        let adds = match (kind, resp) {
            (Read::Data, ZkResponse::Data { .. }) => 2,
            (Read::Exists, ZkResponse::ExistsResult(Some(_)))
            | (Read::Children, ZkResponse::Children { .. }) => 1,
            _ if absent => 1,
            _ => return,
        };
        let mut s = self.shard(path).lock();
        if s.len() + adds > self.shard_capacity {
            s.clear();
        }
        if absent {
            s.pos[Read::Data as usize].remove(path);
            s.pos[Read::Exists as usize].remove(path);
            s.neg.insert(path.into(), now);
            return;
        }
        let entry = |v| Entry { v, owner: me, installed: now };
        if let ZkResponse::Data { stat, .. } = resp {
            let exists = ZkResponse::ExistsResult(Some(*stat));
            s.pos[Read::Exists as usize].insert(path.into(), entry(exists));
        }
        if kind != Read::Children {
            s.neg.remove(path);
        }
        s.pos[kind as usize].insert(path.into(), entry(resp.clone()));
    }

    /// Evict everything invalidated by an observed mutation of `path`:
    /// all entry kinds for the path, the parent's listing, and every
    /// cached absence directly under the path (the mutation may have been
    /// a create below it). Returns whether anything was dropped.
    fn evict(&self, path: &str) -> bool {
        let mut any = {
            let mut s = self.shard(path).lock();
            let mut a = s.neg.remove(path).is_some();
            for map in &mut s.pos {
                a |= map.remove(path).is_some();
            }
            a
        };
        if let Some(dir) = parent(path) {
            any |= self.shard(dir).lock().pos[Read::Children as usize].remove(dir).is_some();
        }
        // Negatives for children of `path` hash to arbitrary shards: scan
        // them all (each lock taken and released independently — never
        // nested, so no ordering concerns).
        for sh in &self.shards {
            let mut s = sh.lock();
            let before = s.neg.len();
            s.neg.retain(|p, _| parent(p) != Some(path));
            any |= s.neg.len() != before;
        }
        any
    }
}

/// Cheaply-cloneable handle to a process-wide [`SharedMetaCache`]. Every
/// clone refers to the same store; sessions attach with
/// [`SharedCache::session`].
#[derive(Debug, Clone)]
pub struct SharedCache {
    pub(crate) store: Arc<SharedMetaCache>,
    /// The options the builder configured; attached sessions inherit them
    /// (lease licensing in particular), so one builder describes the whole
    /// process's cache behaviour.
    pub(crate) opts: CacheOptions,
}

impl SharedCache {
    /// A store of `capacity` entries over [`LOCK_SHARDS`] lock shards.
    pub(crate) fn new(capacity: usize, opts: CacheOptions) -> Self {
        let store = SharedMetaCache::new(capacity, LOCK_SHARDS, opts.shared_max_age);
        SharedCache { store: Arc::new(store), opts }
    }

    /// Total cached entries across all lock shards (negatives included).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A session's view of a cache store: an owner tag, a reference to the
/// (possibly shared) [`SharedMetaCache`], and this session's private
/// counters. All accounting — hits, misses, invalidations — is
/// per-session even when the store is shared, so per-rank aggregation
/// (`aggregate_cache_stats`) keeps meaning what it always meant.
#[derive(Debug)]
pub(crate) struct CacheRef {
    store: Arc<SharedMetaCache>,
    owner: u64,
    stats: CacheStats,
}

impl CacheRef {
    /// A private store: one owner and one lock shard, so `capacity` bounds
    /// the whole store exactly (and no entry is foreign, so none ages).
    pub(crate) fn private(capacity: usize) -> Self {
        let store = Arc::new(SharedMetaCache::new(capacity, 1, Duration::ZERO));
        CacheRef { store, owner: 0, stats: CacheStats::default() }
    }

    /// Entries in the underlying store (negatives included).
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Attach to a shared store under a fresh owner id.
    pub(crate) fn attach(shared: &SharedCache) -> Self {
        let owner = shared.store.next_attach.fetch_add(1, Ordering::Relaxed);
        CacheRef { store: Arc::clone(&shared.store), owner, stats: CacheStats::default() }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Whether an entry that could answer the read is present. Counts
    /// nothing — the peek before deciding whether a hit needs licensing.
    pub(crate) fn has(&self, kind: Read, path: &str, now: Instant) -> bool {
        self.store.has(kind, path, self.owner, now)
    }

    /// The counting lookup: the cached reply, if any. A valid cached
    /// absence counts as a hit *and* a negative hit; an expired one
    /// (dropped by the store) as a miss plus a negative expiry.
    pub(crate) fn lookup(&mut self, kind: Read, path: &str, now: Instant) -> Option<ZkResponse> {
        match self.store.lookup(kind, path, self.owner, now) {
            Lookup::Hit(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            Lookup::Negative => {
                self.stats.hits += 1;
                self.stats.negative_hits += 1;
                kind.absence()
            }
            Lookup::Expired => {
                self.stats.negative_expiries += 1;
                self.stats.misses += 1;
                None
            }
            Lookup::Miss => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install what a watched `kind` read returned (see
    /// [`SharedMetaCache::put`]).
    pub(crate) fn put(&mut self, kind: Read, path: &str, resp: &ZkResponse, now: Instant) {
        self.store.put(kind, path, resp, self.owner, now);
    }

    /// Install a READDIRPLUS warm: the listing, then each child's data.
    pub(crate) fn put_warm(
        &mut self,
        path: &str,
        entries: &[(String, Bytes, Stat)],
        stat: Stat,
        now: Instant,
    ) {
        let names = entries.iter().map(|(n, _, _)| n.clone()).collect();
        self.put(Read::Children, path, &ZkResponse::Children { names, stat }, now);
        for (name, data, stat) in entries {
            let child = ZkResponse::Data { data: data.clone(), stat: *stat };
            self.put(Read::Data, &zkpath::join(path, name), &child, now);
        }
        self.stats.bulk_warms += 1;
    }

    // ---------------------------------------------------------- invalidation

    pub(crate) fn invalidate_watch(&mut self, note: &WatchNotification) {
        if self.store.evict(&note.path) {
            self.stats.watch_invalidations += 1;
        }
    }

    pub(crate) fn invalidate_local(&mut self, path: &str) {
        if self.store.evict(path) {
            self.stats.local_invalidations += 1;
        }
    }

    pub(crate) fn invalidate_reconnect(&mut self) {
        if self.store.flush() {
            self.stats.reconnect_invalidations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat() -> Stat {
        Stat::default()
    }

    fn data(v: &'static [u8]) -> ZkResponse {
        ZkResponse::Data { data: Bytes::from_static(v), stat: stat() }
    }

    fn listing(names: &[&str]) -> ZkResponse {
        ZkResponse::Children { names: names.iter().map(|n| n.to_string()).collect(), stat: stat() }
    }

    const NO_NODE: ZkResponse = ZkResponse::Error(ZkError::NoNode);
    const ABSENT: ZkResponse = ZkResponse::ExistsResult(None);

    fn shared() -> SharedCache {
        shared_with(CAPACITY, DEFAULT_SHARED_MAX_AGE)
    }

    fn shared_with(capacity: usize, shared_max_age: Duration) -> SharedCache {
        SharedCache::new(capacity, CacheOptions { shared_max_age, ..CacheOptions::default() })
    }

    fn private() -> CacheRef {
        CacheRef::private(CAPACITY)
    }

    fn note(path: &str, event: dufs_coord::watch::WatchEventKind) -> WatchNotification {
        WatchNotification { path: path.into(), event }
    }

    fn is_hit(r: Option<ZkResponse>) -> bool {
        matches!(r, Some(ZkResponse::Data { .. } | ZkResponse::ExistsResult(Some(_))))
    }

    // ---- the private (one owner, one lock shard) face of the store

    #[test]
    fn hits_misses_and_rate() {
        let t = Instant::now();
        let mut c = private();
        assert_eq!(c.lookup(Read::Data, "/x", t), None);
        c.put(Read::Data, "/x", &data(b"v"), t);
        assert!(is_hit(c.lookup(Read::Data, "/x", t)));
        assert!(is_hit(c.lookup(Read::Exists, "/x", t)), "a data install also answers exists");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn watch_evicts_path_and_parent_listing() {
        let t = Instant::now();
        let mut c = private();
        c.put(Read::Data, "/d/f", &data(b""), t);
        c.put(Read::Children, "/d", &listing(&["f"]), t);
        c.invalidate_watch(&note("/d/f", dufs_coord::watch::WatchEventKind::DataChanged));
        assert_eq!(c.lookup(Read::Data, "/d/f", t), None);
        assert!(c.lookup(Read::Children, "/d", t).is_none(), "parent listing evicted too");
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn local_mutation_evicts() {
        let t = Instant::now();
        let mut c = private();
        c.put(Read::Exists, "/a", &ABSENT, t);
        c.invalidate_local("/a");
        assert_eq!(c.lookup(Read::Exists, "/a", t), None);
        assert_eq!(c.stats().local_invalidations, 1);
        // Evicting a cold path counts nothing.
        c.invalidate_local("/cold");
        assert_eq!(c.stats().local_invalidations, 1);
    }

    #[test]
    fn reconnect_flushes_everything() {
        let t = Instant::now();
        let mut c = private();
        c.put(Read::Data, "/a", &data(b""), t);
        c.put(Read::Children, "/", &listing(&["a"]), t);
        c.invalidate_reconnect();
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().reconnect_invalidations, 1);
        // Flushing an empty cache is not an invalidation event.
        c.invalidate_reconnect();
        assert_eq!(c.stats().reconnect_invalidations, 1);
    }

    #[test]
    fn private_capacity_bounds_total_entries() {
        let t = Instant::now();
        let mut c = CacheRef::private(4);
        for i in 0..10 {
            c.put(Read::Data, &format!("/n{i}"), &data(b""), t);
        }
        assert!(c.len() <= 4 + 1, "full flush keeps the cache bounded");
    }

    /// The bound counts what an insert adds: a data install is two entries,
    /// so three exists entries and then one data install in a store of four
    /// flush first instead of leaving five.
    #[test]
    fn a_data_install_makes_room_for_both_its_entries() {
        let t = Instant::now();
        let mut c = CacheRef::private(4);
        for p in ["/a", "/b", "/c"] {
            c.put(Read::Exists, p, &ZkResponse::ExistsResult(Some(stat())), t);
        }
        c.put(Read::Data, "/d", &data(b"v"), t);
        assert!(c.len() <= 4, "{} entries in a store of 4", c.len());
        assert!(is_hit(c.lookup(Read::Data, "/d", t)), "the install itself survives its flush");
    }

    /// A private cache's capacity is store-wide, not sliced per lock shard:
    /// a working set just under the default capacity (8 000 data installs =
    /// 16 000 entries, the end-to-end benchmark's hot set) must fit whole.
    #[test]
    fn private_default_capacity_holds_an_8000_file_hot_set() {
        let t = Instant::now();
        let mut c = private();
        for i in 0..8_000 {
            c.put(Read::Data, &format!("/r{:03}/f{i:05}", i % 16), &data(b"meta"), t);
        }
        for i in 0..8_000 {
            let p = format!("/r{:03}/f{i:05}", i % 16);
            assert!(is_hit(c.lookup(Read::Data, &p, t)), "{p} was flushed");
        }
        assert_eq!((c.stats().hits, c.stats().misses), (8_000, 0));
    }

    #[test]
    fn negative_entries_hit_then_expire() {
        let t = Instant::now();
        let mut c = private();
        assert_eq!(c.lookup(Read::Data, "/gone", t), None);
        c.put(Read::Data, "/gone", &NO_NODE, t);
        assert!(c.has(Read::Data, "/gone", t), "the peek sees a valid absence");
        assert_eq!(c.lookup(Read::Data, "/gone", t), Some(NO_NODE));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.negative_hits), (1, 1, 1));
        let lapsed = t + NEGATIVE_TTL + Duration::from_millis(20);
        assert!(!c.has(Read::Data, "/gone", lapsed), "TTL lapsed");
        assert_eq!(c.lookup(Read::Data, "/gone", lapsed), None);
        let s = c.stats();
        assert_eq!(s.negative_expiries, 1);
        assert_eq!(s.misses, 2);
    }

    /// An absence and a foreign entry serve up to `installed + ttl − 1 ns`
    /// and not at `installed + ttl`.
    #[test]
    fn absences_and_foreign_entries_lapse_exactly_at_their_ttl() {
        let t = Instant::now();
        let age = Duration::from_millis(40);
        let h = shared_with(CAPACITY, age);
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        let ns = Duration::from_nanos(1);
        a.put(Read::Exists, "/gone", &ABSENT, t);
        a.put(Read::Data, "/x", &data(b"v"), t);
        assert!(b.has(Read::Exists, "/gone", t + NEGATIVE_TTL - ns));
        assert_eq!(b.lookup(Read::Exists, "/gone", t + NEGATIVE_TTL - ns), Some(ABSENT));
        assert!(!b.has(Read::Exists, "/gone", t + NEGATIVE_TTL));
        assert_eq!(b.lookup(Read::Exists, "/gone", t + NEGATIVE_TTL), None);
        assert!(b.has(Read::Data, "/x", t + age - ns));
        assert!(is_hit(b.lookup(Read::Data, "/x", t + age - ns)));
        assert!(!b.has(Read::Data, "/x", t + age));
        assert_eq!(b.lookup(Read::Data, "/x", t + age), None);
        let s = b.stats();
        assert_eq!((s.hits, s.negative_hits, s.negative_expiries, s.misses), (2, 1, 1, 2));
    }

    #[test]
    fn observed_create_under_parent_drops_sibling_negatives() {
        let t = Instant::now();
        let mut c = private();
        c.put(Read::Data, "/d/missing-a", &NO_NODE, t);
        c.put(Read::Data, "/d/missing-b", &NO_NODE, t);
        c.put(Read::Data, "/e/other", &NO_NODE, t);
        // A children-changed watch on /d (some create happened under it).
        c.invalidate_watch(&note("/d", dufs_coord::watch::WatchEventKind::ChildrenChanged));
        assert!(!c.has(Read::Data, "/d/missing-a", t));
        assert!(!c.has(Read::Data, "/d/missing-b", t));
        assert!(c.has(Read::Data, "/e/other", t), "unrelated negatives survive");
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn positive_results_and_own_mutations_override_negatives() {
        let t = Instant::now();
        let mut c = private();
        c.put(Read::Data, "/f", &NO_NODE, t);
        c.put(Read::Data, "/f", &data(b"v"), t);
        assert_eq!(c.lookup(Read::Data, "/f", t), Some(data(b"v")));
        assert_eq!(c.stats().negative_hits, 0, "the positive result replaced the absence");
        c.put(Read::Data, "/g", &NO_NODE, t);
        c.invalidate_local("/g");
        assert!(!c.has(Read::Data, "/g", t), "own create evicts the cached absence");
    }

    // ---- the shared (many owners, sharded locks) face

    #[test]
    fn own_entries_trusted_foreign_entries_age_out() {
        let t = Instant::now();
        let h = shared_with(CAPACITY, Duration::from_millis(40));
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put(Read::Data, "/x", &data(b"v"), t);
        assert!(is_hit(b.lookup(Read::Data, "/x", t)), "fresh foreign entry serves");
        let later = t + Duration::from_millis(60);
        assert!(is_hit(a.lookup(Read::Data, "/x", later)), "owner trusts it indefinitely");
        assert_eq!(b.lookup(Read::Data, "/x", later), None, "foreign reader ages it out");
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn one_sessions_eviction_clears_for_all() {
        let t = Instant::now();
        let h = shared();
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put(Read::Data, "/d/f", &data(b""), t);
        a.put(Read::Children, "/d", &listing(&["f"]), t);
        b.invalidate_local("/d/f");
        assert_eq!(a.lookup(Read::Data, "/d/f", t), None);
        assert!(a.lookup(Read::Children, "/d", t).is_none(), "parent listing evicted for everyone");
        assert_eq!(b.stats().local_invalidations, 1, "the evicting session counts it");
        assert_eq!(a.stats().local_invalidations, 0);
    }

    #[test]
    fn reconnect_on_any_session_flushes_the_store() {
        let t = Instant::now();
        let h = shared();
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put(Read::Data, "/x", &data(b""), t);
        b.invalidate_reconnect();
        assert_eq!(h.len(), 0);
        assert_eq!(a.lookup(Read::Data, "/x", t), None);
        assert_eq!(b.stats().reconnect_invalidations, 1);
    }

    #[test]
    fn negatives_are_ttl_bounded_for_everyone_and_evicted_by_sibling_creates() {
        let t = Instant::now();
        let h = shared();
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put(Read::Data, "/d/missing", &NO_NODE, t);
        assert_eq!(a.lookup(Read::Data, "/d/missing", t), Some(NO_NODE));
        assert_eq!(b.lookup(Read::Exists, "/d/missing", t), Some(ABSENT), "absence shared too");
        assert_eq!(b.stats().negative_hits, 1);
        // A create observed under the parent clears the cached absence.
        b.invalidate_watch(&WatchNotification {
            path: "/d".into(),
            event: dufs_coord::watch::WatchEventKind::ChildrenChanged,
        });
        assert_eq!(a.lookup(Read::Data, "/d/missing", t), None);
        // TTL expiry, for the owner as much as anyone.
        a.put(Read::Data, "/d/missing", &NO_NODE, t);
        let lapsed = t + NEGATIVE_TTL + Duration::from_millis(20);
        assert_eq!(a.lookup(Read::Data, "/d/missing", lapsed), None);
        assert_eq!(a.stats().negative_expiries, 1);
    }

    #[test]
    fn shard_capacity_bounds_the_store() {
        let t = Instant::now();
        let h = shared_with(64, DEFAULT_SHARED_MAX_AGE);
        let mut a = CacheRef::attach(&h);
        for i in 0..1_000 {
            a.put(Read::Data, &format!("/n{i}"), &data(b""), t);
        }
        // Each put inserts a data + exists pair; a lock shard flushes when
        // it reaches its slice of the capacity, so the store stays within
        // one overflowing insert per shard of the configured bound.
        assert!(h.len() <= 64 + 2 * LOCK_SHARDS, "len {} exceeds bound", h.len());
    }

    #[test]
    fn concurrent_sessions_do_not_corrupt_the_store() {
        let h = shared();
        let mut joins = Vec::new();
        for t in 0..8 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                let now = Instant::now();
                let mut c = CacheRef::attach(&h);
                for i in 0..500 {
                    let p = format!("/t{}/n{}", t % 4, i % 50);
                    c.put(Read::Data, &p, &data(b"v"), now);
                    let _ = c.lookup(Read::Data, &p, now);
                    if i % 7 == 0 {
                        c.invalidate_local(&p);
                    }
                }
                c.stats()
            }));
        }
        let mut total = CacheStats::default();
        for j in joins {
            total.absorb(&j.join().expect("no panics"));
        }
        assert_eq!(total.hits + total.misses, 8 * 500);
    }
}
