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
//! full flush at `capacity` entries) and lookups skip the shard hash.
//!
//! ## Why sharing is sound — the ownership tag
//!
//! A private cache entry is protected by the server-side one-shot watch the
//! installing session left behind: the watch notification arrives on *that
//! session's* transport, and the session drains it before every lookup. A
//! foreign session attached to the same store never sees those
//! notifications — so a foreign entry cannot be trusted indefinitely.
//! Every entry therefore carries the attach id of the session that
//! installed it plus its install time, and a lookup applies two rules:
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
use dufs_coord::WatchNotification;
use dufs_zkstore::path::parent;
use dufs_zkstore::Stat;

use crate::cached::CacheOptions;
use crate::CacheStats;

/// Lock shards in the store. Paths hash to a shard; sessions touching
/// different shards never contend.
const LOCK_SHARDS: usize = 16;

/// Default trust window for entries installed by *another* session: the
/// lease quantum plus its grant margin. A reader licensed by an unexpired
/// lease already accepts this much staleness, so a foreign entry no older
/// than it introduces no new staleness class.
pub const DEFAULT_SHARED_MAX_AGE: Duration = Duration::from_millis(LEASE_MS + LEASE_MARGIN_MS);

/// A cached value tagged with who installed it and when.
#[derive(Debug, Clone)]
struct Entry<V> {
    v: V,
    owner: u64,
    installed: Instant,
}

impl<V> Entry<V> {
    fn new(v: V, owner: u64) -> Self {
        Entry { v, owner, installed: Instant::now() }
    }
}

/// Outcome of a counting lookup that may be served by a negative entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Lookup<T> {
    /// A cached positive result.
    Hit(T),
    /// A valid cached absence: answer `NoNode` with no round trip.
    Negative,
    /// Nothing cached (an expired negative entry counts here, after being
    /// dropped): go to the coordination service.
    Miss,
}

/// Non-counting lookup outcome (the per-session [`CacheRef`] does the
/// accounting against its own stats).
enum Raw<T> {
    Hit(T),
    Negative,
    Expired,
    Miss,
}

#[derive(Debug, Default)]
struct Shard {
    data: HashMap<String, Entry<(Bytes, Stat)>>,
    exists: HashMap<String, Entry<Stat>>,
    children: HashMap<String, Entry<(Vec<String>, Stat)>>,
    /// Cached absences; `Entry<()>` for the owner/installed stamps.
    neg: HashMap<String, Entry<()>>,
}

impl Shard {
    fn len(&self) -> usize {
        self.data.len() + self.exists.len() + self.children.len() + self.neg.len()
    }

    fn clear(&mut self) -> bool {
        let any = self.len() > 0;
        self.data.clear();
        self.exists.clear();
        self.children.clear();
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
/// * inserting into a full lock shard flushes that shard (correct — only
///   cached reads are dropped — and adequate for metadata working sets).
#[derive(Debug)]
pub struct SharedMetaCache {
    shards: Vec<Mutex<Shard>>,
    /// Entries per lock shard before that shard is flushed wholesale.
    shard_capacity: usize,
    negative_ttl: Duration,
    shared_max_age: Duration,
    next_attach: AtomicU64,
}

impl SharedMetaCache {
    fn new(opts: &CacheOptions, lock_shards: usize) -> Self {
        assert!(opts.capacity >= 1);
        SharedMetaCache {
            shards: (0..lock_shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: opts.capacity.div_ceil(lock_shards),
            negative_ttl: opts.negative_ttl,
            shared_max_age: opts.shared_max_age,
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

    /// Whether `me` may trust a positive entry.
    fn fresh<V>(&self, e: &Entry<V>, me: u64) -> bool {
        e.owner == me || e.installed.elapsed() < self.shared_max_age
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

    fn lookup_data(&self, path: &str, me: u64) -> Raw<(Bytes, Stat)> {
        let mut s = self.shard(path).lock();
        match s.data.get(path) {
            Some(e) if self.fresh(e, me) => return Raw::Hit(e.v.clone()),
            Some(_) => {
                s.data.remove(path);
            }
            None => {}
        }
        self.lookup_negative(&mut s, path)
    }

    fn lookup_exists(&self, path: &str, me: u64) -> Raw<Stat> {
        let mut s = self.shard(path).lock();
        match s.exists.get(path) {
            Some(e) if self.fresh(e, me) => return Raw::Hit(e.v),
            Some(_) => {
                s.exists.remove(path);
            }
            None => {}
        }
        self.lookup_negative(&mut s, path)
    }

    fn lookup_negative<T>(&self, s: &mut Shard, path: &str) -> Raw<T> {
        match s.neg.get(path) {
            Some(e) if e.installed.elapsed() < self.negative_ttl => Raw::Negative,
            Some(_) => {
                s.neg.remove(path);
                Raw::Expired
            }
            None => Raw::Miss,
        }
    }

    fn lookup_children(&self, path: &str, me: u64) -> Option<(Vec<String>, Stat)> {
        let mut s = self.shard(path).lock();
        match s.children.get(path) {
            Some(e) if self.fresh(e, me) => Some(e.v.clone()),
            Some(_) => {
                s.children.remove(path);
                None
            }
            None => None,
        }
    }

    fn has_data(&self, path: &str, me: u64) -> bool {
        let s = self.shard(path).lock();
        s.data.get(path).is_some_and(|e| self.fresh(e, me))
            || s.neg.get(path).is_some_and(|e| e.installed.elapsed() < self.negative_ttl)
    }

    fn has_exists(&self, path: &str, me: u64) -> bool {
        let s = self.shard(path).lock();
        s.exists.get(path).is_some_and(|e| self.fresh(e, me))
            || s.neg.get(path).is_some_and(|e| e.installed.elapsed() < self.negative_ttl)
    }

    fn has_children(&self, path: &str, me: u64) -> bool {
        self.shard(path).lock().children.get(path).is_some_and(|e| self.fresh(e, me))
    }

    fn put_data(&self, path: &str, data: Bytes, stat: Stat, me: u64) {
        let mut s = self.shard(path).lock();
        self.make_room(&mut s);
        s.neg.remove(path);
        s.data.insert(path.into(), Entry::new((data, stat), me));
        s.exists.insert(path.into(), Entry::new(stat, me));
    }

    fn put_exists(&self, path: &str, stat: Stat, me: u64) {
        let mut s = self.shard(path).lock();
        self.make_room(&mut s);
        s.neg.remove(path);
        s.exists.insert(path.into(), Entry::new(stat, me));
    }

    fn put_children(&self, path: &str, names: Vec<String>, stat: Stat, me: u64) {
        let mut s = self.shard(path).lock();
        self.make_room(&mut s);
        s.children.insert(path.into(), Entry::new((names, stat), me));
    }

    fn put_negative(&self, path: &str, me: u64) {
        let mut s = self.shard(path).lock();
        self.make_room(&mut s);
        s.data.remove(path);
        s.exists.remove(path);
        s.neg.insert(path.into(), Entry::new((), me));
    }

    fn make_room(&self, s: &mut Shard) {
        if s.len() >= self.shard_capacity {
            s.clear();
        }
    }

    /// Evict everything invalidated by an observed mutation of `path`:
    /// all entry kinds for the path, the parent's listing, and every
    /// cached absence directly under the path (the mutation may have been
    /// a create below it). Returns whether anything was dropped.
    fn evict(&self, path: &str) -> bool {
        let mut any = {
            let mut s = self.shard(path).lock();
            let mut a = s.data.remove(path).is_some();
            a |= s.exists.remove(path).is_some();
            a |= s.children.remove(path).is_some();
            a |= s.neg.remove(path).is_some();
            a
        };
        if let Some(dir) = parent(path) {
            any |= self.shard(dir).lock().children.remove(dir).is_some();
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
    pub(crate) fn from_options(opts: CacheOptions) -> Self {
        SharedCache { store: Arc::new(SharedMetaCache::new(&opts, LOCK_SHARDS)), opts }
    }

    /// Total cached entries across all lock shards (negatives included).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached entry (all attached sessions start cold).
    pub fn flush(&self) {
        self.store.flush();
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
    /// the whole store exactly.
    pub(crate) fn private(opts: &CacheOptions) -> Self {
        let store = Arc::new(SharedMetaCache::new(opts, 1));
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

    // ---------------------------------------------------------------- peeks

    pub(crate) fn has_data(&self, path: &str) -> bool {
        self.store.has_data(path, self.owner)
    }

    pub(crate) fn has_exists(&self, path: &str) -> bool {
        self.store.has_exists(path, self.owner)
    }

    pub(crate) fn has_children(&self, path: &str) -> bool {
        self.store.has_children(path, self.owner)
    }

    // -------------------------------------------------------- counting gets

    pub(crate) fn lookup_data(&mut self, path: &str) -> Lookup<(Bytes, Stat)> {
        let raw = self.store.lookup_data(path, self.owner);
        self.count(raw)
    }

    pub(crate) fn lookup_exists(&mut self, path: &str) -> Lookup<Stat> {
        let raw = self.store.lookup_exists(path, self.owner);
        self.count(raw)
    }

    /// A valid cached absence counts as a hit *and* a negative hit; an
    /// expired one (already dropped by the store) as a miss plus a negative
    /// expiry.
    fn count<T>(&mut self, raw: Raw<T>) -> Lookup<T> {
        match raw {
            Raw::Hit(v) => {
                self.stats.hits += 1;
                Lookup::Hit(v)
            }
            Raw::Negative => {
                self.stats.hits += 1;
                self.stats.negative_hits += 1;
                Lookup::Negative
            }
            Raw::Expired => {
                self.stats.negative_expiries += 1;
                self.stats.misses += 1;
                Lookup::Miss
            }
            Raw::Miss => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    pub(crate) fn get_children(&mut self, path: &str) -> Option<(Vec<String>, Stat)> {
        let hit = self.store.lookup_children(path, self.owner);
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    // ----------------------------------------------------------------- puts

    pub(crate) fn put_data(&mut self, path: &str, data: Bytes, stat: Stat) {
        self.store.put_data(path, data, stat, self.owner);
    }

    pub(crate) fn put_exists(&mut self, path: &str, stat: Option<Stat>) {
        match stat {
            Some(s) => self.store.put_exists(path, s, self.owner),
            None => self.store.put_negative(path, self.owner),
        }
    }

    pub(crate) fn put_children(&mut self, path: &str, names: Vec<String>, stat: Stat) {
        self.store.put_children(path, names, stat, self.owner);
    }

    pub(crate) fn put_negative(&mut self, path: &str) {
        self.store.put_negative(path, self.owner);
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
    use crate::cached::CacheOptions;

    fn stat() -> Stat {
        Stat::default()
    }

    fn shared(opts: CacheOptions) -> SharedCache {
        SharedCache::from_options(opts)
    }

    fn private(opts: CacheOptions) -> CacheRef {
        CacheRef::private(&opts)
    }

    fn note(path: &str, event: dufs_coord::watch::WatchEventKind) -> WatchNotification {
        WatchNotification { path: path.into(), event }
    }

    // ---- the private (one owner, one lock shard) face of the store

    #[test]
    fn hits_misses_and_rate() {
        let mut c = private(CacheOptions::default());
        assert_eq!(c.lookup_data("/x"), Lookup::Miss);
        c.put_data("/x", Bytes::from_static(b"v"), stat());
        assert!(matches!(c.lookup_data("/x"), Lookup::Hit(_)));
        assert!(matches!(c.lookup_exists("/x"), Lookup::Hit(_)), "put_data also answers exists");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn watch_evicts_path_and_parent_listing() {
        let mut c = private(CacheOptions::default());
        c.put_data("/d/f", Bytes::new(), stat());
        c.put_children("/d", vec!["f".into()], stat());
        c.invalidate_watch(&note("/d/f", dufs_coord::watch::WatchEventKind::DataChanged));
        assert_eq!(c.lookup_data("/d/f"), Lookup::Miss);
        assert!(c.get_children("/d").is_none(), "parent listing evicted too");
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn local_mutation_evicts() {
        let mut c = private(CacheOptions::default());
        c.put_exists("/a", None);
        c.invalidate_local("/a");
        assert_eq!(c.lookup_exists("/a"), Lookup::Miss);
        assert_eq!(c.stats().local_invalidations, 1);
        // Evicting a cold path counts nothing.
        c.invalidate_local("/cold");
        assert_eq!(c.stats().local_invalidations, 1);
    }

    #[test]
    fn reconnect_flushes_everything() {
        let mut c = private(CacheOptions::default());
        c.put_data("/a", Bytes::new(), stat());
        c.put_children("/", vec!["a".into()], stat());
        c.invalidate_reconnect();
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().reconnect_invalidations, 1);
        // Flushing an empty cache is not an invalidation event.
        c.invalidate_reconnect();
        assert_eq!(c.stats().reconnect_invalidations, 1);
    }

    #[test]
    fn private_capacity_bounds_total_entries() {
        let mut c = private(CacheOptions { capacity: 4, ..CacheOptions::default() });
        for i in 0..10 {
            c.put_data(&format!("/n{i}"), Bytes::new(), stat());
        }
        assert!(c.len() <= 4 + 1, "full flush keeps the cache bounded");
    }

    /// A private cache's capacity is store-wide, not sliced per lock shard:
    /// a working set just under the default capacity (8 000 `put_data`s =
    /// 16 000 entries, the end-to-end benchmark's hot set) must fit whole.
    #[test]
    fn private_default_capacity_holds_an_8000_file_hot_set() {
        let mut c = private(CacheOptions::default());
        for i in 0..8_000 {
            c.put_data(&format!("/r{:03}/f{i:05}", i % 16), Bytes::from_static(b"meta"), stat());
        }
        for i in 0..8_000 {
            let p = format!("/r{:03}/f{i:05}", i % 16);
            assert!(matches!(c.lookup_data(&p), Lookup::Hit(_)), "{p} was flushed");
        }
        assert_eq!((c.stats().hits, c.stats().misses), (8_000, 0));
    }

    #[test]
    fn negative_entries_hit_then_expire() {
        let mut c = private(CacheOptions {
            negative_ttl: Duration::from_millis(40),
            ..CacheOptions::default()
        });
        assert_eq!(c.lookup_data("/gone"), Lookup::Miss);
        c.put_negative("/gone");
        assert!(c.has_data("/gone"), "the peek sees a valid absence");
        assert_eq!(c.lookup_data("/gone"), Lookup::Negative);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.negative_hits), (1, 1, 1));
        std::thread::sleep(Duration::from_millis(60));
        assert!(!c.has_data("/gone"), "TTL lapsed");
        assert_eq!(c.lookup_data("/gone"), Lookup::Miss);
        let s = c.stats();
        assert_eq!(s.negative_expiries, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn observed_create_under_parent_drops_sibling_negatives() {
        let mut c = private(CacheOptions::default());
        c.put_negative("/d/missing-a");
        c.put_negative("/d/missing-b");
        c.put_negative("/e/other");
        // A children-changed watch on /d (some create happened under it).
        c.invalidate_watch(&note("/d", dufs_coord::watch::WatchEventKind::ChildrenChanged));
        assert!(!c.has_data("/d/missing-a"));
        assert!(!c.has_data("/d/missing-b"));
        assert!(c.has_data("/e/other"), "unrelated negatives survive");
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn positive_results_and_own_mutations_override_negatives() {
        let mut c = private(CacheOptions::default());
        c.put_negative("/f");
        c.put_data("/f", Bytes::from_static(b"v"), stat());
        assert_eq!(c.lookup_data("/f"), Lookup::Hit((Bytes::from_static(b"v"), stat())));
        assert_eq!(c.stats().negative_hits, 0, "the positive result replaced the absence");
        c.put_negative("/g");
        c.invalidate_local("/g");
        assert!(!c.has_data("/g"), "own create evicts the cached absence");
    }

    // ---- the shared (many owners, sharded locks) face

    #[test]
    fn own_entries_trusted_foreign_entries_age_out() {
        let h = shared(CacheOptions {
            shared_max_age: Duration::from_millis(40),
            ..CacheOptions::default()
        });
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put_data("/x", Bytes::from_static(b"v"), stat());
        assert!(matches!(b.lookup_data("/x"), Lookup::Hit(_)), "fresh foreign entry serves");
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(a.lookup_data("/x"), Lookup::Hit(_)), "owner trusts it indefinitely");
        assert!(matches!(b.lookup_data("/x"), Lookup::Miss), "foreign reader ages it out");
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn one_sessions_eviction_clears_for_all() {
        let h = shared(CacheOptions::default());
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put_data("/d/f", Bytes::new(), stat());
        a.put_children("/d", vec!["f".into()], stat());
        b.invalidate_local("/d/f");
        assert!(matches!(a.lookup_data("/d/f"), Lookup::Miss));
        assert!(a.get_children("/d").is_none(), "parent listing evicted for everyone");
        assert_eq!(b.stats().local_invalidations, 1, "the evicting session counts it");
        assert_eq!(a.stats().local_invalidations, 0);
    }

    #[test]
    fn reconnect_on_any_session_flushes_the_store() {
        let h = shared(CacheOptions::default());
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put_data("/x", Bytes::new(), stat());
        b.invalidate_reconnect();
        assert_eq!(h.len(), 0);
        assert!(matches!(a.lookup_data("/x"), Lookup::Miss));
        assert_eq!(b.stats().reconnect_invalidations, 1);
    }

    #[test]
    fn negatives_are_ttl_bounded_for_everyone_and_evicted_by_sibling_creates() {
        let h = shared(CacheOptions {
            negative_ttl: Duration::from_millis(40),
            ..CacheOptions::default()
        });
        let mut a = CacheRef::attach(&h);
        let mut b = CacheRef::attach(&h);
        a.put_negative("/d/missing");
        assert!(matches!(a.lookup_data("/d/missing"), Lookup::Negative));
        assert!(matches!(b.lookup_exists("/d/missing"), Lookup::Negative), "absence shared too");
        assert_eq!(b.stats().negative_hits, 1);
        // A create observed under the parent clears the cached absence.
        b.invalidate_watch(&WatchNotification {
            path: "/d".into(),
            event: dufs_coord::watch::WatchEventKind::ChildrenChanged,
        });
        assert!(matches!(a.lookup_data("/d/missing"), Lookup::Miss));
        // TTL expiry, for the owner as much as anyone.
        a.put_negative("/d/missing");
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(a.lookup_data("/d/missing"), Lookup::Miss));
        assert_eq!(a.stats().negative_expiries, 1);
    }

    #[test]
    fn shard_capacity_bounds_the_store() {
        let h = shared(CacheOptions { capacity: 64, ..CacheOptions::default() });
        let mut a = CacheRef::attach(&h);
        for i in 0..1_000 {
            a.put_data(&format!("/n{i}"), Bytes::new(), stat());
        }
        // Each put inserts a data + exists pair; a lock shard flushes when
        // it reaches its slice of the capacity, so the store stays within
        // one overflowing insert per shard of the configured bound.
        assert!(h.len() <= 64 + 2 * LOCK_SHARDS, "len {} exceeds bound", h.len());
    }

    #[test]
    fn concurrent_sessions_do_not_corrupt_the_store() {
        let h = shared(CacheOptions::default());
        let mut joins = Vec::new();
        for t in 0..8 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                let mut c = CacheRef::attach(&h);
                for i in 0..500 {
                    let p = format!("/t{}/n{}", t % 4, i % 50);
                    c.put_data(&p, Bytes::from_static(b"v"), stat());
                    let _ = c.lookup_data(&p);
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
