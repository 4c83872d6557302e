//! The cache proper: plain maps plus the invalidation rules, shared by the
//! sim-level wrapper (`dufs-core`'s `CachingCoord`) and the live clients
//! in this crate so both report one [`CacheStats`] shape and their
//! behaviour stays digest-comparable.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::server::LEASE_MS;
use dufs_coord::WatchNotification;
use dufs_zkstore::Stat;

/// Counters every cache flavour reports. One shared type: the sim cache,
/// the live thread-transport cache and the live TCP cache all fill in the
/// same fields, so experiment tables can be diffed across layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that went to the coordination service.
    pub misses: u64,
    /// Entries evicted by watch notifications (foreign mutations).
    pub watch_invalidations: u64,
    /// Entries evicted by this client's own mutations.
    pub local_invalidations: u64,
    /// Wholesale flushes forced by a transport reconnect (watches armed on
    /// the lost session may have fired unseen, so nothing cached survives).
    pub reconnect_invalidations: u64,
    /// Staleness-lease grants adopted (piggybacked or ping-renewed).
    pub lease_renewals: u64,
    /// Lease-licensed server reads that the lease-off rule would have
    /// barriered: the session owed a barrier (a write of its own abandoned
    /// with its outcome unknown, or still pipelined). A read after an
    /// *acked* write owes none and is not counted; a moved connection is
    /// never lease-licensed, so it always pays the real barrier.
    pub barriers_skipped: u64,
    /// Barriers that rode another session's in-flight no-op proposal.
    pub barriers_coalesced: u64,
    /// Reads answered from a cached *absence* (`NoNode` without a round
    /// trip). Every negative hit is also counted in `hits`.
    pub negative_hits: u64,
    /// Negative entries dropped because their TTL lapsed (the read that
    /// found them expired is counted in `misses`).
    pub negative_expiries: u64,
    /// READDIRPLUS bulk warms issued (one round trip installing a whole
    /// listing plus its watches).
    pub bulk_warms: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another client's counters into this one (per-rank aggregation).
    pub fn absorb(&mut self, o: &CacheStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.watch_invalidations += o.watch_invalidations;
        self.local_invalidations += o.local_invalidations;
        self.reconnect_invalidations += o.reconnect_invalidations;
        self.lease_renewals += o.lease_renewals;
        self.barriers_skipped += o.barriers_skipped;
        self.barriers_coalesced += o.barriers_coalesced;
        self.negative_hits += o.negative_hits;
        self.negative_expiries += o.negative_expiries;
        self.bulk_warms += o.bulk_warms;
    }
}

/// One line with every counter — the single format `mdtest_sim`'s
/// `CACHE STATS` report and `bench_reads` both print, so cache numbers
/// read identically across harnesses.
impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} misses {} (hit rate {:.1}%) | negative: hits {} expiries {} | \
             invalidations: watch {} local {} reconnect {} | \
             leases: renewals {} barriers skipped {} coalesced {} | bulk warms {}",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.negative_hits,
            self.negative_expiries,
            self.watch_invalidations,
            self.local_invalidations,
            self.reconnect_invalidations,
            self.lease_renewals,
            self.barriers_skipped,
            self.barriers_coalesced,
            self.bulk_warms,
        )
    }
}

/// Parent directory of a znode path (`/a/b` → `/a`, `/a` → `/`); `None`
/// for the root itself.
pub(crate) fn parent(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

/// Client-side metadata cache: `get_data`, `exists` and `get_children`
/// results keyed by path, with conservative invalidation.
///
/// **Invalidation rules** (the server's one-shot watches make them sound —
/// every entry is installed together with a watch, and any mutation of the
/// node fires that watch before a subsequent read could re-cache stale
/// state):
///
/// * a watch event or own mutation on `p` evicts all three entry kinds for
///   `p` *and* the `children` entry of `p`'s parent (creates and deletes
///   change the parent's listing; data changes don't, but telling them
///   apart buys too little to special-case);
/// * a transport reconnect evicts **everything** — watches armed on the
///   lost session may have fired while disconnected, and the server does
///   not replay them;
/// * inserting past `capacity` flushes the whole cache (correct — only
///   cached reads are dropped — and adequate for metadata working sets).
#[derive(Debug)]
pub struct MetaCache {
    data: HashMap<String, (Bytes, Stat)>,
    exists: HashMap<String, Option<Stat>>,
    children: HashMap<String, (Vec<String>, Stat)>,
    /// Cached absences (`NoNode` on `get_data`), each stamped at install
    /// time. A `NoNode` read leaves no watch behind, so unlike the three
    /// positive kinds these entries are *time*-bounded: valid only for
    /// [`MetaCache::negative_ttl`], and additionally evicted the moment any
    /// mutation is observed on the path or under its parent.
    neg: HashMap<String, Instant>,
    capacity: usize,
    negative_ttl: Duration,
    stats: CacheStats,
}

impl Default for MetaCache {
    fn default() -> Self {
        MetaCache {
            data: HashMap::new(),
            exists: HashMap::new(),
            children: HashMap::new(),
            neg: HashMap::new(),
            capacity: Self::DEFAULT_CAPACITY,
            negative_ttl: Self::DEFAULT_NEGATIVE_TTL,
            stats: CacheStats::default(),
        }
    }
}

/// Outcome of a counting lookup that may be served by a negative entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<T> {
    /// A cached positive result.
    Hit(T),
    /// A valid cached absence: answer `NoNode` with no round trip.
    Negative,
    /// Nothing cached (an expired negative entry counts here, after being
    /// dropped): go to the coordination service.
    Miss,
}

impl MetaCache {
    /// Default capacity (total entries across all kinds).
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Default negative-entry TTL: the lease quantum. An unexpired lease
    /// already licenses reads up to this staleness, so a cached absence no
    /// older than it adds no new staleness class.
    pub const DEFAULT_NEGATIVE_TTL: Duration = Duration::from_millis(LEASE_MS);

    /// Empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Empty cache holding at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1);
        MetaCache { capacity, ..Default::default() }
    }

    /// Set the negative-entry TTL (builder-style).
    pub fn with_negative_ttl(mut self, ttl: Duration) -> Self {
        self.negative_ttl = ttl;
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Mutable counters (the lease layer accounts its skips/renewals here
    /// so one struct describes the whole client).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Total cached entries (negative entries included).
    pub fn len(&self) -> usize {
        self.data.len() + self.exists.len() + self.children.len() + self.neg.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a `get_data` entry is present. Counts nothing — the client
    /// peeks before deciding whether a hit needs licensing, then re-probes
    /// with [`MetaCache::get_data`] (which does the accounting).
    pub fn has_data(&self, path: &str) -> bool {
        self.data.contains_key(path)
    }

    /// Whether an `exists` entry (presence *or* cached absence) is present.
    /// Counts nothing.
    pub fn has_exists(&self, path: &str) -> bool {
        self.exists.contains_key(path)
    }

    /// Whether a `get_children` entry is present. Counts nothing.
    pub fn has_children(&self, path: &str) -> bool {
        self.children.contains_key(path)
    }

    /// Cached `get_data` result. Counts a hit.
    pub fn get_data(&mut self, path: &str) -> Option<(Bytes, Stat)> {
        let hit = self.data.get(path).cloned();
        self.count(hit.is_some());
        hit
    }

    /// Cached `exists` result (outer `None` = not cached; inner `None` =
    /// cached absence). Counts a hit.
    pub fn get_exists(&mut self, path: &str) -> Option<Option<Stat>> {
        let hit = self.exists.get(path).copied();
        self.count(hit.is_some());
        hit
    }

    /// Cached `get_children` result. Counts a hit.
    pub fn get_children(&mut self, path: &str) -> Option<(Vec<String>, Stat)> {
        let hit = self.children.get(path).cloned();
        self.count(hit.is_some());
        hit
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Counting `get_data` lookup that also consults the negative store:
    /// a valid cached absence answers [`Lookup::Negative`] (counted as a
    /// hit *and* a negative hit); an expired one is dropped and counted as
    /// a miss plus a negative expiry.
    pub fn lookup_data(&mut self, path: &str) -> Lookup<(Bytes, Stat)> {
        if let Some(hit) = self.data.get(path).cloned() {
            self.stats.hits += 1;
            return Lookup::Hit(hit);
        }
        match self.neg.get(path) {
            Some(at) if at.elapsed() < self.negative_ttl => {
                self.stats.hits += 1;
                self.stats.negative_hits += 1;
                Lookup::Negative
            }
            Some(_) => {
                self.neg.remove(path);
                self.stats.negative_expiries += 1;
                self.stats.misses += 1;
                Lookup::Miss
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Whether a valid (unexpired) negative entry covers `path`. Counts
    /// nothing — the licensing peek for absences.
    pub fn has_negative(&self, path: &str) -> bool {
        matches!(self.neg.get(path), Some(at) if at.elapsed() < self.negative_ttl)
    }

    /// Cache an observed absence (`NoNode`), valid for the negative TTL.
    pub fn put_negative(&mut self, path: &str) {
        self.make_room();
        self.data.remove(path);
        self.exists.remove(path);
        self.neg.insert(path.into(), Instant::now());
    }

    /// Install a `get_data` result (read issued with a watch).
    pub fn put_data(&mut self, path: &str, data: Bytes, stat: Stat) {
        self.make_room();
        self.neg.remove(path);
        self.data.insert(path.into(), (data, stat));
        self.exists.insert(path.into(), Some(stat));
    }

    /// Install an `exists` result (read issued with a watch; absence is
    /// cacheable because the existence watch fires on creation).
    pub fn put_exists(&mut self, path: &str, stat: Option<Stat>) {
        self.make_room();
        if stat.is_some() {
            self.neg.remove(path);
        }
        self.exists.insert(path.into(), stat);
    }

    /// Install a `get_children` result (read issued with a watch).
    pub fn put_children(&mut self, path: &str, names: Vec<String>, stat: Stat) {
        self.make_room();
        self.children.insert(path.into(), (names, stat));
    }

    fn make_room(&mut self) {
        if self.len() >= self.capacity {
            self.data.clear();
            self.exists.clear();
            self.children.clear();
            self.neg.clear();
        }
    }

    fn evict(&mut self, path: &str) -> bool {
        let mut any = self.data.remove(path).is_some();
        any |= self.exists.remove(path).is_some();
        any |= self.children.remove(path).is_some();
        any |= self.neg.remove(path).is_some();
        if let Some(dir) = parent(path) {
            any |= self.children.remove(dir).is_some();
        }
        // Any observed mutation of `path` may be a create under it (a
        // children-changed watch fires on the parent): drop every cached
        // absence directly below it, so negative entries never outlive an
        // *observed* create the way they are allowed to outlive an
        // unobserved one.
        let before = self.neg.len();
        self.neg.retain(|p, _| parent(p) != Some(path));
        any | (self.neg.len() != before)
    }

    /// Apply a server watch notification. The event kind is not consulted:
    /// every kind evicts the path and its parent's listing (conservative,
    /// and `Deleted` fires for all kinds anyway).
    pub fn invalidate_watch(&mut self, note: &WatchNotification) {
        if self.evict(&note.path) {
            self.stats.watch_invalidations += 1;
        }
    }

    /// Evict after one of this client's own mutations of `path`.
    pub fn invalidate_local(&mut self, path: &str) {
        if self.evict(path) {
            self.stats.local_invalidations += 1;
        }
    }

    /// Wholesale flush after a transport reconnect (or any event that may
    /// have lost watch notifications). Counts one reconnect invalidation
    /// per flush that actually dropped entries.
    pub fn invalidate_reconnect(&mut self) {
        if !self.is_empty() {
            self.stats.reconnect_invalidations += 1;
        }
        self.data.clear();
        self.exists.clear();
        self.children.clear();
        self.neg.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufs_coord::watch::WatchEventKind;

    fn stat() -> Stat {
        Stat::default()
    }

    #[test]
    fn parent_paths() {
        assert_eq!(parent("/"), None);
        assert_eq!(parent("/a"), Some("/"));
        assert_eq!(parent("/a/b"), Some("/a"));
        assert_eq!(parent("/a/b/c"), Some("/a/b"));
    }

    #[test]
    fn hits_misses_and_rate() {
        let mut c = MetaCache::new();
        assert!(c.get_data("/x").is_none());
        c.put_data("/x", Bytes::from_static(b"v"), stat());
        assert!(c.get_data("/x").is_some());
        assert!(c.get_exists("/x").is_some(), "put_data also answers exists");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn watch_evicts_path_and_parent_listing() {
        let mut c = MetaCache::new();
        c.put_data("/d/f", Bytes::new(), stat());
        c.put_children("/d", vec!["f".into()], stat());
        c.invalidate_watch(&WatchNotification {
            path: "/d/f".into(),
            event: WatchEventKind::DataChanged,
        });
        assert!(c.get_data("/d/f").is_none());
        assert!(c.get_children("/d").is_none(), "parent listing evicted too");
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn local_mutation_evicts() {
        let mut c = MetaCache::new();
        c.put_exists("/a", None);
        c.invalidate_local("/a");
        assert!(c.get_exists("/a").is_none());
        assert_eq!(c.stats().local_invalidations, 1);
        // Evicting a cold path counts nothing.
        c.invalidate_local("/cold");
        assert_eq!(c.stats().local_invalidations, 1);
    }

    #[test]
    fn reconnect_flushes_everything() {
        let mut c = MetaCache::new();
        c.put_data("/a", Bytes::new(), stat());
        c.put_children("/", vec!["a".into()], stat());
        c.invalidate_reconnect();
        assert!(c.is_empty());
        assert_eq!(c.stats().reconnect_invalidations, 1);
        // Flushing an empty cache is not an invalidation event.
        c.invalidate_reconnect();
        assert_eq!(c.stats().reconnect_invalidations, 1);
    }

    #[test]
    fn capacity_bounds_total_entries() {
        let mut c = MetaCache::with_capacity(4);
        for i in 0..10 {
            c.put_data(&format!("/n{i}"), Bytes::new(), stat());
        }
        assert!(c.len() <= 4 + 1, "full flush keeps the cache bounded");
    }

    #[test]
    fn absorb_sums_all_fields() {
        let mut a = CacheStats { hits: 1, misses: 2, ..Default::default() };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            watch_invalidations: 1,
            local_invalidations: 2,
            reconnect_invalidations: 3,
            lease_renewals: 4,
            barriers_skipped: 5,
            barriers_coalesced: 6,
            negative_hits: 7,
            negative_expiries: 8,
            bulk_warms: 9,
        };
        a.absorb(&b);
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 22);
        assert_eq!(a.watch_invalidations, 1);
        assert_eq!(a.local_invalidations, 2);
        assert_eq!(a.reconnect_invalidations, 3);
        assert_eq!(a.lease_renewals, 4);
        assert_eq!(a.barriers_skipped, 5);
        assert_eq!(a.barriers_coalesced, 6);
        assert_eq!(a.negative_hits, 7);
        assert_eq!(a.negative_expiries, 8);
        assert_eq!(a.bulk_warms, 9);
    }

    #[test]
    fn negative_entries_hit_then_expire() {
        let mut c = MetaCache::new().with_negative_ttl(Duration::from_millis(40));
        assert_eq!(c.lookup_data("/gone"), Lookup::Miss);
        c.put_negative("/gone");
        assert!(c.has_negative("/gone"));
        assert_eq!(c.lookup_data("/gone"), Lookup::Negative);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.negative_hits), (1, 1, 1));
        std::thread::sleep(Duration::from_millis(60));
        assert!(!c.has_negative("/gone"), "TTL lapsed");
        assert_eq!(c.lookup_data("/gone"), Lookup::Miss);
        let s = c.stats();
        assert_eq!(s.negative_expiries, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn observed_create_under_parent_drops_sibling_negatives() {
        let mut c = MetaCache::new();
        c.put_negative("/d/missing-a");
        c.put_negative("/d/missing-b");
        c.put_negative("/e/other");
        // A children-changed watch on /d (some create happened under it).
        c.invalidate_watch(&WatchNotification {
            path: "/d".into(),
            event: WatchEventKind::ChildrenChanged,
        });
        assert!(!c.has_negative("/d/missing-a"));
        assert!(!c.has_negative("/d/missing-b"));
        assert!(c.has_negative("/e/other"), "unrelated negatives survive");
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn positive_results_and_own_mutations_override_negatives() {
        let mut c = MetaCache::new();
        c.put_negative("/f");
        c.put_data("/f", Bytes::from_static(b"v"), stat());
        assert!(!c.has_negative("/f"));
        assert_eq!(c.lookup_data("/f"), Lookup::Hit((Bytes::from_static(b"v"), stat())));
        c.put_negative("/g");
        c.invalidate_local("/g");
        assert!(!c.has_negative("/g"), "own create evicts the cached absence");
    }
}
