//! [`CacheStats`] — the one counter shape every cached session reports
//! (private or shared store, any session underneath), so experiment tables
//! can be diffed across layers.

use std::fmt;

/// Counters a cached session reports. Over a session with the default
/// [`dufs_coord::CoordService`] hooks (no transport to lease from) the
/// lease/barrier/reconnect counters simply stay zero.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
