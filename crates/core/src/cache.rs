//! Client-side metadata cache with watch-based invalidation.
//!
//! The paper's related-work discussion (§VI) notes that filesystems which
//! cache directory entries on clients "generally disable client caching
//! during concurrent update workload to avoid excessive consistency
//! overhead". The coordination service gives DUFS a cheaper option: cache
//! `zoo_get` / `zoo_exists` / `zoo_get_children` results and let the
//! server's **one-shot watches** invalidate them — no cross-client locks,
//! consistency preserved because any mutation fires the watch before a
//! subsequent read could go stale (within ZooKeeper's usual single-client
//! ordering guarantees).
//!
//! The wrapper itself is [`dufs_cache::Cached`], which sits in front of any
//! [`crate::services::CoordService`]; [`CachingCoord`] is its historical
//! name in this crate. Reads are answered from the cache when fresh; a miss
//! issues the read **with a watch** and caches the result; watch
//! notifications and the client's own mutations evict. The tests below run
//! it over the in-process [`crate::services::SoloCoord`], whose default
//! freshness hooks describe one connection that never moves and grants
//! nothing — so the lease/barrier counters stay zero here.

pub use dufs_cache::CacheStats;

/// A caching wrapper around a coordination-service connection.
pub type CachingCoord<C> = dufs_cache::Cached<C>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{CoordService, SoloCoord};
    use bytes::Bytes;
    use dufs_coord::{Watch, ZkRequest, ZkResponse};
    use dufs_zkstore::CreateMode;
    use dufs_zkstore::MultiOp;

    fn setup() -> CachingCoord<SoloCoord> {
        let mut c = CachingCoord::new(SoloCoord::new());
        c.request(ZkRequest::Create {
            path: "/f".into(),
            data: Bytes::from_static(b"v0"),
            mode: CreateMode::Persistent,
        });
        c
    }

    fn get(c: &mut CachingCoord<SoloCoord>, path: &str) -> ZkResponse {
        c.request(ZkRequest::GetData { path: path.into(), watch: false })
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let mut c = setup();
        for _ in 0..5 {
            match get(&mut c, "/f") {
                ZkResponse::Data { data, .. } => assert_eq!(&data[..], b"v0"),
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 4);
        assert!(s.hit_rate() > 0.7);
        // The sim level has no transport: lease/barrier counters stay 0.
        assert_eq!(s.lease_renewals, 0);
        assert_eq!(s.barriers_skipped, 0);
        assert_eq!(s.reconnect_invalidations, 0);
    }

    #[test]
    fn own_writes_invalidate() {
        let mut c = setup();
        get(&mut c, "/f");
        c.request(ZkRequest::SetData {
            path: "/f".into(),
            data: Bytes::from_static(b"v1"),
            version: None,
        });
        match get(&mut c, "/f") {
            ZkResponse::Data { data, .. } => assert_eq!(&data[..], b"v1", "no stale read"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().local_invalidations, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn foreign_writes_invalidate_via_watch() {
        // Two handles over ONE coordination service: writer mutates, the
        // caching reader must observe the change via the fired watch.
        // SoloCoord is single-session, so emulate the foreign write by
        // bypassing the cache (direct inner request).
        let mut c = setup();
        get(&mut c, "/f"); // cached, watch registered
        c.inner_mut().request(ZkRequest::SetData {
            path: "/f".into(),
            data: Bytes::from_static(b"external"),
            version: None,
        });
        match get(&mut c, "/f") {
            ZkResponse::Data { data, .. } => {
                assert_eq!(&data[..], b"external", "watch invalidated the stale entry")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().watch_invalidations, 1);
    }

    #[test]
    fn deletion_invalidates_and_misses_report_nonode() {
        let mut c = setup();
        get(&mut c, "/f");
        c.inner_mut().request(ZkRequest::Delete { path: "/f".into(), version: None });
        match get(&mut c, "/f") {
            ZkResponse::Error(e) => assert_eq!(e, dufs_zkstore::ZkError::NoNode),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_invalidates_all_touched_paths() {
        let mut c = setup();
        get(&mut c, "/f");
        c.request(ZkRequest::Multi {
            ops: vec![
                MultiOp::Create {
                    path: "/g".into(),
                    data: Bytes::from_static(b"v0"),
                    mode: CreateMode::Persistent,
                },
                MultiOp::Delete { path: "/f".into(), version: None },
            ],
        });
        assert!(matches!(get(&mut c, "/f"), ZkResponse::Error(_)));
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let mut c = CachingCoord::new(SoloCoord::new());
        // Each read installs a data and an exists entry: this overflows.
        for i in 0..dufs_cache::shared::CAPACITY / 2 + 5 {
            c.request(ZkRequest::Create {
                path: format!("/n{i}"),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            });
            get(&mut c, &format!("/n{i}"));
        }
        assert!(c.len() <= dufs_cache::shared::CAPACITY);
    }

    #[test]
    fn full_dufs_stack_works_through_the_cache() {
        use crate::services::LocalBackends;
        use crate::vfs::Dufs;
        let mut fs = Dufs::new(1, CachingCoord::new(SoloCoord::new()), LocalBackends::lustre(2));
        fs.mkdir("/d", 0o755).unwrap();
        fs.create("/d/f", 0o644).unwrap();
        fs.write("/d/f", 0, b"cached").unwrap();
        // Repeated stats hit the cache for the GetData step.
        for _ in 0..10 {
            assert_eq!(fs.stat("/d/f").unwrap().size, 6);
        }
        let stats = fs.coord_mut().stats();
        assert!(stats.hits >= 9, "stats: {stats:?}");
        // Rename (a multi) then read again — never stale.
        fs.rename("/d/f", "/d/g").unwrap();
        assert_eq!(fs.stat("/d/f").unwrap_err(), crate::error::DufsError::NoEnt);
        assert_eq!(fs.stat("/d/g").unwrap().size, 6);
    }

    #[test]
    fn listings_and_existence_are_cached_and_child_watches_evict() {
        use crate::services::LocalBackends;
        use crate::vfs::Dufs;
        let mut fs = Dufs::new(1, CachingCoord::new(SoloCoord::new()), LocalBackends::lustre(2));
        fs.mkdir("/d", 0o755).unwrap();
        fs.mkdir("/d/a", 0o755).unwrap();
        let before = fs.coord_mut().stats();
        assert_eq!(fs.readdir("/d").unwrap(), vec!["a"]);
        assert_eq!(fs.readdir("/d").unwrap(), vec!["a"]);
        let s = fs.coord_mut().stats();
        assert_eq!((s.misses - before.misses, s.hits - before.hits), (1, 1), "stats: {s:?}");
        // A foreign create under the directory fires the child watch the
        // cached listing left behind; the next readdir must see it.
        fs.coord_mut().inner_mut().request(ZkRequest::Create {
            path: "/d/b".into(),
            data: crate::meta::NodeMeta::dir(0o755).encode(),
            mode: CreateMode::Persistent,
        });
        assert_eq!(fs.readdir("/d").unwrap(), vec!["a", "b"]);
        assert!(fs.coord_mut().stats().watch_invalidations >= 1);
        // `Exists` is cached like the other two kinds.
        let c = fs.coord_mut();
        for _ in 0..3 {
            assert!(c.exists("/d/a", Watch::None).unwrap().is_some());
        }
        assert!(c.stats().hits >= s.hits + 2, "exists never hit: {:?}", c.stats());
    }

    #[test]
    fn absent_nodes_are_negatively_cached_until_created() {
        let mut c = setup();
        // First read of a missing node goes to the service …
        assert!(matches!(get(&mut c, "/ghost"), ZkResponse::Error(dufs_zkstore::ZkError::NoNode)));
        // … repeats are answered from the negative store.
        for _ in 0..3 {
            assert!(matches!(
                get(&mut c, "/ghost"),
                ZkResponse::Error(dufs_zkstore::ZkError::NoNode)
            ));
        }
        let s = c.stats();
        assert_eq!(s.negative_hits, 3);
        assert_eq!(s.misses, 1, "only /ghost's first read went to the service");
        // Our own create overrides the cached absence immediately.
        c.request(ZkRequest::Create {
            path: "/ghost".into(),
            data: Bytes::from_static(b"now"),
            mode: CreateMode::Persistent,
        });
        match get(&mut c, "/ghost") {
            ZkResponse::Data { data, .. } => assert_eq!(&data[..], b"now"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observed_create_under_parent_evicts_cached_absences() {
        let mut c = setup();
        c.request(ZkRequest::Create {
            path: "/d".into(),
            data: Bytes::new(),
            mode: CreateMode::Persistent,
        });
        assert!(matches!(get(&mut c, "/d/a"), ZkResponse::Error(_)), "absence cached");
        // Leave a children watch on the parent, then let a *foreign* create
        // materialize the node. The fired watch names only the parent; the
        // eviction must still reach the cached absence below it.
        c.request(ZkRequest::GetChildren { path: "/d".into(), watch: true });
        c.inner_mut().request(ZkRequest::Create {
            path: "/d/a".into(),
            data: Bytes::from_static(b"born"),
            mode: CreateMode::Persistent,
        });
        match get(&mut c, "/d/a") {
            ZkResponse::Data { data, .. } => assert_eq!(&data[..], b"born"),
            other => panic!("negative entry outlived an observed create: {other:?}"),
        }
        assert_eq!(c.stats().negative_hits, 0, "absence was never served stale");
    }

    #[test]
    fn warm_children_installs_children_and_data_in_one_request() {
        let mut c = setup();
        for n in ["/d", "/d/a", "/d/b", "/d/c"] {
            c.request(ZkRequest::Create {
                path: n.into(),
                data: Bytes::from(format!("data{n}").into_bytes()),
                mode: CreateMode::Persistent,
            });
        }
        match c.request(ZkRequest::WarmChildren { path: "/d".into() }) {
            ZkResponse::WarmedChildren { entries, .. } => {
                assert_eq!(
                    entries.iter().map(|(n, _, _)| n.as_str()).collect::<Vec<_>>(),
                    vec!["a", "b", "c"]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Every child read after the warm is a pure cache hit.
        let misses_before = c.stats().misses;
        for n in ["/d/a", "/d/b", "/d/c"] {
            match get(&mut c, n) {
                ZkResponse::Data { data, .. } => {
                    assert_eq!(&data[..], format!("data{n}").as_bytes())
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = c.stats();
        assert_eq!(s.bulk_warms, 1);
        assert_eq!(s.misses, misses_before, "no child read went to the service");
        assert_eq!(s.hits, 3);
        // The warm's watches still guard the entries: a foreign write is
        // observed on the next read.
        c.inner_mut().request(ZkRequest::SetData {
            path: "/d/a".into(),
            data: Bytes::from_static(b"changed"),
            version: None,
        });
        match get(&mut c, "/d/a") {
            ZkResponse::Data { data, .. } => assert_eq!(&data[..], b"changed"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.stats().watch_invalidations >= 1);
    }

    /// Digest parity: running the same mutation workload over a cached and
    /// an uncached connection must leave identical namespaces, and cached
    /// reads must return exactly what the uncached service returns.
    #[test]
    fn cached_and_uncached_reads_agree() {
        let mut cached = CachingCoord::new(SoloCoord::new());
        let mut plain = SoloCoord::new();
        let paths: Vec<String> = (0..32).map(|i| format!("/p{}", i % 8)).collect();
        for (i, p) in paths.iter().enumerate() {
            let data = Bytes::from(format!("v{i}").into_bytes());
            let create = ZkRequest::Create {
                path: p.clone(),
                data: data.clone(),
                mode: CreateMode::Persistent,
            };
            let set = ZkRequest::SetData { path: p.clone(), data, version: None };
            cached.request(create.clone());
            plain.request(create);
            cached.request(set.clone());
            plain.request(set);
            // Interleave reads so the cache is live during the churn.
            let a = cached.request(ZkRequest::GetData { path: p.clone(), watch: false });
            let b = plain.request(ZkRequest::GetData { path: p.clone(), watch: false });
            assert_eq!(a, b, "cached read diverged at {p}");
        }
        assert!(cached.stats().local_invalidations > 0);
    }
}
