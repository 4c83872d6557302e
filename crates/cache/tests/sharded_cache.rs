//! [`Cached`] over a [`dufs_coord::ShardedClient`]: the one wrapper, with a
//! connection per shard behind it.
//!
//! 1. A listing (`warm_children`, here under `Linearizable`, which bypasses
//!    the cache) is ONE request to the children-owner shard — plus the one
//!    barrier the consistency level owes — however many children it
//!    returns, and a failure surfaces as an error instead of a silently
//!    shortened listing. (The old sharded wrapper did N+1 `get_data` calls
//!    here and dropped every child whose read failed.)
//! 2. Reads hit, leases are adopted per shard connection, foreign writes
//!    invalidate through the owning shard's watches.
//! 3. The empty listing the sharded session synthesizes for a directory
//!    never materialized on its children-owner shard rests on two shards
//!    and is guarded by the watches of neither, so it is served but never
//!    cached: a foreign delete or create shows on the very next listing.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_cache::{CacheBuilder, Cached};
use dufs_coord::{
    ClientOptions, ClusterBuilder, CoordService, ReadConsistency, ShardedClient, TcpTransport,
    Watch,
};
use dufs_zkstore::{CreateMode, ZkError};

/// Cluster tests use real-time election timers; serialize the ensembles.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Frames each shard connection has sent so far.
fn frames(c: &mut Cached<ShardedClient<TcpTransport>>) -> Vec<u64> {
    let inner = c.inner_mut();
    (0..inner.shard_count())
        .map(|s| inner.shard_client(s).transport().stats().frames_sent)
        .collect()
}

#[test]
fn a_listing_is_one_request_and_errors_surface() {
    let _g = serial();
    const K: usize = 6;
    let mut cluster = ClusterBuilder::new().voters(1).shards(2).sharded_tcp();
    let mut w = cluster.client(ClientOptions::at(0)).unwrap();
    for i in 0..K {
        w.create(
            &format!("/d/c{i}"),
            Bytes::from(format!("v{i}").into_bytes()),
            CreateMode::Persistent,
        )
        .unwrap();
    }

    let mut c = CacheBuilder::new().session(
        cluster
            .client(ClientOptions::at(0).with_consistency(ReadConsistency::Linearizable))
            .unwrap(),
    );
    let owner = c.inner().route_children("/d");
    let before = frames(&mut c);
    let entries = c.warm_children("/d").unwrap();
    let after = frames(&mut c);
    assert_eq!(entries.len(), K);
    for (s, (b, a)) in before.iter().zip(&after).enumerate() {
        // One `Sync` (the Linearizable barrier) + one `GetChildrenData`.
        let want = if s == owner { 2 } else { 0 };
        assert_eq!(a - b, want, "shard {s} saw {} frames for one {K}-child listing", a - b);
    }
    assert_eq!(c.stats().bulk_warms, 0, "Linearizable sessions install nothing");
    // ... and arm no watches: a foreign create under the directory pushes
    // nothing onto this session (the round trip's reply would have queued
    // behind any notification on the same connection).
    w.create("/d/late", Bytes::new(), CreateMode::Persistent).unwrap();
    c.inner_mut().get_data("/d/c0", Watch::None).unwrap();
    assert!(c.inner_mut().drain_watches().is_empty(), "a cache-less listing left a watch behind");

    // A missing directory is NoNode, not an empty listing ...
    assert_eq!(c.warm_children("/nope").unwrap_err(), ZkError::NoNode);
    // ... and a dead children-owner shard is an error, not a short listing.
    c.inner_mut().shard_client(owner).set_timeout(Duration::from_millis(200));
    cluster.shard_mut(owner).stop(0);
    assert!(c.warm_children("/d").is_err(), "listing a dead shard must fail");
    cluster.shutdown();
}

#[test]
fn sharded_reads_hit_lease_per_shard_and_invalidate() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(1).shards(2).sharded_tcp();
    let mut w = cluster.client(ClientOptions::at(0)).unwrap();
    let opts = ClientOptions::at(0).with_consistency(ReadConsistency::SyncThenLocal);
    let mut c = CacheBuilder::new().session(cluster.client(opts).unwrap());

    // Two files that live on different shards.
    let a = "/left/f".to_string();
    let b = (0..10_000)
        .map(|i| format!("/right{i}/f"))
        .find(|p| c.inner().route(p) != c.inner().route(&a))
        .expect("no cross-shard pair");
    for p in [&a, &b] {
        w.create(p, Bytes::from_static(b"v0"), CreateMode::Persistent).unwrap();
        for _ in 0..3 {
            assert_eq!(&c.get_data(p, Watch::None).unwrap().0[..], b"v0");
        }
    }
    let s = c.stats();
    assert_eq!((s.misses, s.hits), (2, 4), "stats: {s:?}");
    assert!(s.lease_renewals >= 2, "each shard connection licenses its own reads: {s:?}");
    assert!(c.lease_valid(), "both connections hold a live grant");

    // A foreign write reaches the cache through the owning shard's watch.
    w.set_data(&b, Bytes::from_static(b"v1"), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while &c.get_data(&b, Watch::None).unwrap().0[..] != b"v1" {
        assert!(Instant::now() < deadline, "watch never invalidated the stale entry");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(c.stats().watch_invalidations >= 1);
    assert_eq!(
        &c.get_data(&a, Watch::None).unwrap().0[..],
        b"v0",
        "the other shard's entry is untouched"
    );
    cluster.shutdown();
}

#[test]
fn synthesized_empty_listing_is_never_cached() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(1).shards(2).sharded_tcp();
    let mut w = cluster.client(ClientOptions::at(0)).unwrap();
    let opts = ClientOptions::at(0).with_consistency(ReadConsistency::SyncThenLocal);
    let mut c = CacheBuilder::new().session(cluster.client(opts).unwrap());
    let empty = Vec::<String>::new();

    // A directory whose node and child listing live on different shards,
    // with nothing under it yet: the children-owner shard has no copy.
    let d = (0..10_000)
        .map(|i| format!("/split{i}"))
        .find(|d| c.inner().route(d) != c.inner().route_children(d))
        .expect("no split directory");
    w.create(&d, Bytes::from_static(b"dir"), CreateMode::Persistent).unwrap();

    assert_eq!(c.get_children(&d, Watch::None).unwrap().0, empty);
    let hits = c.stats().hits;
    assert_eq!(c.get_children(&d, Watch::None).unwrap().0, empty);
    assert_eq!(c.stats().hits, hits, "the synthesized listing must not be installed");
    assert!(c.lease_valid(), "both shards it was read from were licensed");

    // A foreign delete of the never-materialized directory touches only its
    // owner shard — no watch a listing could have left fires.
    w.delete(&d, None).unwrap();
    assert_eq!(c.get_children(&d, Watch::None).unwrap_err(), ZkError::NoNode);

    // Nor does the first create under it wait for a notification.
    w.create(&d, Bytes::from_static(b"dir"), CreateMode::Persistent).unwrap();
    assert_eq!(c.get_children(&d, Watch::None).unwrap().0, empty);
    w.create(&format!("{d}/x"), Bytes::new(), CreateMode::Persistent).unwrap();
    assert_eq!(c.get_children(&d, Watch::None).unwrap().0, ["x"]);

    // Materialized now: one shard answers and its child watch guards the
    // listing, so it is cached like any other.
    let hits = c.stats().hits;
    assert_eq!(c.get_children(&d, Watch::None).unwrap().0, ["x"]);
    assert_eq!(c.stats().hits, hits + 1);
    cluster.shutdown();
}
