//! Live integration: [`Cached`] over real loopback clusters. Covers the
//! subsystem's four behavioural claims:
//!
//! 1. warm reads are served from the cache, foreign writes invalidate via
//!    the server's one-shot watches;
//! 2. with leases on, a `SyncThenLocal` session adopts grants, and never
//!    with leases off; a miss after an *acked* write owes no barrier either
//!    way (a miss that does owe one rides the grant: `cached.rs`'s unit
//!    tests);
//! 3. a reconnect flushes the whole cache — watches that fired while the
//!    session was disconnected cannot strand stale entries;
//! 4. grants dry up when the ensemble loses quorum (the leader's evidence
//!    ages out), so barrier skipping degrades to the strict protocol.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_cache::CacheBuilder;
use dufs_coord::server::{LEASE_MARGIN_MS, LEASE_MS};
use dufs_coord::{ClientOptions, ClusterBuilder, CoordService, ReadConsistency, Watch};
use dufs_zkstore::{CreateMode, ZkError};

/// Cluster tests use real-time election timers; running several ensembles
/// concurrently on a loaded machine makes watchdogs flap. Serialize.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const LEADER_WAIT: Duration = Duration::from_secs(20);

#[test]
fn leases_are_adopted_and_disabled_leases_are_not() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).tcp();
    let leader = tc.await_leader(LEADER_WAIT).expect("leader");

    // Lease on: a miss after an acked write owes no barrier, so there is
    // nothing to skip.
    let mut c = CacheBuilder::new().session(
        tc.client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
    );
    for i in 0..8 {
        let path = format!("/lease-{i}");
        c.create(&path, Bytes::from(format!("v{i}").into_bytes()), CreateMode::Persistent).unwrap();
        let (data, _) = c.get_data(&path, Watch::None).unwrap();
        assert_eq!(data, Bytes::from(format!("v{i}").into_bytes()));
    }
    let s = c.stats();
    assert!(s.lease_renewals >= 1, "no grant was ever adopted: {s:?}");
    assert_eq!(s.barriers_skipped, 0, "acked writes owe no barrier to skip: {s:?}");
    assert!(c.lease_valid(), "lease should still be live right after a renewal");

    // Lease off: same workload, PR 5 barrier semantics — no skips ever.
    let mut c = CacheBuilder::new().lease(false).session(
        tc.client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
    );
    for i in 0..8 {
        let path = format!("/strict-{i}");
        c.create(&path, Bytes::from(format!("v{i}").into_bytes()), CreateMode::Persistent).unwrap();
        let (data, _) = c.get_data(&path, Watch::None).unwrap();
        assert_eq!(data, Bytes::from(format!("v{i}").into_bytes()));
    }
    let s = c.stats();
    assert_eq!(s.barriers_skipped, 0, "lease off must never skip a barrier: {s:?}");
    assert_eq!(s.lease_renewals, 0, "lease off must never adopt a grant: {s:?}");
    assert!(!c.lease_valid());
    tc.shutdown();
}

/// The regression the subsystem exists to not have: a watch that fires
/// while the session is disconnected is NOT replayed by the server, and a
/// crashed server produces no traffic of its own (its socket stays open,
/// so nothing breaks either) — so a cache hit would be
/// served stale forever if hits were never licensed. With leases on, the
/// hit may legally ride a still-valid grant for up to its ttl, but then
/// the renewal ping probes the dead replica, fails over, and the
/// reconnect flushes the cache — the foreign write MUST become visible
/// within the lease bound plus failover time, and the flush must be
/// recorded.
#[test]
fn reconnect_flushes_cache_instead_of_losing_watches() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).observers(1).tcp();
    tc.await_leader(LEADER_WAIT).expect("leader");
    let observer = 3;

    let mut w = tc.client(ClientOptions::at(0).with_failover()).unwrap();
    let mut r = CacheBuilder::new().session(
        tc.client(
            ClientOptions::at(observer)
                .with_failover()
                .with_consistency(ReadConsistency::SyncThenLocal),
        )
        .unwrap(),
    );
    r.inner_mut().set_timeout(Duration::from_millis(500));

    w.create("/g", Bytes::from_static(b"old"), CreateMode::Persistent).unwrap();
    // Cache the entry (arming a watch at the serving member)...
    let (data, _) = r.get_data("/g", Watch::None).unwrap();
    assert_eq!(&data[..], b"old");
    let _ = r.get_data("/g", Watch::None).unwrap(); // warm hit

    // ...then kill the server holding that watch — whichever member the
    // session is actually on (a transient early failover can move it off
    // the observer) — and mutate while the reader is disconnected. The
    // fired watch goes into the void.
    let at = r.inner().transport().connected_addr();
    let on = tc.addrs().iter().position(|&a| Some(a) == at).expect("a live link");
    tc.crash(on);
    w.set_data("/g", Bytes::from_static(b"new"), None).unwrap();

    // Poll. Stale hits are only legal while the adopted lease lasts; after
    // that the renewal ping discovers the dead replica and the failover
    // flush takes over. Bound = lease ttl + grant margin + generous time
    // for the timeout/failover dance (the crashed member may even have
    // been the leader, forcing an election).
    let bound = Duration::from_millis(LEASE_MS + LEASE_MARGIN_MS + 15_000);
    let start = Instant::now();
    loop {
        match r.get_data("/g", Watch::None) {
            Ok((data, _)) if &data[..] == b"new" => break,
            Ok((data, _)) => assert_eq!(&data[..], b"old", "impossible third value"),
            Err(ZkError::ConnectionLoss | ZkError::Net) => {}
            Err(e) => panic!("unexpected error during failover: {e:?}"),
        }
        assert!(
            start.elapsed() < bound,
            "foreign write stayed invisible past the lease bound: {:?}",
            r.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let s = r.stats();
    assert!(s.reconnect_invalidations >= 1, "reconnect must flush the cache: {s:?}");
    tc.restart(on);
    tc.shutdown();
}

#[test]
fn lease_grants_stop_after_quorum_loss() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).tcp();
    let leader = tc.await_leader(LEADER_WAIT).expect("leader");
    let mut c = tc.client(ClientOptions::at(leader)).unwrap();
    c.set_timeout(Duration::from_millis(500));

    // With a healthy quorum the leader grants from fresh ack evidence.
    c.create("/q", Bytes::new(), CreateMode::Persistent).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((_, Some(_))) = c.ping_lease() {
            break;
        }
        assert!(Instant::now() < deadline, "healthy quorum never granted a lease");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Kill both followers: the leader's distinct-voter evidence ages past
    // LEASE_MS and grants must dry up (None, or no answer at all once the
    // leader abdicates).
    for i in 0..3 {
        if i != leader {
            tc.crash(i);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while let Ok((_, Some(_))) = c.ping_lease() {
        assert!(Instant::now() < deadline, "leader kept granting leases without a quorum");
        std::thread::sleep(Duration::from_millis(100));
    }
    for i in 0..3 {
        if i != leader {
            tc.restart(i);
        }
    }
    tc.shutdown();
}

/// Warm reads hit, a lease (renewed by ping) licenses them, and foreign
/// writes invalidate via the server's one-shot watches.
#[test]
fn tcp_cached_session_hits_leases_and_invalidation() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(LEADER_WAIT).expect("leader");

    let mut w = cluster.client(ClientOptions::at(leader)).unwrap();
    let mut r = CacheBuilder::new().session(
        cluster
            .client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
    );

    w.create("/t", Bytes::from_static(b"v0"), CreateMode::Persistent).unwrap();
    for _ in 0..4 {
        let (data, _) = r.get_data("/t", Watch::None).unwrap();
        assert_eq!(&data[..], b"v0");
    }
    let s = r.stats();
    assert_eq!(s.misses, 1, "only the first read should reach the server: {s:?}");
    assert_eq!(s.hits, 3, "warm reads must be cache hits: {s:?}");

    assert!(s.lease_renewals >= 1, "no lease over TCP: {s:?}");

    // Foreign write: the watch armed by the cached read must evict the
    // entry. Delivery is asynchronous — poll until the new value shows.
    w.set_data("/t", Bytes::from_static(b"v1"), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (data, _) = r.get_data("/t", Watch::None).unwrap();
        if &data[..] == b"v1" {
            break;
        }
        assert!(Instant::now() < deadline, "tcp watch never invalidated the entry");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(r.stats().watch_invalidations >= 1, "stats: {:?}", r.stats());

    // Inner escape hatch still works and reads the same namespace.
    let (data, _) = r.inner_mut().get_data("/t", Watch::None).unwrap();
    assert_eq!(&data[..], b"v1");
    cluster.shutdown();
}
