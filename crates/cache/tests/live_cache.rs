//! Live integration: [`Cached`] over real clusters (thread and TCP
//! transports). Covers the subsystem's four behavioural claims:
//!
//! 1. warm reads are served from the cache, foreign writes invalidate via
//!    the server's one-shot watches;
//! 2. with leases on, a `SyncThenLocal` miss that owes a barrier (a write
//!    of the session is still un-acked) rides the grant instead of
//!    barriering — and never skips with leases off; a miss after an *acked*
//!    write owes nothing either way;
//! 3. a reconnect flushes the whole cache — watches that fired while the
//!    session was disconnected cannot strand stale entries;
//! 4. grants dry up when the ensemble loses quorum (the leader's evidence
//!    ages out), so barrier skipping degrades to the strict protocol.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_cache::{CacheOptions, Cached};
use dufs_coord::server::{LEASE_MARGIN_MS, LEASE_MS};
use dufs_coord::{
    ClientOptions, ClientTransport, ClusterBuilder, ReadConsistency, Watch, ZkClient, ZkRequest,
};
use dufs_zkstore::{CreateMode, ZkError};

/// Cluster tests use real-time election timers; running several ensembles
/// concurrently on a loaded machine makes watchdogs flap. Serialize.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const LEADER_WAIT: Duration = Duration::from_secs(20);

/// One read miss issued while a pipelined write of the same session is
/// still un-acked — the case in which the lease-off rule owes a barrier
/// (an acked write owes none: its origin replica applied it before
/// replying).
fn miss_with_a_write_in_flight<T: ClientTransport>(c: &mut Cached<ZkClient<T>>, i: usize) {
    let path = format!("/owed-{i}");
    let data = Bytes::from(format!("v{i}").into_bytes());
    c.create(&path, data.clone(), CreateMode::Persistent).unwrap();
    c.inner_mut().submit(ZkRequest::Create {
        path: format!("{path}-bg"),
        data: Bytes::new(),
        mode: CreateMode::Persistent,
    });
    assert_eq!(c.get_data(&path).unwrap().0, data);
    // A barrier (or the read itself) may already have collected the ack.
    if c.inner().is_dirty() {
        c.inner_mut().next_completion().expect("pipelined ack");
    }
    assert!(!c.inner().is_dirty());
}

#[test]
fn warm_reads_hit_and_foreign_writes_invalidate() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).threads();
    let leader = tc.await_leader(LEADER_WAIT).expect("leader");

    let mut w = tc.client(ClientOptions::at(leader)).unwrap();
    let mut r = Cached::with_options(
        tc.client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
        CacheOptions::default(),
    );

    w.create("/f", Bytes::from_static(b"v0"), CreateMode::Persistent).unwrap();
    for _ in 0..4 {
        let (data, _) = r.get_data("/f").unwrap();
        assert_eq!(&data[..], b"v0");
    }
    let s = r.stats();
    assert_eq!(s.misses, 1, "only the first read should reach the server: {s:?}");
    assert_eq!(s.hits, 3, "warm reads must be cache hits: {s:?}");

    // Foreign write: the watch armed by the cached read must evict the
    // entry. Delivery is asynchronous — poll until the new value shows.
    w.set_data("/f", Bytes::from_static(b"v1"), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (data, _) = r.get_data("/f").unwrap();
        if &data[..] == b"v1" {
            break;
        }
        assert!(Instant::now() < deadline, "watch never invalidated the stale entry");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(r.stats().watch_invalidations >= 1, "stats: {:?}", r.stats());
    tc.shutdown();
}

#[test]
fn leases_skip_barriers_and_disabled_leases_do_not() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).threads();
    let leader = tc.await_leader(LEADER_WAIT).expect("leader");

    // Lease on: a miss after an acked write owes no barrier, so there is
    // nothing to skip; a miss that does owe one rides a grant instead.
    let mut c = Cached::with_options(
        tc.client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
        CacheOptions::default(),
    );
    for i in 0..8 {
        let path = format!("/lease-{i}");
        c.create(&path, Bytes::from(format!("v{i}").into_bytes()), CreateMode::Persistent).unwrap();
        let (data, _) = c.get_data(&path).unwrap();
        assert_eq!(data, Bytes::from(format!("v{i}").into_bytes()));
    }
    let s = c.stats();
    assert!(s.lease_renewals >= 1, "no grant was ever adopted: {s:?}");
    assert_eq!(s.barriers_skipped, 0, "acked writes owe no barrier to skip: {s:?}");
    for i in 0..8 {
        miss_with_a_write_in_flight(&mut c, i);
    }
    let s = c.stats();
    assert!(s.barriers_skipped >= 4, "owed barriers should ride the lease: {s:?}");
    assert!(c.lease_valid(), "lease should still be live right after a renewal");

    // Lease off: same workload, PR 5 barrier semantics — no skips ever.
    let mut c = Cached::with_options(
        tc.client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
        CacheOptions { lease: false, ..CacheOptions::default() },
    );
    for i in 0..8 {
        let path = format!("/strict-{i}");
        c.create(&path, Bytes::from(format!("v{i}").into_bytes()), CreateMode::Persistent).unwrap();
        let (data, _) = c.get_data(&path).unwrap();
        assert_eq!(data, Bytes::from(format!("v{i}").into_bytes()));
    }
    for i in 8..16 {
        miss_with_a_write_in_flight(&mut c, i);
    }
    let s = c.stats();
    assert_eq!(s.barriers_skipped, 0, "lease off must never skip a barrier: {s:?}");
    assert_eq!(s.lease_renewals, 0, "lease off must never adopt a grant: {s:?}");
    assert!(!c.lease_valid());
    tc.shutdown();
}

/// The regression the subsystem exists to not have: a watch that fires
/// while the session is disconnected is NOT replayed by the server, and a
/// dead server produces no traffic of its own — so a cache hit would be
/// served stale forever if hits were never licensed. With leases on, the
/// hit may legally ride a still-valid grant for up to its ttl, but then
/// the renewal ping probes the dead replica, fails over, and the
/// reconnect flushes the cache — the foreign write MUST become visible
/// within the lease bound plus failover time, and the flush must be
/// recorded.
#[test]
fn reconnect_flushes_cache_instead_of_losing_watches() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).observers(1).threads();
    tc.await_leader(LEADER_WAIT).expect("leader");
    let observer = 3;

    let mut w = tc.client(ClientOptions::at(0).with_failover()).unwrap();
    let mut r = Cached::with_options(
        tc.client(
            ClientOptions::at(observer)
                .with_failover()
                .with_consistency(ReadConsistency::SyncThenLocal),
        )
        .unwrap(),
        CacheOptions::default(),
    );
    r.inner_mut().set_timeout(Duration::from_millis(500));

    w.create("/g", Bytes::from_static(b"old"), CreateMode::Persistent).unwrap();
    // Cache the entry (arming a watch at the serving member)...
    let (data, _) = r.get_data("/g").unwrap();
    assert_eq!(&data[..], b"old");
    let _ = r.get_data("/g").unwrap(); // warm hit

    // ...then kill the server holding that watch — whichever member the
    // session is actually on (a transient early failover can move it off
    // the observer) — and mutate while the reader is disconnected. The
    // fired watch goes into the void.
    let on = r.inner_mut().transport().connected_index();
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
        match r.get_data("/g") {
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
    let tc = ClusterBuilder::new().voters(3).threads();
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

/// TCP smoke: the same cache + lease machinery over real sockets, where
/// grants additionally arrive pushed on idle heartbeat slots.
#[test]
fn tcp_cached_session_hits_leases_and_invalidation() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(LEADER_WAIT).expect("leader");

    let mut w = cluster.client(ClientOptions::at(leader)).unwrap();
    let mut r = Cached::with_options(
        cluster
            .client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
        CacheOptions::default(),
    );

    w.create("/t", Bytes::from_static(b"v0"), CreateMode::Persistent).unwrap();
    for _ in 0..4 {
        let (data, _) = r.get_data("/t").unwrap();
        assert_eq!(&data[..], b"v0");
    }
    assert!(r.stats().hits >= 3, "stats: {:?}", r.stats());

    // Read while a write is un-acked: the miss owes a barrier and should
    // be licensed by a lease instead (renewed by ping or adopted from a
    // heartbeat push), or at worst ride one barrier and skip from then on.
    for i in 0..6 {
        miss_with_a_write_in_flight(&mut r, i);
    }
    let s = r.stats();
    assert!(s.lease_renewals >= 1, "no lease over TCP: {s:?}");
    assert!(s.barriers_skipped >= 3, "leases should spare most barriers: {s:?}");

    // Foreign-write invalidation over sockets.
    w.set_data("/t", Bytes::from_static(b"v1"), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (data, _) = r.get_data("/t").unwrap();
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
