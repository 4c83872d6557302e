//! Live acceptance for the process-shared cache, negative entries and the
//! READDIRPLUS bulk warm:
//!
//! 1. warming a K-child directory costs exactly ONE client round trip
//!    (counted at the transport), and a second session attached to the
//!    same [`SharedCache`] then reads every warmed entry without any
//!    round trip of its own;
//! 2. a cached absence is served as `NoNode` until its TTL runs out or a
//!    failover flush reveals the racing create — never past the bound;
//! 3. an entry installed by one session is evicted for *all* sessions
//!    when the installer's watch fires;
//! 4. the watches a bulk warm leaves behind are real (foreign writes to
//!    warmed children invalidate), and a reconnect flush drops the whole
//!    warmed set instead of stranding it stale.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_cache::CacheBuilder;
use dufs_coord::server::{LEASE_MARGIN_MS, LEASE_MS};
use dufs_coord::{ClientOptions, ClusterBuilder, CoordService, ReadConsistency, Watch};
use dufs_zkstore::{CreateMode, ZkError};

/// Cluster tests use real-time election timers; serialize the ensembles.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const LEADER_WAIT: Duration = Duration::from_secs(20);

/// The ISSUE's two headline numbers, measured at the socket: warming a
/// K-child directory is one app frame, and a second session on the same
/// shared cache reads the whole warmed set for zero frames once its lease
/// is licensed.
#[test]
fn bulk_warm_is_one_round_trip_and_shared_sessions_read_free() {
    let _g = serial();
    const K: usize = 5;
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(LEADER_WAIT).expect("leader");

    let mut w = cluster.client(ClientOptions::at(leader)).unwrap();
    w.create("/d", Bytes::new(), CreateMode::Persistent).unwrap();
    for i in 0..K {
        w.create(
            &format!("/d/c{i}"),
            Bytes::from(format!("v{i}").into_bytes()),
            CreateMode::Persistent,
        )
        .unwrap();
    }

    let shared = CacheBuilder::new().shared();

    // Session A: `Local` consistency so no barrier or lease traffic can
    // pollute the frame count — the warm itself must be the only frame.
    let mut a = shared.session(
        cluster.client(ClientOptions::at(leader).with_consistency(ReadConsistency::Local)).unwrap(),
    );
    let f0 = a.inner().transport().stats().frames_sent;
    let entries = a.warm_children("/d").unwrap();
    let f1 = a.inner().transport().stats().frames_sent;
    assert_eq!(entries.len(), K);
    assert_eq!(f1 - f0, 1, "bulk warm of a {K}-child dir must be exactly one round trip");
    assert_eq!(a.stats().bulk_warms, 1, "stats: {:?}", a.stats());

    // The warming session itself reads everything back warm.
    for i in 0..K {
        let (data, _) = a.get_data(&format!("/d/c{i}"), Watch::None).unwrap();
        assert_eq!(&data[..], format!("v{i}").as_bytes());
    }
    let f2 = a.inner().transport().stats().frames_sent;
    assert_eq!(f2, f1, "warming session re-read the dir it just warmed");

    // Session B: attaches to the same store at `SyncThenLocal`. Its first
    // hit licenses a lease (at most one ping frame); while that grant
    // holds, every further warmed entry is served for zero round trips.
    let mut b = shared.session(
        cluster
            .client(ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal))
            .unwrap(),
    );
    let (data, _) = b.get_data("/d/c0", Watch::None).unwrap();
    assert_eq!(&data[..], b"v0");
    assert!(b.lease_valid(), "first licensed hit should have adopted a grant");

    let g0 = b.inner().transport().stats().frames_sent;
    for i in 1..K {
        let (data, _) = b.get_data(&format!("/d/c{i}"), Watch::None).unwrap();
        assert_eq!(&data[..], format!("v{i}").as_bytes());
    }
    let (names, _) = b.get_children("/d", Watch::None).unwrap();
    assert_eq!(names.len(), K);
    let g1 = b.inner().transport().stats().frames_sent;
    assert_eq!(g1, g0, "second shared session must read warmed entries with zero round trips");
    let s = b.stats();
    assert!(s.hits >= K as u64, "shared warm never reached session B: {s:?}");
    assert_eq!(s.misses, 0, "session B should never have gone to the server: {s:?}");
    cluster.shutdown();
}

/// A cached absence racing a create across a failover: serving `NoNode`
/// is legal only while the negative TTL (plus lease/failover slack)
/// holds; after that the created node MUST be visible, revealed either by
/// the TTL expiring or by the reconnect flush — and the stats must show
/// which.
#[test]
fn negative_entries_expire_or_flush_past_a_racing_create() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).observers(1).tcp();
    tc.await_leader(LEADER_WAIT).expect("leader");
    let observer = 3;

    let mut w = tc.client(ClientOptions::at(0).with_failover()).unwrap();
    // A cached absence lives for the lease quantum.
    let neg_ttl = Duration::from_millis(LEASE_MS);
    let mut r = CacheBuilder::new().session(
        tc.client(
            ClientOptions::at(observer)
                .with_failover()
                .with_consistency(ReadConsistency::SyncThenLocal),
        )
        .unwrap(),
    );
    r.inner_mut().set_timeout(Duration::from_millis(500));

    // Cache the absence, then hit it.
    assert!(matches!(r.get_data("/phoenix", Watch::None), Err(ZkError::NoNode)));
    assert!(matches!(r.get_data("/phoenix", Watch::None), Err(ZkError::NoNode)));
    let s = r.stats();
    assert!(s.negative_hits >= 1, "second NoNode should be a negative hit: {s:?}");

    // Kill the member actually serving this session, then create the node
    // while the reader is disconnected — the existence can only surface
    // through TTL expiry or the failover's reconnect flush.
    let at = r.inner().transport().connected_addr();
    let on = tc.addrs().iter().position(|&a| Some(a) == at).expect("a live link");
    tc.crash(on);
    w.create("/phoenix", Bytes::from_static(b"risen"), CreateMode::Persistent).unwrap();

    let bound = neg_ttl + Duration::from_millis(LEASE_MS + LEASE_MARGIN_MS + 15_000);
    let start = Instant::now();
    loop {
        match r.get_data("/phoenix", Watch::None) {
            Ok((data, _)) => {
                assert_eq!(&data[..], b"risen");
                break;
            }
            // Legal while the negative TTL holds or the failover dance runs.
            Err(ZkError::NoNode | ZkError::ConnectionLoss | ZkError::Net) => {}
            Err(e) => panic!("unexpected error during failover: {e:?}"),
        }
        assert!(
            start.elapsed() < bound,
            "create stayed invisible past the negative-TTL bound: {:?}",
            r.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let s = r.stats();
    assert!(
        s.negative_expiries >= 1 || s.reconnect_invalidations >= 1,
        "the absence was never aged out nor flushed: {s:?}"
    );
    tc.restart(on);
    tc.shutdown();
}

/// Cross-session invalidation through the shared store: session A installs
/// an entry (arming A's watch), session B hits it for free; a foreign
/// write fires A's watch, and A's next drain evicts the entry for BOTH
/// sessions — B re-fetches instead of serving the stale shared bytes.
#[test]
fn shared_cache_invalidation_crosses_sessions() {
    let _g = serial();
    let tc = ClusterBuilder::new().voters(3).tcp();
    let leader = tc.await_leader(LEADER_WAIT).expect("leader");

    let mut w = tc.client(ClientOptions::at(leader)).unwrap();
    let shared = CacheBuilder::new().shared();
    let opts = ClientOptions::at(leader).with_consistency(ReadConsistency::SyncThenLocal);
    let mut a = shared.session(tc.client(opts).unwrap());
    let mut b = shared.session(tc.client(opts).unwrap());

    w.create("/x", Bytes::from_static(b"v0"), CreateMode::Persistent).unwrap();
    let (data, _) = a.get_data("/x", Watch::None).unwrap();
    assert_eq!(&data[..], b"v0");
    let (data, _) = b.get_data("/x", Watch::None).unwrap();
    assert_eq!(&data[..], b"v0");
    let s = b.stats();
    assert_eq!(s.misses, 0, "B's read must be served from A's installed entry: {s:?}");
    assert!(s.hits >= 1, "stats: {s:?}");

    // Foreign write: the watch lives on A's session. Once A drains it,
    // the eviction hits the shared store and B must re-fetch.
    w.set_data("/x", Bytes::from_static(b"v1"), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (data, _) = a.get_data("/x", Watch::None).unwrap();
        if &data[..] == b"v1" {
            break;
        }
        assert!(Instant::now() < deadline, "A's watch never fired");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(a.stats().watch_invalidations >= 1, "stats: {:?}", a.stats());
    let (data, _) = b.get_data("/x", Watch::None).unwrap();
    assert_eq!(&data[..], b"v1", "B served stale bytes after the shared entry was evicted");
    tc.shutdown();
}

/// The watches a bulk warm installs are real one-shot server watches, and
/// they die with the connection like any other: a foreign write to a
/// warmed child invalidates it, and a crash of the serving member flushes
/// the whole warmed set on reconnect (after which a re-warm works).
#[test]
fn bulk_warm_watches_invalidate_and_reconnect_flushes_the_warmed_set() {
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

    w.create("/d", Bytes::new(), CreateMode::Persistent).unwrap();
    for i in 0..3 {
        w.create(&format!("/d/c{i}"), Bytes::from_static(b"old"), CreateMode::Persistent).unwrap();
    }
    let entries = r.warm_children("/d").unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(r.stats().bulk_warms, 1);

    // Foreign write to a warmed child: the data watch the warm installed
    // must evict exactly that entry.
    w.set_data("/d/c0", Bytes::from_static(b"new"), None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (data, _) = r.get_data("/d/c0", Watch::None).unwrap();
        if &data[..] == b"new" {
            break;
        }
        assert!(Instant::now() < deadline, "warm-installed watch never invalidated the child");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(r.stats().watch_invalidations >= 1, "stats: {:?}", r.stats());

    // Crash the serving member: watches the warm left there fire into the
    // void, so the reconnect must flush the warmed set and the foreign
    // write becomes visible within the lease bound + failover slack.
    let at = r.inner().transport().connected_addr();
    let on = tc.addrs().iter().position(|&a| Some(a) == at).expect("a live link");
    tc.crash(on);
    w.set_data("/d/c1", Bytes::from_static(b"post-crash"), None).unwrap();
    let bound = Duration::from_millis(LEASE_MS + LEASE_MARGIN_MS + 15_000);
    let start = Instant::now();
    loop {
        match r.get_data("/d/c1", Watch::None) {
            Ok((data, _)) if &data[..] == b"post-crash" => break,
            Ok((data, _)) => assert_eq!(&data[..], b"old", "impossible third value"),
            Err(ZkError::ConnectionLoss | ZkError::Net) => {}
            Err(e) => panic!("unexpected error during failover: {e:?}"),
        }
        assert!(
            start.elapsed() < bound,
            "warmed entry survived the reconnect flush: {:?}",
            r.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(r.stats().reconnect_invalidations >= 1, "stats: {:?}", r.stats());

    // And the directory can be re-warmed on the new connection.
    let entries = r.warm_children("/d").unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(r.stats().bulk_warms, 2);
    tc.restart(on);
    tc.shutdown();
}
