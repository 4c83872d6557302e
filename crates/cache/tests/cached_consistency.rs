//! The cache must not weaken PR 5's consistency story.
//!
//! * **Read-your-writes survives the cache + failover** — the
//!   `read_consistency.rs` proptests from `dufs-coord`, re-run with a
//!   [`Cached`] in front of the session, under both failure models, with
//!   the serving replica killed out from under the reader mid-round
//!   (crashed in place with its sockets open, and stopped for good). This
//!   is the regression gate for
//!   watches fired while disconnected: the server never replays them, so
//!   only the reconnect's full invalidation keeps cached entries honest.
//! * **The lease bound is real** — a leased `SyncThenLocal` reader that
//!   skips barriers never observes data staler than `LEASE_MS` (plus
//!   margin and delivery slack), even across a forced leader change, the
//!   one scenario where a deposed replica could keep serving from a stale
//!   view until its grants expire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;

use dufs_cache::CacheBuilder;
use dufs_coord::server::{LEASE_MARGIN_MS, LEASE_MS};
use dufs_coord::{ClientOptions, ClusterBuilder, CoordService, ReadConsistency, Watch};
use dufs_zkstore::CreateMode;

/// Cluster tests use real-time election timers; serialize the ensembles.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn payload(tag: u8, round: usize) -> Bytes {
    Bytes::from(format!("payload-{tag}-{round}").into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Crash failover: cached reader on an observer, crashed out from
    /// under it every other round — its socket stays open, so only the
    /// request timeout moves the session on — while a second session
    /// churns the namespace. Every one of its own acked writes must stay
    /// visible through cache, lease skips, and failovers.
    #[test]
    fn cached_reads_own_writes_across_crash_failover(
        tags in proptest::collection::vec(any::<u8>(), 2..5),
    ) {
        let _g = serial();
        let cluster = Arc::new(ClusterBuilder::new().voters(3).observers(1).tcp());
        cluster.await_leader(Duration::from_secs(15)).expect("leader");
        let observer = 3;

        // The reader runs over a process-shared cache — every consistency
        // claim must hold unchanged when the store is shared.
        let shared = CacheBuilder::new().shared();
        let mut c = shared.session(
            cluster
                .client(
                    ClientOptions::at(observer)
                        .with_failover()
                        .with_consistency(ReadConsistency::SyncThenLocal),
                )
                .unwrap(),
        );
        c.inner_mut().set_timeout(Duration::from_millis(500));

        let stop = Arc::new(AtomicBool::new(false));
        let mutator = {
            let stop = stop.clone();
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let mut m = cluster.client(ClientOptions::at(0).with_failover()).unwrap();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = m.create(
                        &format!("/noise-{i}"),
                        Bytes::from_static(b"n"),
                        CreateMode::Persistent,
                    );
                    i += 1;
                }
            })
        };

        let mut written: Vec<(String, Bytes)> = Vec::new();
        let mut crashed_rounds = 0u32;
        for (round, &tag) in tags.iter().enumerate() {
            let path = format!("/ryw-{round}");
            let data = payload(tag, round);
            // At-least-once: a retry after a lost ack may find its own
            // first attempt already applied.
            match c.create(&path, data.clone(), CreateMode::Persistent) {
                Ok(_) | Err(dufs_zkstore::ZkError::NodeExists) => {}
                Err(e) => panic!("create {path}: {e:?}"),
            }
            written.push((path, data));

            // Every other round, kill the member this session is ACTUALLY
            // on (early transient failovers can move it off the observer).
            // The newest path was just invalidated by its own create, so
            // its read below must contact the dead server, fail over, and
            // STILL see every write — even if the dead member happened to
            // be the leader and an election is in the way.
            let at = c.inner().transport().connected_addr();
            let on = cluster.addrs().iter().position(|&a| Some(a) == at).expect("a live link");
            let crashed = round % 2 == 0;
            if crashed {
                cluster.crash(on);
                crashed_rounds += 1;
            }
            for (p, want) in &written {
                let (got, _) = c.get_data(p, Watch::None).unwrap_or_else(|e| {
                    panic!("own acked write {p} invisible through the cache: {e:?}")
                });
                prop_assert_eq!(&got, want, "stale cached read of {}", p);
            }
            if crashed {
                cluster.restart(on);
            }
        }

        // One more read so a reconnect in the very last round registers its
        // full invalidation (the flush lands on the NEXT cache access).
        let _ = c.get_data("/ryw-0", Watch::None);
        let s = c.stats();
        prop_assert!(
            crashed_rounds == 0 || s.reconnect_invalidations >= 1,
            "failovers happened but the cache was never flushed: {:?}", s
        );
        prop_assert!(crashed_rounds >= 1, "no round ever exercised a crash");
        stop.store(true, Ordering::Relaxed);
        mutator.join().expect("mutator");
        drop(c);
        Arc::try_unwrap(cluster).ok().expect("all handles dropped").shutdown();
    }

    /// Stop failover: same property under the kill-9 failure model — a
    /// member is stopped for good, its sockets die, and the cached session
    /// must fail over without ever serving a stale entry. Watches the dead
    /// server owed us are covered by the reconnect flush.
    #[test]
    fn cached_reads_own_writes_across_stop_failover(
        tags in proptest::collection::vec(any::<u8>(), 2..4),
    ) {
        let _g = serial();
        let mut cluster = ClusterBuilder::new().voters(3).tcp();
        let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let start = (0..3).find(|&i| i != leader).unwrap();

        let mut c = CacheBuilder::new().session(cluster
                .client(
                    ClientOptions::at(start)
                        .with_failover()
                        .with_consistency(ReadConsistency::SyncThenLocal),
                )
                .unwrap());
        c.inner_mut().set_timeout(Duration::from_millis(500));

        let stop = Arc::new(AtomicBool::new(false));
        let mutator = {
            let stop = stop.clone();
            let mut m = cluster.client(ClientOptions::at(leader).with_failover()).unwrap();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = m.create(
                        &format!("/noise-{i}"),
                        Bytes::from_static(b"n"),
                        CreateMode::Persistent,
                    );
                    i += 1;
                }
            })
        };

        // Phase 1: write + cached read-back while the home server lives.
        let mut written: Vec<(String, Bytes)> = Vec::new();
        for (round, &tag) in tags.iter().enumerate() {
            let path = format!("/ryw-{round}");
            let data = payload(tag, round);
            match c.create(&path, data.clone(), CreateMode::Persistent) {
                Ok(_) | Err(dufs_zkstore::ZkError::NodeExists) => {}
                Err(e) => panic!("create {path}: {e:?}"),
            }
            let (got, _) = c.get_data(&path, Watch::None).unwrap();
            prop_assert_eq!(&got, &data);
            written.push((path, data));
        }

        // Phase 2: kill -9 the server actually holding the session's socket
        // (transient phase-1 failovers can move it off `start`). Cached
        // entries from it must be flushed on failover; every acked write
        // stays visible. The create below reaches the dead socket first —
        // the watches it owed this session died with it.
        let on_addr = c.inner_mut().transport().connected_addr().expect("live link");
        let on = cluster.addrs().iter().position(|a| *a == on_addr).expect("known member");
        cluster.stop(on);
        for (p, want) in &written {
            let (got, _) = c.get_data(p, Watch::None).unwrap_or_else(|e| {
                panic!("own acked write {p} invisible after tcp kill-9: {e:?}")
            });
            prop_assert_eq!(&got, want, "stale cached read of {} after kill-9", p);
        }
        match c.create("/ryw-post", Bytes::from_static(b"post"), CreateMode::Persistent) {
            Ok(_) | Err(dufs_zkstore::ZkError::NodeExists) => {}
            Err(e) => panic!("create /ryw-post: {e:?}"),
        }
        let (got, _) = c.get_data("/ryw-post", Watch::None).unwrap();
        prop_assert_eq!(&got[..], b"post");
        prop_assert!(c.stats().reconnect_invalidations >= 1, "stats: {:?}", c.stats());

        stop.store(true, Ordering::Relaxed);
        mutator.join().expect("mutator");
        cluster.shutdown();
    }
}

/// Acceptance gate: a leased `SyncThenLocal` reader never observes data
/// staler than the lease bound, across a forced leader change.
///
/// A writer session bumps a counter node and records the ack instant of
/// every write. A cached + leased reader pinned to a follower reads the
/// counter in a loop; midway, the leader is crashed and a new one elected.
/// For every read started at `t0`, any write acked before
/// `t0 − (LEASE_MS + LEASE_MARGIN_MS + slack)` must already be visible —
/// a reader that skipped a barrier on a stale grant from the old regime
/// would violate this as soon as the grant outlived its evidence.
#[test]
fn leased_reads_bounded_staleness_across_leader_change() {
    let _g = serial();
    let cluster = Arc::new(ClusterBuilder::new().voters(5).tcp());
    let leader = cluster.await_leader(Duration::from_secs(15)).expect("leader");
    let follower = (0..5).find(|&i| i != leader).unwrap();

    let mut w = cluster.client(ClientOptions::at(leader).with_failover()).unwrap();
    w.set_timeout(Duration::from_millis(500));
    w.create("/clock", Bytes::from_static(b"0"), CreateMode::Persistent).unwrap();

    // (counter value, instant its write was acked)
    let acked: Arc<Mutex<Vec<(u64, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let acked = acked.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let data = Bytes::from(i.to_string().into_bytes());
                if w.set_data("/clock", data, None).is_ok() {
                    acked.lock().unwrap().push((i, Instant::now()));
                    i += 1;
                }
                std::thread::sleep(Duration::from_millis(15));
            }
        })
    };

    // Shared store: the lease bound is licensed per attached session, so
    // it must hold verbatim when the reader's cache is process-shared.
    let mut r = CacheBuilder::new().shared().session(
        cluster
            .client(
                ClientOptions::at(follower)
                    .with_failover()
                    .with_consistency(ReadConsistency::SyncThenLocal),
            )
            .unwrap(),
    );
    r.inner_mut().set_timeout(Duration::from_millis(500));

    // Generous real-time slack over the protocol bound: watch/commit
    // delivery, dilated timers, scheduling on a loaded CI box.
    let bound = Duration::from_millis(LEASE_MS + LEASE_MARGIN_MS + 2_500);
    let t_end = Instant::now() + Duration::from_secs(8);
    let t_crash = Instant::now() + Duration::from_secs(3);
    let mut crashed = false;
    let mut reads = 0u64;
    while Instant::now() < t_end {
        if !crashed && Instant::now() >= t_crash {
            // Forced leader change: the old leader's grants must expire
            // before any replica serves beyond the bound on their strength.
            cluster.crash(leader);
            crashed = true;
        }
        let t0 = Instant::now();
        let val: u64 = match r.get_data("/clock", Watch::None) {
            Ok((data, _)) => String::from_utf8_lossy(&data).parse().unwrap_or(0),
            Err(_) => continue, // election in progress; the bound still applies to later reads
        };
        reads += 1;
        // The newest write that was already acked `bound` before this read
        // began must be visible (counter values only grow).
        let must_see = {
            let acked = acked.lock().unwrap();
            acked.iter().rev().find(|(_, t)| t0.duration_since(*t) >= bound).map(|(i, _)| *i)
        };
        if let Some(floor) = must_see {
            assert!(
                val >= floor,
                "read at +{:?} observed {} but write {} was acked {:?} earlier — \
                 staler than the lease bound",
                t0,
                val,
                floor,
                bound
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(reads > 20, "reader starved — only {reads} reads completed");
    assert!(crashed, "leader change never happened");
    let s = r.stats();
    assert!(s.hits + s.misses > 0, "cache never engaged: {s:?}");

    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer");
    cluster.restart(leader);
    drop(r);
    Arc::try_unwrap(cluster).ok().expect("all handles dropped").shutdown();
}
