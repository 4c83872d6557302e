//! Property: [`ReadConsistency::SyncThenLocal`] gives read-your-writes.
//!
//! A session that writes and then reads must observe its own acked writes —
//! even while other clients mutate the namespace concurrently, and even
//! when the server it was reading from dies and the session fails over to
//! a replica that may lag the leader.
//!
//! Two mechanisms make this true. An **acked** write needs no barrier: its
//! reply leaves only the replica the session is connected to, only after
//! that replica applied it, over a FIFO link to a single-threaded state
//! machine that refuses reads while it is not serving (restarted, electing,
//! still syncing) — so later reads on the same connection already see it.
//! Whenever that chain is broken — the write was abandoned with its outcome
//! unknown, is still pipelined, or the session reconnected — `SyncThenLocal`
//! inserts the no-op proposal through ZAB before the next read. The
//! proptests below are the safety net for the whole rule on both the channel
//! transport and the TCP transport; the plain tests pin each half: no
//! barrier (exact zxid counts) where the ack suffices, exactly one where it
//! does not, and no stale answer from a restarted replica.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;

use dufs_coord::{
    ClientOptions, ClusterBuilder, ReadConsistency, ThreadCluster, Watch, ZkRequest, ZkResponse,
};
use dufs_zkstore::{CreateMode, ZkError};

/// Cluster tests use real-time election timers; running several ensembles
/// concurrently on a loaded machine makes watchdogs flap. Serialize.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn payload(tag: u8, round: usize) -> Bytes {
    Bytes::from(format!("payload-{tag}-{round}").into_bytes())
}

/// A fresh WAL root for one durable ensemble.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dufs-ryw-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session pinned to a follower (no failover, so the reconnect counter
/// never moves) writes, and the follower is crashed and restarted under
/// it. Until the replica is back inside an established regime and caught
/// up, it must refuse the session's reads; it may never answer from a tree
/// older than the acked write.
fn restarted_replica_refuses_reads_until_caught_up(cluster: ThreadCluster) {
    let leader = cluster.await_leader(Duration::from_secs(15)).expect("leader");
    let f = (0..3).find(|&i| i != leader).unwrap();
    let mut c = cluster
        .client(ClientOptions::at(f).with_consistency(ReadConsistency::SyncThenLocal))
        .unwrap();
    c.set_timeout(Duration::from_millis(300));
    c.create("/v", payload(0, 0), CreateMode::Persistent).unwrap();
    for round in 1..=3 {
        let want = payload(1, round);
        c.set_data("/v", want.clone(), None).unwrap();
        assert!(!c.is_dirty(), "an acked write owes no barrier");
        cluster.crash(f);
        cluster.restart(f);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match c.get_data("/v", Watch::None) {
                Ok((got, _)) => {
                    assert_eq!(got, want, "restarted replica served an older tree");
                    break;
                }
                Err(ZkError::ConnectionLoss) => {
                    assert!(Instant::now() < deadline, "replica never resumed serving")
                }
                Err(e) => panic!("restarted replica answered from a stale tree: {e:?}"),
            }
        }
        assert!(!c.is_dirty(), "the read needed no barrier");
    }
    cluster.shutdown();
}

#[test]
fn restarted_volatile_replica_never_serves_an_older_tree() {
    let _g = serial();
    restarted_replica_refuses_reads_until_caught_up(ClusterBuilder::new().voters(3).threads());
}

#[test]
fn restarted_durable_replica_never_serves_an_older_tree() {
    let _g = serial();
    let dir = wal_dir("restart");
    restarted_replica_refuses_reads_until_caught_up(
        ClusterBuilder::new().voters(3).durable(&dir).threads(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The barrier is gone where the ack suffices, and only there: zxids are
/// counted on a quiesced durable TCP ensemble with no other session, so
/// every committed transaction is this session's doing.
#[test]
fn acked_writes_cost_one_zab_round_and_reads_after_them_none() {
    let _g = serial();
    let dir = wal_dir("exact");
    let mut cluster = ClusterBuilder::new().voters(3).durable(&dir).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let f = (0..3).find(|&i| i != leader).unwrap();
    let sync_then_local = ClientOptions::at(f).with_consistency(ReadConsistency::SyncThenLocal);
    let mut c = cluster.client(sync_then_local).unwrap();

    // K × (create; read it back; delete; read its absence): one zxid per
    // write, none for a barrier.
    const K: usize = 5;
    let base = cluster.status(f).committed;
    for i in 0..K {
        let path = format!("/exact-{i}");
        c.create(&path, payload(1, i), CreateMode::Persistent).unwrap();
        assert!(!c.is_dirty(), "an acked create owes no barrier");
        assert_eq!(c.get_data(&path, Watch::None).unwrap().0, payload(1, i));
        c.delete(&path, None).unwrap();
        assert!(!c.is_dirty(), "an acked delete owes no barrier");
        assert_eq!(c.exists(&path, Watch::None).unwrap(), None);
    }
    assert_eq!(cluster.status(f).committed - base, 2 * K as u64, "a barrier was proposed");
    // A definitive error is an ack too: ordered, applied, nothing owed.
    assert_eq!(c.delete("/exact-0", None), Err(ZkError::NoNode));
    assert!(!c.is_dirty());

    // Pipelined writes owe a barrier until the last ack has been collected.
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            c.submit(ZkRequest::Create {
                path: format!("/piped-{i}"),
                data: payload(2, i),
                mode: CreateMode::Persistent,
            })
        })
        .collect();
    for id in ids {
        assert!(c.is_dirty(), "pipelined write {id} is still outstanding");
        let (got, resp) = c.next_completion().expect("completion");
        assert_eq!(got, id);
        assert!(matches!(resp, ZkResponse::Created { .. }), "{resp:?}");
    }
    assert!(!c.is_dirty(), "the last pipelined ack was collected");
    let base = cluster.status(f).committed;
    assert_eq!(c.get_data("/piped-2", Watch::None).unwrap().0, payload(2, 2));
    assert_eq!(cluster.status(f).committed, base, "a read after collected acks barriered");
    c.close().unwrap();

    // A failover between ack and read voids the invariant — the new replica
    // never acked anything to us — so the reconnect rule still barriers.
    let mut c = cluster.client(sync_then_local.with_failover()).unwrap();
    c.create("/moved", payload(3, 0), CreateMode::Persistent).unwrap();
    assert!(!c.is_dirty());
    let rc = c.reconnects();
    cluster.stop(f);
    let base = cluster.status(leader).committed;
    assert_eq!(c.get_data("/moved", Watch::None).unwrap().0, payload(3, 0));
    assert!(c.reconnects() > rc, "the session never failed over");
    assert_eq!(cluster.status(leader).committed - base, 1, "failover costs exactly one barrier");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write abandoned on `ConnectionLoss` has an unknown outcome: the
/// session owes a barrier until a `sync` goes through — exactly one.
#[test]
fn abandoned_write_owes_exactly_one_barrier() {
    let _g = serial();
    let dir = wal_dir("abandoned");
    let cluster = ClusterBuilder::new().voters(3).durable(&dir).threads();
    let leader = cluster.await_leader(Duration::from_secs(15)).expect("leader");
    let f = (0..3).find(|&i| i != leader).unwrap();
    let mut c = cluster
        .client(ClientOptions::at(f).with_consistency(ReadConsistency::SyncThenLocal))
        .unwrap();
    c.create("/kept", payload(0, 0), CreateMode::Persistent).unwrap();
    assert!(!c.is_dirty());

    // The quorum is gone while the next write is in flight.
    let others = (0..3).filter(|&i| i != f);
    others.clone().for_each(|i| cluster.crash(i));
    c.set_timeout(Duration::from_millis(200));
    assert_eq!(c.set_data("/kept", payload(1, 1), None), Err(ZkError::ConnectionLoss));
    assert!(c.is_dirty(), "an abandoned write owes a barrier");
    others.for_each(|i| cluster.restart(i));
    c.set_timeout(Duration::from_secs(5));

    // The ensemble recovers and a later write of the session is acked (in
    // the new epoch, so the zxids below are comparable) — but that ack says
    // nothing about the abandoned write: only a barrier settles the debt.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match c.create("/after", payload(2, 2), CreateMode::Persistent) {
            Ok(_) | Err(ZkError::NodeExists) => break,
            Err(ZkError::ConnectionLoss) => {
                assert!(Instant::now() < deadline, "ensemble never recovered")
            }
            Err(e) => panic!("create after recovery: {e:?}"),
        }
    }
    assert!(c.is_dirty(), "a later ack does not settle an unknown outcome");

    let base = cluster.status(f).committed;
    c.get_data("/kept", Watch::None).unwrap();
    assert_eq!(cluster.status(f).committed - base, 1, "the next read issues exactly one Sync");
    assert!(!c.is_dirty());
    c.exists("/kept", Watch::None).unwrap();
    assert_eq!(cluster.status(f).committed - base, 1, "the debt is paid once");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Channel transport: the reader session starts on an OBSERVER (the
    /// replica most likely to lag), writes through it, has it crashed out
    /// from under itself mid-round, and must still see every one of its own
    /// acked writes after failing over — while a second session hammers the
    /// namespace from another member.
    #[test]
    fn sync_then_local_reads_own_writes_across_thread_failover(
        tags in proptest::collection::vec(any::<u8>(), 2..5),
    ) {
        let _g = serial();
        let cluster = Arc::new(ClusterBuilder::new().voters(3).observers(1).threads());
        cluster.await_leader(Duration::from_secs(15)).expect("leader");
        let observer = 3;

        let mut c = cluster
            .client(
                ClientOptions::at(observer)
                    .with_failover()
                    .with_consistency(ReadConsistency::SyncThenLocal),
            )
            .unwrap();
        c.set_timeout(Duration::from_millis(500));

        // Concurrent mutator: unrelated churn from another member, so the
        // reader's barrier has real replication traffic to race against.
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

        let mut written: Vec<(String, Bytes, u8)> = Vec::new();
        for (round, &tag) in tags.iter().enumerate() {
            let path = format!("/ryw-{round}");
            let data = payload(tag, round);
            c.create(&path, data.clone(), CreateMode::Persistent).unwrap();
            written.push((path, data, tag));

            // Every other round, kill the replica the session sits on: the
            // read below must fail over and STILL see the write.
            let crashed = round % 2 == 0;
            if crashed {
                cluster.crash(observer);
            }
            for (p, want, _) in &written {
                let (got, _) = c.get_data(p, Watch::None).unwrap_or_else(|e| {
                    panic!("own acked write {p} invisible after failover: {e:?}")
                });
                prop_assert_eq!(&got, want, "stale read of {}", p);
            }
            if crashed {
                cluster.restart(observer);
            }
        }

        stop.store(true, Ordering::Relaxed);
        mutator.join().expect("mutator");
        Arc::try_unwrap(cluster).ok().expect("all handles dropped").shutdown();
    }

    /// TCP transport: same property over real sockets. A member is stopped
    /// for good (kill-the-process failure model — no restart), so the
    /// session's remaining reads all come from a replica the original
    /// barrier never touched.
    #[test]
    fn sync_then_local_reads_own_writes_across_tcp_failover(
        tags in proptest::collection::vec(any::<u8>(), 2..4),
    ) {
        let _g = serial();
        let mut cluster = ClusterBuilder::new().voters(3).tcp();
        let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
        let start = (0..3).find(|&i| i != leader).unwrap();

        let mut c = cluster
            .client(
                ClientOptions::at(start)
                    .with_failover()
                    .with_consistency(ReadConsistency::SyncThenLocal),
            )
            .unwrap();
        c.set_timeout(Duration::from_millis(500));
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

        // Phase 1: write + read-back while the home server is alive.
        let mut written: Vec<(String, Bytes)> = Vec::new();
        for (round, &tag) in tags.iter().enumerate() {
            let path = format!("/ryw-{round}");
            let data = payload(tag, round);
            c.create(&path, data.clone(), CreateMode::Persistent).unwrap();
            let (got, _) = c.get_data(&path, Watch::None).unwrap();
            prop_assert_eq!(&got, &data);
            written.push((path, data));
        }

        // Phase 2: the home server dies for good; every prior acked write
        // must be observed through whichever member the session lands on.
        cluster.stop(start);
        for (p, want) in &written {
            let (got, _) = c.get_data(p, Watch::None).unwrap_or_else(|e| {
                panic!("own acked write {p} invisible after tcp failover: {e:?}")
            });
            prop_assert_eq!(&got, want, "stale read of {} after failover", p);
        }
        // And the session still gives RYW for fresh writes post-failover.
        c.create("/ryw-post", Bytes::from_static(b"post"), CreateMode::Persistent).unwrap();
        let (got, _) = c.get_data("/ryw-post", Watch::None).unwrap();
        prop_assert_eq!(&got[..], b"post");

        stop.store(true, Ordering::Relaxed);
        mutator.join().expect("mutator");
        cluster.shutdown();
    }
}
