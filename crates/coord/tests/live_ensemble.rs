//! Integration tests for a live coordination ensemble on loopback sockets:
//! the system a DUFS deployment would actually run against. The crash tests
//! use [`TcpCluster::crash`], which silences a member but leaves its
//! listener and connections open, so clients see a server that stops
//! answering rather than one that hangs up.

use std::time::{Duration, Instant};

use bytes::Bytes;
use dufs_coord::runtime::ClientEvent;
use dufs_coord::{
    ClientOptions, ClientTransport, ClusterBuilder, CoordService, TcpCluster, TcpTransport, Watch,
    ZkRequest, ZkResponse,
};
use dufs_zkstore::{CreateMode, MultiOp, ZkError};

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// A session on member `idx` over a bare transport (request 1 was its
/// `Connect`), so a test can leave a request unanswered and watch what
/// comes back on the same connection.
fn raw_session(cluster: &TcpCluster, idx: usize) -> (TcpTransport, u64) {
    let mut t = TcpTransport::new(vec![cluster.addrs()[idx]]);
    t.send(1, 0, ZkRequest::Connect).expect("dial");
    match t.recv(Duration::from_secs(5)) {
        Some(ClientEvent::Resp { req_id: 1, resp: ZkResponse::Connected { session } }) => {
            (t, session)
        }
        other => panic!("no session: {other:?}"),
    }
}

/// Cluster tests use real-time election timers; running many 3-server
/// ensembles concurrently on a loaded machine makes watchdogs flap. Tests
/// that start a cluster serialize on this gate (same idiom as the root
/// consistency suite).
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poll until the listed replicas hold identical digests (replication has
/// drained). A fixed sleep is not enough on a loaded CI machine where many
/// ensembles' threads compete for cores.
fn await_converged(cluster: &TcpCluster, replicas: &[usize], timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let digests: Vec<u64> = replicas.iter().map(|&i| cluster.status(i).digest).collect();
        if digests.windows(2).all(|w| w[0] == w[1]) {
            return;
        }
        assert!(Instant::now() < deadline, "replicas failed to converge: digests {digests:?}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn replicas_converge_to_identical_digests() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let mut c = cluster.client(ClientOptions::at(1)).unwrap();
    for i in 0..50 {
        c.create(&format!("/n{i}"), b("x"), CreateMode::Persistent).unwrap();
    }
    // Let replication drain, then compare replica digests.
    await_converged(&cluster, &[0, 1, 2], Duration::from_secs(10));
    assert_eq!(cluster.status(0).node_count, 50);
    cluster.shutdown();
}

#[test]
fn conditional_ops_and_errors() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(1).tcp();
    cluster.await_leader(Duration::from_secs(5)).expect("leader");
    let mut c = cluster.client(ClientOptions::at(0)).unwrap();

    c.create("/v", b("a"), CreateMode::Persistent).unwrap();
    let stat = c.set_data("/v", b("b"), Some(0)).unwrap();
    assert_eq!(stat.version, 1);
    assert_eq!(c.set_data("/v", b("c"), Some(0)).unwrap_err(), ZkError::BadVersion);
    assert_eq!(c.delete("/v", Some(0)).unwrap_err(), ZkError::BadVersion);
    c.delete("/v", Some(1)).unwrap();
    assert_eq!(c.get_data("/v", Watch::None).unwrap_err(), ZkError::NoNode);
    assert_eq!(c.create("/x/y", b(""), CreateMode::Persistent).unwrap_err(), ZkError::NoNode);
    cluster.shutdown();
}

#[test]
fn multi_rename_is_atomic_across_ensemble() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let mut c = cluster.client(ClientOptions::at(0)).unwrap();
    c.create("/f", b("FID:1234"), CreateMode::Persistent).unwrap();
    // DUFS rename: new name + delete old, atomically.
    c.multi(vec![
        MultiOp::Create { path: "/g".into(), data: b("FID:1234"), mode: CreateMode::Persistent },
        MultiOp::Delete { path: "/f".into(), version: None },
    ])
    .unwrap();
    let mut c2 = cluster.client(ClientOptions::at(1)).unwrap();
    c2.sync().unwrap();
    assert!(c2.exists("/f", Watch::None).unwrap().is_none());
    let (data, _) = c2.get_data("/g", Watch::None).unwrap();
    assert_eq!(&data[..], b"FID:1234");
    cluster.shutdown();
}

#[test]
fn sequential_znodes_order_across_clients() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let mut a = cluster.client(ClientOptions::at(0)).unwrap();
    let mut bb = cluster.client(ClientOptions::at(1)).unwrap();
    a.create("/q", b(""), CreateMode::Persistent).unwrap();
    let p1 = a.create("/q/n-", b(""), CreateMode::PersistentSequential).unwrap();
    let p2 = bb.create("/q/n-", b(""), CreateMode::PersistentSequential).unwrap();
    let p3 = a.create("/q/n-", b(""), CreateMode::PersistentSequential).unwrap();
    assert!(p1 < p2 && p2 < p3, "{p1} {p2} {p3}");
    cluster.shutdown();
}

#[test]
fn watches_fire_across_clients() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let mut watcher = cluster.client(ClientOptions::at(0)).unwrap();
    let mut mutator = cluster.client(ClientOptions::at(0)).unwrap(); // same server: watch + change visible there

    watcher.create("/watched", b("v0"), CreateMode::Persistent).unwrap();
    watcher.get_data("/watched", Watch::Set).unwrap();
    mutator.set_data("/watched", b("v1"), None).unwrap();

    let note = watcher.await_watch(Duration::from_secs(5)).expect("watch fired");
    assert_eq!(note.path, "/watched");
    cluster.shutdown();
}

#[test]
fn ephemerals_vanish_when_session_closes() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let ephemeral_owner = cluster.client(ClientOptions::at(1)).unwrap();
    let mut observer = cluster.client(ClientOptions::at(0)).unwrap();

    let mut owner = ephemeral_owner;
    owner.create("/locks", b(""), CreateMode::Persistent).unwrap();
    owner.create("/locks/holder", b(""), CreateMode::Ephemeral).unwrap();
    observer.sync().unwrap();
    assert!(observer.exists("/locks/holder", Watch::None).unwrap().is_some());

    owner.close().unwrap();
    observer.sync().unwrap();
    assert!(observer.exists("/locks/holder", Watch::None).unwrap().is_none());
    cluster.shutdown();
}

#[test]
fn follower_crash_does_not_lose_service_and_restarts_catch_up() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let follower = (0..3).find(|&i| i != leader).unwrap();
    let surviving = (0..3).find(|&i| i != leader && i != follower).unwrap();

    let mut c = cluster.client(ClientOptions::at(surviving)).unwrap();
    c.create("/pre", b(""), CreateMode::Persistent).unwrap();
    cluster.crash(follower);
    for i in 0..10 {
        c.create(&format!("/during{i}"), b(""), CreateMode::Persistent).unwrap();
    }
    cluster.restart(follower);
    // Allow resync, then the restarted replica must converge.
    await_converged(&cluster, &[follower, surviving], Duration::from_secs(45));
    assert!(cluster.status(follower).alive);
    cluster.shutdown();
}

#[test]
fn observers_serve_reads_in_the_live_runtime() {
    let _g = serial();
    // 3 voters + 1 observer (server index 3).
    let cluster = ClusterBuilder::new().voters(3).observers(1).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let leader = cluster.leader_index().unwrap();
    assert!(leader < 3, "observers never lead");

    let mut writer = cluster.client(ClientOptions::at(0)).unwrap();
    writer.create("/from-voter", b("v"), CreateMode::Persistent).unwrap();

    // A client connected to the OBSERVER: reads locally, writes forwarded.
    let mut via_obs = cluster.client(ClientOptions::at(3)).unwrap();
    via_obs.sync().unwrap();
    let (data, _) = via_obs.get_data("/from-voter", Watch::None).unwrap();
    assert_eq!(&data[..], b"v");
    via_obs.create("/from-observer", b("o"), CreateMode::Persistent).unwrap();
    writer.sync().unwrap();
    assert!(writer.exists("/from-observer", Watch::None).unwrap().is_some());

    // The observer replica converges with the voters.
    await_converged(&cluster, &[0, 3], Duration::from_secs(10));

    // Killing the observer must not affect writes at all.
    cluster.crash(3);
    writer.create("/while-obs-down", b(""), CreateMode::Persistent).unwrap();
    assert!(writer.exists("/while-obs-down", Watch::None).unwrap().is_some());
    cluster.shutdown();
}

#[test]
fn leader_crash_fails_over_and_preserves_data() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let other = (0..3).find(|&i| i != leader).unwrap();

    let mut c = cluster.client(ClientOptions::at(other)).unwrap();
    c.set_timeout(Duration::from_secs(2));
    for i in 0..10 {
        c.create(&format!("/pre{i}"), b(""), CreateMode::Persistent).unwrap();
    }
    cluster.crash(leader);
    // A new leader must emerge among the survivors…
    let new_leader = {
        let deadline = Instant::now() + Duration::from_secs(45);
        loop {
            if let Some(l) = (0..3).filter(|&i| i != leader).find(|&i| cluster.status(i).is_leader)
            {
                break l;
            }
            assert!(Instant::now() < deadline, "no failover leader");
            std::thread::sleep(Duration::from_millis(100));
        }
    };
    assert_ne!(new_leader, leader);
    // …and the pre-crash data plus new writes must survive.
    for i in 0..10 {
        assert!(
            c.exists(&format!("/pre{i}"), Watch::None).unwrap().is_some(),
            "/pre{i} lost in failover"
        );
    }
    c.create("/post", b(""), CreateMode::Persistent).unwrap();
    assert!(c.exists("/post", Watch::None).unwrap().is_some());
    cluster.shutdown();
}

#[test]
fn durable_ensemble_survives_whole_cluster_crash_and_cold_start() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("dufs-durable-tc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Act 1: a durable ensemble takes writes (each fsynced before its ack).
    let cluster = ClusterBuilder::new().voters(3).durable(&dir).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let mut c = cluster.client(ClientOptions::at(0)).unwrap();
    for i in 0..40 {
        c.create(&format!("/d{i}"), b("payload"), CreateMode::Persistent).unwrap();
    }
    await_converged(&cluster, &[0, 1, 2], Duration::from_secs(10));
    let digest = cluster.status(0).digest;
    assert_eq!(cluster.status(0).node_count, 40);

    // Act 2: every server crashes at once — no survivor holds the state in
    // memory — then all three restart and recover from their logs.
    for i in 0..3 {
        cluster.crash(i);
    }
    for i in 0..3 {
        cluster.restart(i);
    }
    cluster.await_leader(Duration::from_secs(20)).expect("re-elected after total outage");
    await_converged(&cluster, &[0, 1, 2], Duration::from_secs(45));
    assert_eq!(cluster.status(0).digest, digest, "whole-cluster restart must restore the tree");

    // Still a working ensemble.
    let mut c = cluster.client(ClientOptions::at(1)).unwrap();
    c.create("/after-outage", b("new"), CreateMode::Persistent).unwrap();
    cluster.shutdown();

    // Act 3: a brand-new process generation (fresh TcpCluster) over the
    // same directory — cold start purely from disk.
    let cluster = ClusterBuilder::new().voters(3).durable(&dir).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader from cold start");
    let mut c = cluster.client(ClientOptions::at(2)).unwrap();
    c.sync().unwrap();
    assert_eq!(&c.get_data("/after-outage", Watch::None).unwrap().0[..], b"new");
    assert_eq!(&c.get_data("/d7", Watch::None).unwrap().0[..], b"payload");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_member_is_silent_until_restarted() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let victim = (0..3).find(|&i| i != leader).unwrap();
    let mut w = cluster.client(ClientOptions::at(leader)).unwrap();
    let mut c = cluster.client(ClientOptions::at(victim)).unwrap();
    let (mut raw, session) = raw_session(&cluster, victim);
    w.create("/pre", b(""), CreateMode::Persistent).unwrap();

    cluster.crash(victim);
    let down = cluster.status(victim);
    assert!(!down.alive && !down.is_leader, "{down:?}");
    // The quorum keeps committing without the victim, which applies none
    // of it: it takes no peer message while down.
    for i in 0..5 {
        w.create(&format!("/during{i}"), b(""), CreateMode::Persistent).unwrap();
    }
    raw.send(2, session, ZkRequest::Exists { path: "/pre".into(), watch: false }).unwrap();
    std::thread::sleep(Duration::from_millis(1100));
    let answer = raw.recv(Duration::from_millis(300));
    assert!(answer.is_none(), "a crashed member answered: {answer:?}");
    assert_eq!(cluster.status(victim), down, "a crashed member applied peer traffic");

    cluster.restart(victim);
    assert!(cluster.status(victim).alive);
    c.sync().expect("the restarted member serves its old connection");
    for i in 0..5 {
        assert!(c.exists(&format!("/during{i}"), Watch::None).unwrap().is_some());
    }
    await_converged(&cluster, &[0, 1, 2], Duration::from_secs(30));
    cluster.shutdown();
}

#[test]
fn request_sent_after_crash_returns_is_never_answered() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(1).tcp();
    cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let (mut raw, session) = raw_session(&cluster, 0);
    let mut c = cluster.client(ClientOptions::at(0)).unwrap();
    c.create("/x", b(""), CreateMode::Persistent).unwrap();

    cluster.crash(0);
    raw.send(2, session, ZkRequest::Exists { path: "/x".into(), watch: false }).unwrap();
    let answer = raw.recv(Duration::from_millis(500));
    assert!(answer.is_none(), "a crashed member answered: {answer:?}");

    // Still unanswered after the restart: the next reply on the same FIFO
    // connection belongs to the next request.
    cluster.restart(0);
    cluster.await_leader(Duration::from_secs(10)).expect("leader after restart");
    raw.send(3, session, ZkRequest::Ping).unwrap();
    match raw.recv(Duration::from_secs(5)) {
        Some(ClientEvent::Resp { req_id: 3, resp: ZkResponse::Pong { .. } }) => {}
        other => panic!("request 2 was answered after the restart, or 3 never: {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn failover_session_leaves_a_silent_member_on_timeout() {
    let _g = serial();
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(10)).expect("leader");
    let victim = (0..3).find(|&i| i != leader).unwrap();
    let mut c = cluster.client(ClientOptions::at(victim).with_failover()).unwrap();
    c.create("/f", b(""), CreateMode::Persistent).unwrap();
    assert_eq!(c.transport().connected_addr(), Some(cluster.addrs()[victim]));
    let opened = c.transport().stats().conns_opened;

    // The victim keeps the session's socket open, so nothing breaks: only
    // the request timeout sends the transport to the next member.
    cluster.crash(victim);
    c.set_timeout(Duration::from_millis(300));
    let asked = Instant::now();
    assert!(c.exists("/f", Watch::None).unwrap().is_some());
    assert!(
        asked.elapsed() >= Duration::from_millis(300),
        "the session never waited out a timeout"
    );
    let now = c.transport().connected_addr().expect("a live link");
    assert_ne!(now, cluster.addrs()[victim], "the session stayed on the crashed member");
    assert!(c.transport().stats().conns_opened > opened, "the session never redialed");
    assert!(c.reconnects() >= 1);
    cluster.shutdown();
}
