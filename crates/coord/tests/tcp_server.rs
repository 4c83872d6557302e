//! [`TcpServer`] behaviours no cluster-level suite reaches: a member that
//! joins after the others have been running, a peer that speaks garbage,
//! and session pinning past the end of the member list.

use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_coord::runtime::ServerStatus;
use dufs_coord::tcp::{TcpServer, TcpServerConfig};
use dufs_coord::{
    remote_status, ClientOptions, ClusterBuilder, CoordService, TcpTransport, Watch, ZkClient,
};
use dufs_net::{connect, EndpointKind, Hello, Listener, NetConfig, NetStats};
use dufs_zab::PeerId;
use dufs_zkstore::CreateMode;

fn probe(addr: std::net::SocketAddr) -> Option<ServerStatus> {
    remote_status(addr, Duration::from_secs(2))
}

/// Members 0 and 1 of a three-member ensemble run, elect and commit while
/// member 2's address is bound but nobody serves it: their dials to it time
/// out, what they queue behind each dial is dropped, and they keep
/// redialing. When member 2 finally starts, the redials land, the
/// connections are handed back to the loops, and ZAB syncs the newcomer up
/// to the same replica state.
#[test]
fn a_member_started_late_catches_up() {
    let listeners: Vec<Listener> =
        (0..3).map(|_| Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap()).collect();
    let addrs: Vec<_> = listeners.iter().map(Listener::local_addr).collect();
    let spawn = |i: usize, l: Listener| {
        TcpServer::spawn(l, TcpServerConfig::new(PeerId(i as u32), addrs.clone()))
    };
    let mut listeners = listeners.into_iter();
    let early: Vec<TcpServer> = (0..2).map(|i| spawn(i, listeners.next().unwrap())).collect();

    let deadline = Instant::now() + Duration::from_secs(30);
    let leader = loop {
        if let Some(l) = (0..2).find(|&i| probe(addrs[i]).is_some_and(|s| s.is_leader)) {
            break l;
        }
        assert!(Instant::now() < deadline, "two of three members never elected a leader");
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut c = ZkClient::establish(TcpTransport::new(vec![addrs[leader]])).unwrap();
    for i in 0..20 {
        c.create(&format!("/n{i}"), Bytes::from_static(b"x"), CreateMode::Persistent).unwrap();
    }
    let want = probe(addrs[leader]).expect("leader status");
    assert!(want.node_count >= 20, "the creates must have applied: {want:?}");
    // A dial into the unserved backlog only fails by timing out: let the
    // early members' first dials fail, so the late member is reached by a
    // redial, not by a dial that was already waiting for it.
    std::thread::sleep(Duration::from_millis(NetConfig::default().connect_timeout_ms + 500));

    let late = spawn(2, listeners.next().unwrap());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = probe(addrs[2]);
        if got.as_ref().is_some_and(|s| (s.digest, s.node_count) == (want.digest, want.node_count))
        {
            break;
        }
        assert!(Instant::now() < deadline, "late joiner stuck at {got:?}, want {want:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    // And it takes part from here on: a write commits on all three.
    c.create("/after", Bytes::new(), CreateMode::Persistent).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while probe(addrs[2]).map(|s| s.node_count) != Some(want.node_count + 1) {
        assert!(Instant::now() < deadline, "late joiner missed a write made after it joined");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(c);
    late.shutdown();
    early.into_iter().for_each(TcpServer::shutdown);
}

/// A frame that passes the transport's CRC but is no `CoordMsg` means the
/// dialer speaks something else: the server hangs up on that link and
/// nothing else is disturbed.
#[test]
fn a_peer_sending_an_undecodable_frame_is_hung_up_on() {
    let cluster = ClusterBuilder::new().voters(3).tcp();
    let leader = cluster.await_leader(Duration::from_secs(20)).expect("leader");
    let mut c = cluster.client(ClientOptions::at(leader)).unwrap();
    c.create("/before", Bytes::new(), CreateMode::Persistent).unwrap();

    let hello = Hello { kind: EndpointKind::Peer, id: ((leader + 1) % 3) as u64 };
    let (rogue, rx) =
        connect(cluster.addrs()[leader], hello, &NetConfig::default(), &NetStats::new()).unwrap();
    rogue.send(vec![0xFF; 9]).unwrap();
    match rx.recv_timeout(Duration::from_secs(10)) {
        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {}
        other => panic!("the server must hang up on the rogue link, got {other:?}"),
    }

    let before = cluster.status(leader).node_count;
    c.create("/after", Bytes::new(), CreateMode::Persistent).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (0..3).any(|i| cluster.status(i).node_count != before + 1) {
        assert!(Instant::now() < deadline, "the ensemble stopped committing");
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}

/// `ClientOptions::at` wraps around the member list, with and without
/// failover (the TCP runtime used to index out of bounds when pinned).
#[test]
fn pinning_past_the_last_member_wraps() {
    let n = 3;
    let tcp = ClusterBuilder::new().voters(n).tcp();
    tcp.await_leader(Duration::from_secs(20)).expect("leader");
    for server in [n, n + 1] {
        for opts in [ClientOptions::at(server), ClientOptions::at(server).with_failover()] {
            let mut c = tcp.client(opts).unwrap();
            assert_eq!(c.transport().connected_addr(), Some(tcp.addrs()[server - n]));
            assert!(c.exists("/", Watch::None).unwrap().is_some());
        }
    }
    tcp.shutdown();
}
