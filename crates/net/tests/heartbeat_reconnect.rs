//! Heartbeat liveness and reconnect regressions on the readiness loop.
//!
//! The blocking transport enforced three contracts the reactor must keep:
//! an idle connection stays alive indefinitely (heartbeats count as
//! traffic), a peer that goes silent without closing is declared dead
//! after `max_misses` windows, and a hard-dropped peer is redialed with
//! exponential backoff — all of it visible in [`NetStats`].

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dufs_net::frame::write_frame;
use dufs_net::{
    connect, read_frame, Backoff, ConnEvent, EndpointKind, Frame, Hello, Listener, NetConfig,
    NetStats, MAX_FRAME,
};

fn server_hello() -> Hello {
    Hello { kind: EndpointKind::Server, id: 0 }
}

fn client_hello(id: u64) -> Hello {
    Hello { kind: EndpointKind::Client, id }
}

/// An idle connection must survive many heartbeat intervals: heartbeats
/// keep both liveness clocks fed, so neither side ever accumulates
/// `max_misses` and the link stays usable.
#[test]
fn idle_connection_survives_many_heartbeat_intervals() {
    let cfg = NetConfig { heartbeat_ms: 25, max_misses: 4, ..NetConfig::default() };
    let server_stats = NetStats::new();
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    // Echo, so the post-idle probe below round-trips.
    let kill = Arc::new(AtomicBool::new(false));
    let accept = common::spawn_echo(listener, cfg, server_stats.clone(), kill.clone());
    let client_stats = NetStats::new();
    let (conn, rx) = connect(addr, client_hello(1), &cfg, &client_stats).unwrap();
    // 16 heartbeat intervals of pure silence — 4× the death budget.
    std::thread::sleep(Duration::from_millis(16 * 25));
    conn.send(b"still alive?".to_vec()).expect("idle connection must accept sends");
    let echoed = rx.recv_timeout(Duration::from_secs(5)).expect("idle connection must answer");
    assert_eq!(echoed, b"still alive?");
    let s = client_stats.snapshot();
    assert!(s.heartbeats_sent >= 4, "client idled without heartbeating: {s:?}");
    assert!(s.heartbeats_recv >= 4, "server heartbeats never arrived: {s:?}");
    assert_eq!(s.conns_registered, 1, "the idle conn must still be registered: {s:?}");
    accept.stop();
    kill.store(true, Ordering::SeqCst);
}

/// An idle-payload source turns empty heartbeat slots into real frames:
/// the peer receives them as ordinary messages, the sender's stats count
/// them as piggybacked, and clearing the source restores plain
/// keepalives.
#[test]
fn idle_source_piggybacks_payloads_on_heartbeat_slots() {
    let cfg = NetConfig { heartbeat_ms: 25, max_misses: 4, ..NetConfig::default() };
    let server_stats = NetStats::new();
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let (accept, events) = listener.spawn_accept_demux(server_hello(), cfg, server_stats.clone());
    let client_stats = NetStats::new();
    let (conn, rx) = connect(addr, client_hello(1), &cfg, &client_stats).unwrap();
    // The *server* piggybacks on its idle slots, like a coordination
    // server pushing lease grants to clients.
    let Ok(ConnEvent::Opened { conn: server_conn, .. }) =
        events.recv_timeout(Duration::from_secs(5))
    else {
        panic!("the accepted connection never surfaced")
    };
    server_conn.set_idle_source(|| Some(b"lease".to_vec()));
    // The client stays idle; the server's heartbeat slots must deliver the
    // piggybacked payload as ordinary frames.
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(5);
    while got < 3 {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(frame) => {
                assert_eq!(frame, b"lease");
                got += 1;
            }
            Err(_) => assert!(Instant::now() < deadline, "piggybacked payloads never arrived"),
        }
    }
    let s = server_stats.snapshot();
    assert!(s.idle_payloads >= 3, "piggybacked slots must be counted: {s:?}");
    // Clearing the source restores plain empty heartbeats; the connection
    // stays alive and no further payload frames arrive.
    server_conn.clear_idle_source();
    // Drain anything already queued, then expect silence.
    std::thread::sleep(Duration::from_millis(100));
    while rx.try_recv().is_ok() {}
    std::thread::sleep(Duration::from_millis(4 * 25));
    assert!(rx.try_recv().is_err(), "cleared source must stop payload frames");
    conn.send(b"still alive?".to_vec()).expect("connection must have stayed alive");
    accept.stop();
}

/// A peer that completes the handshake and then goes silent — without
/// closing its socket — must be declared dead after `max_misses` silent
/// windows, and the miss counter must show up in the stats.
#[test]
fn silent_peer_is_declared_dead_by_liveness_misses() {
    let cfg = NetConfig { heartbeat_ms: 30, max_misses: 3, ..NetConfig::default() };
    let server_stats = NetStats::new();
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let (accept, events) = listener.spawn_accept_demux(server_hello(), cfg, server_stats.clone());

    // Raw client: valid handshake, then total silence. The socket stays
    // open — only liveness can kill this connection.
    let helper_stats = NetStats::new();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &client_hello(9).encode(), &helper_stats).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_frame(&mut stream, MAX_FRAME, 0, &helper_stats).unwrap() {
        Frame::Msg(p) => {
            Hello::decode(&p).unwrap();
        }
        other => panic!("expected server hello, got {other:?}"),
    }

    // The server must notice within a few budgets (3 misses × 30 ms). Its
    // half of the connection stays held, so only liveness can end it.
    let Ok(ConnEvent::Opened { id, conn: _held }) = events.recv_timeout(Duration::from_secs(5))
    else {
        panic!("the accepted connection never surfaced")
    };
    match events.recv_timeout(Duration::from_secs(5)) {
        Ok(ConnEvent::Closed { id: dead }) => assert_eq!(dead, id),
        _ => panic!("silent peer never declared dead"),
    }
    let s = server_stats.snapshot();
    assert!(s.heartbeat_misses >= 3, "death must be driven by counted misses: {s:?}");
    assert_eq!(s.conns_registered, 0, "dead conn must be deregistered: {s:?}");
    accept.stop();
}

/// Hard-drop the server side and redial with [`Backoff`] the way the
/// coordination layer's peer links do: the drop is observed as a channel
/// disconnect, dial attempts against the dead address fail (and are
/// counted), and the link re-establishes once the listener returns —
/// recorded as a reconnect.
#[test]
fn hard_dropped_peer_is_redialed_with_backoff() {
    let cfg = NetConfig {
        heartbeat_ms: 25,
        max_misses: 3,
        reconnect_min_ms: 5,
        reconnect_max_ms: 80,
        connect_timeout_ms: 500,
        ..NetConfig::default()
    };
    let stats = NetStats::new();

    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let kill = Arc::new(AtomicBool::new(false));
    let accept = common::spawn_echo(listener, cfg, stats.clone(), kill.clone());

    let (conn, rx) = connect(addr, client_hello(1), &cfg, &stats).unwrap();
    conn.send(b"ping".to_vec()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), b"ping");

    // Hard drop: the whole server goes away — the listener, and every
    // established socket with the thread that held them.
    accept.stop();
    kill.store(true, Ordering::SeqCst);
    // The client observes the death as a disconnect.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            _ => assert!(Instant::now() < deadline, "drop never observed"),
        }
    }
    drop((conn, rx));

    // Redial with backoff while the address is dead; some attempts must
    // fail before the server comes back on the same address.
    let mut backoff = Backoff::new(&cfg);
    let restart_after = Instant::now() + Duration::from_millis(60);
    let revived_kill = Arc::new(AtomicBool::new(false));
    let mut revived: Option<dufs_net::AcceptHandle> = None;
    let mut attempts = 0u32;
    let deadline = Instant::now() + Duration::from_secs(10);
    let (conn2, rx2) = loop {
        assert!(Instant::now() < deadline, "reconnect never succeeded");
        if revived.is_none() && Instant::now() >= restart_after {
            // Same address: std listeners set SO_REUSEADDR on Unix.
            let l = Listener::bind(addr).expect("rebind the same address");
            revived = Some(common::spawn_echo(l, cfg, stats.clone(), revived_kill.clone()));
        }
        attempts += 1;
        match connect(addr, client_hello(1), &cfg, &stats) {
            Ok(pair) => {
                stats.on_reconnect();
                break pair;
            }
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    };
    assert!(attempts >= 2, "the dead window must have failed at least one dial");
    conn2.send(b"back".to_vec()).unwrap();
    assert_eq!(rx2.recv_timeout(Duration::from_secs(5)).unwrap(), b"back");

    let s = stats.snapshot();
    assert!(s.conns_failed >= 1, "failed dials must be counted: {s:?}");
    assert!(s.reconnects >= 1, "the re-established link must be counted: {s:?}");
    assert!(s.conns_opened >= 2, "both generations of the link count: {s:?}");
    revived.unwrap().stop();
    revived_kill.store(true, Ordering::SeqCst);
}
