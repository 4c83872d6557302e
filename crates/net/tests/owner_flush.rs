//! The state an owner's `flush` shares with the reactor, under stress.
//!
//! An owner writes its connection's socket on its own thread, while the
//! reactor may be tearing that connection down on another. Two things make
//! that safe and cheap: the closed flag is set under the queue lock before
//! the reactor drops the socket, so a flush never writes to a descriptor
//! number the kernel has already handed to a new connection; and the
//! heartbeat clock is shared, so a connection its owner keeps busy sends
//! no keepalives.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use dufs_net::{
    connect, Conn, ConnEvent, EndpointKind, Hello, Listener, NetConfig, NetError, NetStats,
};

/// Wait for the server to open the connection whose client said `hello_id`,
/// returning its stream id and the server's half.
fn opened(events: &Receiver<ConnEvent>, hello_id: u64) -> (u64, Conn) {
    loop {
        match events.recv_timeout(Duration::from_secs(10)).expect("server saw no dial") {
            ConnEvent::Opened { id, conn } if conn.remote().id == hello_id => return (id, conn),
            _ => {}
        }
    }
}

/// Round after round, the server hangs up on a connection whose owner is
/// flushing in a tight loop, and the client dials again the moment the old
/// socket is gone, so the new socket is likely to get the dead one's
/// descriptor number. The new connection's peer must receive exactly its
/// own frames — a foreign byte would fail its handshake, its CRC, or its
/// payload check — and every flush on the dead connection must fail with
/// `Closed`.
#[test]
fn a_flush_racing_a_hang_up_never_reaches_a_reused_descriptor() {
    const ROUNDS: u64 = 100;
    let cfg = NetConfig::default();
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let (accept, events) = listener.spawn_accept_demux(
        Hello { kind: EndpointKind::Server, id: 0 },
        cfg,
        NetStats::new(),
    );
    let stats = NetStats::new();
    for round in 0..ROUNDS {
        let (doomed, doomed_rx) =
            connect(addr, Hello { kind: EndpointKind::Client, id: 2 * round }, &cfg, &stats)
                .unwrap();
        let (_, server_half) = opened(&events, 2 * round);
        let flushing = Arc::new(AtomicBool::new(false));
        let owner = {
            let flushing = flushing.clone();
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let queued = doomed.queue(vec![0xAA; 512]);
                    let flushed = doomed.flush();
                    flushing.store(true, Ordering::SeqCst);
                    match flushed {
                        Ok(()) => assert!(queued.is_ok(), "a flush succeeded after queue failed"),
                        Err(NetError::Closed) => {}
                        Err(e) => panic!("flush on a dying connection: {e}"),
                    }
                    // `queue` fails only once the reactor has marked the
                    // connection closed: the socket is gone.
                    if queued.is_err() {
                        return;
                    }
                    assert!(Instant::now() < deadline, "the hang-up was never noticed");
                }
            })
        };
        while !flushing.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        drop(server_half);
        // The channel disconnects when the reactor drops the dead socket.
        loop {
            match doomed_rx.recv_timeout(Duration::from_secs(10)) {
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("the hang-up was never noticed"),
                Ok(_) => {}
            }
        }
        let fresh_id = 2 * round + 1;
        let (fresh, _fresh_rx) =
            connect(addr, Hello { kind: EndpointKind::Client, id: fresh_id }, &cfg, &stats)
                .expect("a foreign byte broke the new connection's handshake");
        let (server_id, _server_fresh) = opened(&events, fresh_id);
        for i in 0..4u8 {
            fresh.queue(vec![i; 256]).unwrap();
        }
        fresh.flush().unwrap();
        let mut next = 0u8;
        while next < 4 {
            match events.recv_timeout(Duration::from_secs(10)).expect("frames never arrived") {
                ConnEvent::Frame { id, payload } if id == server_id => {
                    assert_eq!(payload, vec![next; 256], "round {round}: foreign bytes arrived");
                    next += 1;
                }
                ConnEvent::Closed { id } if id == server_id => {
                    panic!("round {round}: the new connection died (a foreign byte broke a frame)")
                }
                _ => {}
            }
        }
        owner.join().unwrap();
    }
    accept.stop();
}

/// An owner that flushes a frame every 100 ms keeps its connection busy
/// well inside the 500 ms heartbeat interval, so the reactor must never
/// inject a heartbeat. It would, every 500–750 ms, if only the reactor's
/// own writes moved the heartbeat clock.
#[test]
fn an_owner_that_flushes_often_sends_no_heartbeats() {
    let cfg = NetConfig { heartbeat_ms: 500, ..NetConfig::default() };
    let listener = Listener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = listener.local_addr();
    let kill = Arc::new(AtomicBool::new(false));
    let accept = common::spawn_echo(listener, cfg, NetStats::new(), kill.clone());
    let stats = NetStats::new();
    let (conn, _rx) =
        connect(addr, Hello { kind: EndpointKind::Client, id: 1 }, &cfg, &stats).unwrap();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(2) {
        conn.queue(b"busy".to_vec()).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
    }
    let s = stats.snapshot();
    assert!(s.frames_sent >= 15, "the owner's frames never left: {s:?}");
    assert_eq!(s.heartbeats_sent, 0, "owner flushes must count as traffic: {s:?}");
    accept.stop();
    kill.store(true, Ordering::SeqCst);
}
